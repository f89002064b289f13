"""README quotes the solver's and the Monte Carlo's tuning constants,
names the configuration's integer keys and names the package's modules'
functions and constants; each quote must be what the code says, so a
retuned constant, a retyped field or a removed helper cannot leave its
documentation behind."""

import importlib
import re
from pathlib import Path

import pytest

from oilopt import config, grid, simulate, solver

README = Path(__file__).resolve().parents[1] / "README.md"
REFERENCE = Path(__file__).resolve().parents[1] / "src" / "oilopt" / "configs" / "reference.yaml"


@pytest.mark.parametrize("module, name, value", [
    (solver, "SWEEP_BLOCK_BYTES", 337_680),
    (solver, "_JUMP_BAND_ROWS", 32),
    (solver, "JACOBI_SPLIT_NODES", 60_000),
    (solver, "RESIDUAL_SPLIT_NODES", 400_000),
    (simulate, "BATCH_PATHS", 10_000),
    (simulate, "SPLIT_MIN_PATH_STEPS", 200_000),
    (simulate, "NORMAL_BLOCK", 512),
    (grid, "SPLIT_MIN_ROWS", 100_000),
])
def test_readme_quotes_the_code_constant(module, name, value):
    """Every `module.NAME` (number ...) in README carries the code's value."""
    qualified = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
    quoted = re.findall(rf"`{re.escape(qualified)}`\s+\(([\d,]+)", README.read_text())
    assert quoted, f"README quotes no value for {qualified}"
    assert {int(q.replace(",", "")) for q in quoted} == {getattr(module, name)} == {value}


def test_readme_lists_the_keys_read_as_integers(monkeypatch):
    """README's integer keys are the keys parse_config reads with an integer
    type from reference.yaml, which writes every key."""
    integers = []
    number = config._number

    def record(value, key, integer=False):
        if integer:
            integers.append(key.split(".", 1)[-1])  # without the section
        return number(value, key, integer)

    monkeypatch.setattr(config, "_number", record)
    config.load_config(REFERENCE)
    listed = re.search(r"The integer keys\s+\(([^)]*)\)", README.read_text()).group(1)
    assert sorted(re.findall(r"`([\w.]+)`", listed)) == sorted(integers)


# a backticked name in README that starts with one of these modules or classes
NAMED = re.compile(r"`((?:fork|solver|simulate|grid|cli|verify|policy|DiscreteOperator)"
                   r"(?:\.\w+)+)")
# names of that form that are no attribute: output files and YAML key paths
NOT_ATTRIBUTES = {"policy.csv"}


def resolves(name: str) -> bool:
    """Whether `module.attr...` (or `DiscreteOperator.attr...`) is an
    attribute of the oilopt package."""
    head, *rest = name.split(".")
    obj = (solver.DiscreteOperator if head == "DiscreteOperator"
           else importlib.import_module(f"oilopt.{head}"))
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_only_what_the_package_has():
    names = set(NAMED.findall(README.read_text())) - NOT_ATTRIBUTES
    assert names, "README names no module attribute"
    assert sorted(name for name in names if not resolves(name)) == []


@pytest.mark.parametrize("name", ["solver._on_processes", "fork.worth_splitting",
                                  "DiscreteOperator.sweep_with_policy"])
def test_a_removed_helper_does_not_resolve(name):
    """The check above would refuse README naming a helper the code dropped."""
    assert NAMED.findall(f"see `{name}` and `{name}(x)`") == [name, name]
    assert not resolves(name)
