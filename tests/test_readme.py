"""README quotes the solver's and the Monte Carlo's tuning constants and
names the configuration's integer keys; each quote must be what the code
says, so a retuned constant or a retyped field cannot leave its
documentation behind."""

import re
from pathlib import Path

import pytest

from oilopt import config, grid, simulate, solver

README = Path(__file__).resolve().parents[1] / "README.md"
REFERENCE = Path(__file__).resolve().parents[1] / "src" / "oilopt" / "configs" / "reference.yaml"


@pytest.mark.parametrize("module, name, value", [
    (solver, "SWEEP_BLOCK_BYTES", 337_680),
    (solver, "_JUMP_BAND_ROWS", 32),
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
