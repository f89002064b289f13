"""The benchmark's hooks still resolve in oilopt.

perfbench/child.py wraps the functions named in its SPANS table and reads
the cProfile rows of the functions in its PROFILED table. A renamed
function would not fail the benchmark: its per-layer metric would read 0.
The child script is parsed here, not imported, so nothing is written
under perfbench/.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def _table(name):
    """The literal value of the module-level assignment `name = ...`."""
    for node in ast.parse(CHILD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{CHILD} has no table {name}")


SPANS = _table("SPANS")
PROFILED = _table("PROFILED")


def test_the_tables_are_not_empty():
    assert SPANS and PROFILED


@pytest.mark.parametrize("module, path, span", SPANS, ids=[s for _, _, s in SPANS])
def test_every_span_resolves(module, path, span):
    owner = importlib.import_module(f"oilopt.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


@pytest.mark.parametrize("suffix, name, key, field", PROFILED, ids=[p[2] for p in PROFILED])
def test_every_profiled_function_is_defined(suffix, name, key, field):
    tree = ast.parse((ROOT / "src" / suffix).read_text(encoding="utf-8"))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert name in defined, f"{key}: no def {name} in {suffix}"


@pytest.mark.parametrize("module, attr", [("cli", "load_config"), ("cli", "solve"),
                                          ("verify", "solve"), ("cli", "_COMMANDS")])
def test_every_plain_hook_resolves(module, attr):
    assert hasattr(importlib.import_module(f"oilopt.{module}"), attr)
