"""The benchmark's hooks still resolve in oilopt.

perfbench/child.py wraps the functions named in its SPANS table and reads
the cProfile rows of the functions in its PROFILED table. A renamed
function would not fail the benchmark: its per-layer metric would read 0.
Its plain mode checks the start-node value of every solve made through
cli.solve or verify.solve; a command that solved through neither name
would pass that check with nothing checked. A command that reads the field
an earlier solve left in --out makes no solve, so the field it reads is
checked here instead. The child script is parsed here, not imported, so
nothing is written under perfbench/.
"""

import ast
import importlib
from pathlib import Path

import pytest
import yaml
from test_config_cli import SMALL

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


@pytest.mark.parametrize("argv", [["solve"], ["policy"], ["simulate", "--record", "0"],
                                  ["verify"]], ids=lambda argv: argv[0])
def test_every_command_solves_once_through_a_plain_hook(tmp_path, monkeypatch, argv):
    from oilopt import cli, verify

    calls = []
    for module in (cli, verify):
        real = module.solve
        monkeypatch.setattr(module, "solve",
                            lambda *a, real=real, **kw: calls.append(a) or real(*a, **kw))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(SMALL))
    assert cli.main([argv[0], "--config", str(cfg), "--out", str(tmp_path / "run"),
                     *argv[1:]]) == 0
    assert len(calls) == 1



def test_solve_policy_simulate_in_one_out_solve_once(tmp_path, monkeypatch):
    """ref-solve-policy's commands share one --out, so policy reads the field
    solve wrote, and the plain mode's start-node check sees one solve. The
    field each command works on still has that solve's start-node value,
    bit for bit."""
    from oilopt import cli, verify

    solved, used = [], []

    def keep(real, found):
        def call(*args):
            result = real(*args)
            found.append(result[0])
            return result
        return call

    for module in (cli, verify):
        monkeypatch.setattr(module, "solve", keep(module.solve, solved))
    monkeypatch.setattr(cli, "_value_field", keep(cli._value_field, used))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(SMALL))
    for argv in (["solve"], ["policy"], ["simulate", "--record", "0"]):
        assert cli.main([argv[0], "--config", str(cfg), "--out", str(tmp_path / "run"),
                         *argv[1:]]) == 0
    assert len(solved) == 1 and len(used) == 2
    start = SMALL["simulation"]["start"]
    grid = solved[0].grid
    node = (start["regime"], *grid.nearest_indices(start["s"], start["x"], start["y"]))
    want = solved[0].values[node].tobytes()
    assert [field.values[node].tobytes() for field in used] == [want, want]
