import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import assert_no_child, split_sweeps

from oilopt import (
    ConfigError,
    DiscreteOperator,
    GridField,
    analytic_oracle,
    cli,
    config,
    dpp_residual,
    fork,
    policy,
    simulate,
    solve,
    solver,
    verify,
)
from oilopt import grid as grid_module
from oilopt.cli import main
from oilopt.config import load_config, parse_config
from oilopt.verify import check_solution, run_verification

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "oilopt" / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"

SMALL = {
    "schema_version": 1,
    "model": {
        "generator": [[-0.01, 0.01], [0.15, -0.15]],
        "kappa": 0.01,
        "mu": [55.0, 35.0],
        "sigma": [0.2, 0.3],
        "jump_scale": [0.1, 0.1],
        "discount_rate": 0.05,
        "measure": {"family": "uniform", "half_width": 1.0, "total_mass": 0.5},
    },
    "economics": {
        "fixed_cost": 5.0,
        "marginal_cost": 20.0,
        "reserve_slope": 0.0,
        "reserve_offset": 1.0,
        "u_max": 50000.0,
        "reserve_capacity": 10.0,
        "horizon": 1.0,
        "terminal_offset": 20.0,
    },
    "grid": {"price_cap": 100.0, "time_step": 0.1, "price_step": 0.5, "reserve_step": 0.5},
    "solver": {"tolerance": 1.0e-6},
    "simulation": {"n_paths": 400, "dt": 1.0e-2, "seed": 42,
                   "start": {"s": 0.0, "x": 50.0, "y": 4.0, "regime": 0}},
}


REFERENCE = yaml.safe_load((CONFIG_DIR / "reference.yaml").read_text())


def numeric_settings(node, path=()):
    """The index path of every number in reference.yaml, a bool excepted."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in numeric_settings(v, path + (k,))]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in numeric_settings(v, path + (i,))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


# one case per key: a number inside a list is named by the list's key
NUMERIC_KEYS = {}
for _path in numeric_settings(REFERENCE):
    NUMERIC_KEYS.setdefault(".".join(k for k in _path if isinstance(k, str)), _path)


def no_solve(monkeypatch):
    """Replace both names a command solves through; returns the calls made."""
    solves = []
    for module in (cli, verify):
        monkeypatch.setattr(module, "solve", lambda *a, **kw: solves.append(a))
    return solves


def write_config(tmp_path, data, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return str(p)


def assert_run_records(manifest, cfg_path):
    """Every command's manifest records numpy and the BLAS it was built with,
    outside the settings a stored field must match, and the share of the
    dense jump product's multiply-adds that the banded product computes."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["provenance"] == {"numpy_version": np.__version__,
                                      "blas_name": blas["name"],
                                      "blas_version": blas["version"]}
    cfg = load_config(cfg_path)
    assert "provenance" not in cli._settings(cfg)
    op = DiscreteOperator(cfg.model, cfg.grid, cfg.solver)
    assert manifest["run"]["jump_band_share"] == op.jump_band_share < 0.25


def deep(data, *keys):
    out = json.loads(json.dumps(data))  # cheap deep copy
    node = out
    for k in keys[:-1]:
        node = node[k]
    return out, node, keys[-1]


class TestConfigParsing:
    def test_shipped_reference_config_parses(self):
        cfg = load_config(CONFIG_DIR / "reference.yaml")
        assert cfg.model.n_regimes == 2
        assert cfg.grid.shape == (2, 101, 201, 21)
        assert cfg.solver.mode == "upwind"
        assert cfg.simulation.start == (0.0, 50.0, 4.0, 0)

    def test_shipped_oracle_config_parses(self):
        cfg = load_config(CONFIG_DIR / "oracle.yaml")
        assert cfg.model.n_regimes == 1
        assert cfg.model.economics.u_max == 0.0
        assert cfg.model.measure.total_mass == 0.0
        assert cfg.solver.sweep == "backward"

    def test_unknown_top_level_key(self):
        data, node, key = deep(SMALL, "schema_version")
        data["extra_section"] = {}
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(data)

    def test_unknown_nested_key(self):
        data, node, key = deep(SMALL, "model", "kappa")
        data["model"]["kapa"] = 0.01  # typo must not be silently dropped
        with pytest.raises(ConfigError, match="kapa"):
            parse_config(data)

    def test_wrong_schema_version(self):
        data, node, key = deep(SMALL, "schema_version")
        node[key] = 2
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(data)

    def test_missing_required_key(self):
        data, node, key = deep(SMALL, "model", "kappa")
        del node[key]
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(data)

    def test_invalid_model_reported(self):
        data, node, key = deep(SMALL, "model", "discount_rate")
        node[key] = -0.05
        with pytest.raises(ConfigError, match="discount_rate"):
            parse_config(data)

    def test_atom_measure(self):
        data, node, key = deep(SMALL, "model", "measure")
        node[key] = {"family": "atoms", "pairs": [[2.0, 0.3], [-0.5, 0.1]]}
        cfg = parse_config(data)
        assert cfg.model.measure.total_mass == pytest.approx(0.4)

    def test_unknown_measure_family(self):
        data, node, key = deep(SMALL, "model", "measure")
        node[key] = {"family": "cauchy"}
        with pytest.raises(ConfigError, match="family"):
            parse_config(data)

    def test_solver_section_optional(self):
        data, _, _ = deep(SMALL, "schema_version")
        del data["solver"]
        del data["simulation"]
        cfg = parse_config(data)
        assert cfg.solver.tolerance == 1e-6
        assert cfg.simulation.n_paths == 10000
        data["solver"] = data["simulation"] = None  # a null section reads as an empty one
        nulls = parse_config(data)
        assert (nulls.solver, nulls.simulation) == (cfg.solver, cfg.simulation)

    @pytest.mark.parametrize("section", ["solver", "simulation"])
    @pytest.mark.parametrize("value", [False, 0, "", []], ids=["false", "zero", "empty-string",
                                                                "empty-list"])
    def test_a_falsy_section_is_not_an_empty_one(self, section, value):
        data, _, _ = deep(SMALL, section)
        data[section] = value
        with pytest.raises(ConfigError, match=f"^{section} must be a mapping, got "
                                              f"{type(value).__name__}$"):
            parse_config(data)

    @pytest.mark.parametrize("measure, message", [
        ({"family": "uniform", "half_width": 0}, "half_width must be positive, got 0.0"),
        ({"family": "uniform", "total_mass": -0.5}, "total_mass must be nonnegative, got -0.5"),
        ({"family": "double_exponential", "decay": -1}, "decay must be positive, got -1.0"),
        ({"family": "double_exponential", "decay": 2, "half_width": -3},
         "half_width must be positive, got -3.0"),
        ({"family": "double_exponential", "decay": 2, "total_mass": -1},
         "total_mass must be nonnegative, got -1.0"),
        ({"family": "atoms", "pairs": [[0.5, 0.2], [1.0, -0.1]]},
         "pairs must hold nonnegative masses, got (0.2, -0.1)"),
    ])
    def test_a_measure_constructor_refusal_names_the_key(self, measure, message):
        data, node, key = deep(SMALL, "model", "measure")
        node[key] = measure
        with pytest.raises(ConfigError, match=f"^{re.escape('model.measure.' + message)}$"):
            parse_config(data)

    @pytest.mark.parametrize("path, text", [
        ("simulation.n_paths", "1000.7"),
        ("simulation.seed", "1.9"),
        ("simulation.seed", "true"),
        ("solver.max_iterations", "20000.9"),
        ("simulation.start.regime", "1.7"),
        ("solver.tolerance", "yes"),
        ("economics.u_max", "true"),
        ("model.mu", "[55.0, true]"),
        ("model.generator", "[[-0.01, 0.01], [true, -0.15]]"),
        ("schema_version", "true"),
    ])
    def test_numbers_that_would_be_misread_are_refused(self, path, text):
        """Each of these was read as another number: a bool as 0 or 1, a
        fraction of an integer key truncated."""
        data, node, key = deep(SMALL, *path.split("."))
        node[key] = yaml.safe_load(text)
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(data)

    @pytest.mark.parametrize("path, text, read, expected", [
        ("simulation.dt", "1e-3", lambda cfg: cfg.simulation.dt, 1e-3),
        ("simulation.n_paths", "10000.0", lambda cfg: cfg.simulation.n_paths, 10000),
        ("solver.max_iterations", "500", lambda cfg: cfg.solver.max_iterations, 500),
        ("simulation.start.regime", "1.0", lambda cfg: cfg.simulation.start[3], 1),
        ("economics.u_max", "50000", lambda cfg: cfg.model.economics.u_max, 50000.0),
    ])
    def test_numbers_read_as_written(self, path, text, read, expected):
        """PyYAML reads 1e-3 (no dot) as a string; a float key still takes it.
        An integral float is accepted for an integer key."""
        data, node, key = deep(SMALL, *path.split("."))
        node[key] = yaml.safe_load(text)
        value = read(parse_config(data))
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", list(NUMERIC_KEYS))
    def test_non_finite_numbers_are_refused(self, key, bad):
        """No setting gives NaN or infinity a meaning, so each is refused by name."""
        *outer, last = NUMERIC_KEYS[key]
        data = json.loads(json.dumps(REFERENCE))
        node = data
        for k in outer:
            node = node[k]
        node[last] = bad
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(data)

    def test_a_refused_number_exits_one(self, tmp_path, capsys):
        data, node, key = deep(SMALL, "simulation", "seed")
        node[key] = True
        cfg = write_config(tmp_path, data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert "simulation.seed must be an integer, got True" in capsys.readouterr().err

    @pytest.mark.parametrize("price_cap, u_max", [(720.0, 1.0), (700.0, 50000.0)])
    def test_exponential_price_cap_that_overflows_is_refused(self, price_cap, u_max):
        """exp(720) overflows the settlement; exp(700) * 50000 the running
        profit. Both are refused while parsing, without a numpy warning."""
        data, node, key = deep(SMALL, "grid", "price_cap")
        node[key] = price_cap
        data["model"]["price_kind"] = "exponential"
        data["economics"]["u_max"] = u_max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"grid\.price_cap"):
                parse_config(data)
        data["grid"]["price_cap"] = 100.0
        assert parse_config(data).grid.price_cap == 100.0

    def test_the_reference_config_writes_every_key_the_parser_accepts(self, monkeypatch):
        """Each section accepts the fields of the dataclass it fills, so a new
        field is a new key: reference.yaml, which README's schema block
        repeats, must write it, and no key can go undocumented."""
        accepted = {}
        check_keys = config._check_keys

        def record(section, allowed, where):
            accepted[where] = set(allowed)
            return check_keys(section, allowed, where)

        monkeypatch.setattr(config, "_check_keys", record)
        parse_config(REFERENCE)
        written = {"configuration root": REFERENCE,
                   **{s: REFERENCE[s] for s in ("model", "economics", "grid", "solver",
                                                 "simulation")},
                   "simulation.start": REFERENCE["simulation"]["start"]}
        assert {w: accepted[w] for w in written} == {w: set(s) for w, s in written.items()}

    def test_readme_schema_block_is_the_reference_config(self):
        """The documented schema parses and says what reference.yaml says."""
        block = re.search(r"## Configuration schema.*?```yaml\n(.*?)```", README.read_text(),
                          re.S).group(1)
        documented = parse_config(yaml.safe_load(block))
        reference = load_config(CONFIG_DIR / "reference.yaml")
        assert documented.raw == reference.raw
        assert documented.grid == reference.grid
        assert documented.solver == reference.solver
        assert documented.simulation == reference.simulation


class TestCli:
    def test_solve_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "value.csv").exists()
        assert (out / "convergence.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["run"]["converged"] is True
        assert manifest["config"]["schema_version"] == 1
        assert manifest["run"]["sweep_block"] == solver.sweep_block(load_config(cfg).grid)
        assert "passes_per_slice" not in manifest["run"]  # jacobi has no slices
        # ten slices below the horizon, one block: every sweep computes all of them
        assert manifest["run"]["slice_updates"] == manifest["run"]["iterations"] * 2 * 10
        assert_run_records(manifest, cfg)
        assert "solved" in capsys.readouterr().out

    @pytest.mark.parametrize("processes, sweep, workers", [
        (1, "jacobi", 1),
        pytest.param(2, "jacobi", 2, marks=pytest.mark.skipif(not hasattr(os, "fork"),
                                                                reason="needs os.fork")),
        (2, "backward", 1),
    ])
    def test_manifest_reports_the_processes_the_sweeps_ran_on(
            self, tmp_path, monkeypatch, processes, sweep, workers):
        """run.sweep_workers is the processes the solve's sweeps ran on: one
        at fork.WORKERS = 1, two for a jacobi solve that splits, and one for
        backward, whose passes read the slice they write. run.partner_wait_s
        is the seconds the solve's sweeps waited for a partner, backward's
        closing residual too: 0 on one process."""
        split_sweeps(monkeypatch, processes)
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out), "--sweep", sweep]) == 0
        run = json.loads((out / "manifest.json").read_text())["run"]
        assert run["sweep_workers"] == workers
        assert (run["partner_wait_s"] > 0.0) == (processes == 2)
        if hasattr(os, "fork"):
            assert_no_child()

    @pytest.mark.parametrize("refine, shape, block", [(1, (101, 201, 21), 10),
                                                      (2, (201, 401, 41), 2)])
    def test_manifest_reports_the_block_the_sweep_uses(self, monkeypatch, refine, shape, block):
        """run.sweep_block is the time slices per task of the operator's own
        sweep: 10 on reference.yaml and 2 on its 2x-refined grid, whose slice
        is about four times larger. No solve runs: the operator is built and
        swept once."""
        data = yaml.safe_load((CONFIG_DIR / "reference.yaml").read_text())
        for key in ("time_step", "price_step", "reserve_step"):
            data["grid"][key] /= refine
        cfg = parse_config(data)
        assert cfg.grid.shape == (2, *shape)
        op = DiscreteOperator(cfg.model, cfg.grid, cfg.solver)
        sizes, real = set(), DiscreteOperator._best_candidate

        def recording(self, V, m, lo, hi, *rest):
            sizes.add(hi - lo)
            return real(self, V, m, lo, hi, *rest)

        monkeypatch.setattr(DiscreteOperator, "_best_candidate", recording)
        op.sweep(op.initial_guess(), change=True)
        report = solver.ConvergenceReport(iterations=0, final_residual=0.0,
                                          contraction=op.contraction, operator=op)
        args = cli.build_parser().parse_args(["solve", "--config", "reference.yaml"])
        assert cli._manifest(cfg, args, report)["run"]["sweep_block"] == max(sizes) == block

    @pytest.mark.parametrize("below", [False, True], ids=["is-a-file", "below-a-file"])
    def test_unusable_out_exits_one_naming_the_path(self, tmp_path, capsys, monkeypatch, below):
        """An --out that cannot be a directory is an input error: one line
        naming the path, exit 1, no traceback and no solve."""
        solves = no_solve(monkeypatch)
        cfg = write_config(tmp_path, SMALL)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "run" if below else taken
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: cannot use --out {out} as a directory: ")
        assert err.count("\n") == 1
        assert solves == []
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, blocked", [
        (["solve"], "value.csv"),
        (["policy"], "policy.csv"),
        (["simulate", "--record", "2"], "paths.csv"),
        (["verify", "--skip-simulation"], "manifest.json"),
    ], ids=["solve", "policy", "simulate", "verify"])
    def test_unwritable_output_exits_one_naming_the_path(self, tmp_path, capsys, command,
                                                          blocked):
        """An output file that cannot be written (a directory holds its
        name) exits 1, as a configuration problem does: one stderr line
        naming the path, no traceback."""
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        (out / blocked).mkdir(parents=True)
        assert main([*command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write output: {out / blocked}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command, full", [
        (["solve"], "value.csv"),
        (["solve"], "value.npy"),
        (["solve"], "manifest.json"),
        (["policy"], "policy.csv"),
    ])
    def test_a_full_device_exits_one_naming_the_path(self, tmp_path, capsys, command, full):
        """A write that fails after its file opened (every write to /dev/full
        fails with ENOSPC) names the file it was writing: one line, exit 1."""
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        out.mkdir()
        (out / full).symlink_to("/dev/full")
        assert main([*command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"cannot write output: {out / full}: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_a_failed_worker_half_names_the_csv(self, tmp_path, capsys, monkeypatch):
        """The forked worker's half of value.csv goes to a temporary file; its
        ENOSPC comes back and names value.csv."""
        monkeypatch.setattr(grid_module, "SPLIT_MIN_ROWS", 0)
        monkeypatch.setattr(fork, "WORKERS", 2)
        monkeypatch.setattr(grid_module.tempfile, "TemporaryFile",
                            lambda *a, **kw: open("/dev/full", "w+", encoding="utf-8"))
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"cannot write output: {out / 'value.csv'}: No space left on device\n"
        assert multiprocessing.active_children() == []
        assert_no_child()

    @pytest.mark.parametrize("processes", [1, 2])
    def test_manifests_time_each_node_csv(self, tmp_path, monkeypatch, processes):
        """csv_writes gives each node CSV's seconds and the processes that
        formatted it; forced onto two processes, the CSVs keep their pins."""
        if processes == 2:
            if "fork" not in multiprocessing.get_all_start_methods():
                pytest.skip("needs the fork start method")
            monkeypatch.setattr(grid_module, "SPLIT_MIN_ROWS", 0)
        monkeypatch.setattr(fork, "WORKERS", processes)
        cfg = write_config(tmp_path, SMALL)
        for command, csv in (("solve", "value.csv"), ("policy", "policy.csv")):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            [(name, record)] = read_manifest(out)["csv_writes"].items()
            assert (name, sorted(record), record["workers"]) == (csv, ["seconds", "workers"],
                                                                 processes)
            assert 0.0 < record["seconds"] < 60.0
            digest = hashlib.sha256((out / csv).read_bytes()).hexdigest()
            assert digest == self.CSV_SHA256["jacobi"][f"{command}/{csv}"]

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", cfg, "--out", str(a)])
        main(["solve", "--config", cfg, "--out", str(b)])
        assert (a / "value.csv").read_bytes() == (b / "value.csv").read_bytes()
        assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()

    # SHA-256 of every CSV the commands write on SMALL, per sweep order
    CSV_SHA256 = {
        "jacobi": {
            "solve/convergence.csv":
                "ae84269b3a8113de13f9fa6c47ee899515528f2ad149f165ba48c7b4f776f66a",
            "solve/value.csv": "b8ff8234f3d9a1338ab88c66c2cc9db256ae6c83daf676e0a5c63b732a735543",
            "policy/policy.csv":
                "9cc5e3a13cad26bcf03016152eeb44728ba6cd5935e8e8478c1f1506bcda309e",
            "policy/switching_curve.csv":
                "09290127b7d7c7f1e2511ba89c117081e235c0df40a215b57cb1de53652c460a",
            "simulate/paths.csv":
                "a13ad79e36403a9a156a6df461865e83a26e835c0ae5b687d947e99d07065a68",
        },
        "backward": {
            "solve/convergence.csv":
                "5a55410f1e9bc26daf92008c77b23a5e3bdca2355f33de2a753a0d3c8d2088c0",
            "solve/value.csv": "521ba1a191988939684aa6dbcaa0a36d6273d03402d467f3404a329503fc59e4",
            "policy/policy.csv":
                "d7f60c2041ac75e02ca2f08b7517bea95dfc0ab447730d0d057a680400ba58bc",
            "policy/switching_curve.csv":
                "14a32dc8cf9133598988bab651106bb6a6e675ebfa603a36d0791e36a6214338",
            "simulate/paths.csv":
                "a13ad79e36403a9a156a6df461865e83a26e835c0ae5b687d947e99d07065a68",
        },
    }

    @pytest.mark.parametrize("sweep", ["jacobi", "backward"])
    def test_csv_bytes_are_pinned(self, tmp_path, sweep):
        cfg = write_config(tmp_path, SMALL)
        for argv in (["solve"], ["policy"], ["simulate", "--record", "2"]):
            out = tmp_path / argv[0]
            assert main([argv[0], "--config", cfg, "--out", str(out), "--sweep", sweep,
                         *argv[1:]]) == 0
        written = {f"{f.parent.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in sorted(tmp_path.glob("*/*.csv"))}
        assert written == self.CSV_SHA256[sweep]

    def test_backward_convergence_has_one_row_per_slice(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out), "--sweep", "backward"]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "slice,passes,last_change"
        cells = [row.split(",") for row in rows[1:]]
        assert [int(c[0]) for c in cells] == list(range(10))  # horizon 1.0, step 0.1
        run = json.loads((out / "manifest.json").read_text())["run"]
        passes = [int(c[1]) for c in cells]
        assert sum(passes) == run["iterations"]
        assert run["passes_per_slice"] == {
            "min": min(passes), "mean": sum(passes) / len(passes), "max": max(passes),
        }
        assert all(float(c[2]) < 1e-6 * 0.05 * 0.1 / 2 for c in cells)  # tol * r * k / 2

    def test_policy_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["policy", "--config", cfg, "--out", str(out)]) == 0
        head = (out / "switching_curve.csv").read_text().splitlines()[0]
        assert head == "s,y,regime,x_star"
        assert (out / "policy.csv").read_text().splitlines()[0] == "s,x,y,regime,G,u_star"
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["threshold_rows"], manifest["threshold_rows_near_cap"]) == (168, 0)
        assert manifest["run"]["slice_updates"] > 0  # solved here, not loaded
        assert_run_records(manifest, cfg)

    def test_policy_manifest_counts_threshold_rows_near_the_cap(self, tmp_path, capsys):
        """A cap of 24 pulls 6 thresholds to within one price step (0.5) of it:
        the warning's count is the manifest's, and the curve CSV agrees."""
        data, node, key = deep(SMALL, "grid", "price_cap")
        node[key] = 24.0
        data["simulation"]["start"]["x"] = 20.0
        out = tmp_path / "run"
        assert main(["policy", "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
        assert "of the cap 24.0 in 6 rows" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threshold_rows_near_cap"] == 6
        cells = [row.split(",")[3] for row in
                 (out / "switching_curve.csv").read_text().splitlines()[1:]]
        assert sum(1 for x in cells if x and float(x) >= 24.0 - 0.5) == 6

    @pytest.mark.parametrize("argv, slices", [
        (["policy"], 4 + 11),  # the curve's report slices, then every slice of policy.csv
        (["simulate", "--record", "0"], 11),  # the Monte Carlo policy
        (["verify"], 4 + 11),
        (["verify", "--skip-simulation"], 4),
    ], ids=["policy", "simulate", "verify", "verify-skip-simulation"])
    def test_commands_compute_the_switching_field_one_slice_at_a_time(
            self, tmp_path, monkeypatch, argv, slices):
        """No command holds a full-grid G: every call of the per-slice core
        returns one time slice, (M, n_x, n_y), and each slice is read once."""
        shapes, core = [], policy._switching_block

        def switching_block(V, op):
            G = core(V, op)
            shapes.append(G.shape)
            return G

        monkeypatch.setattr(policy, "_switching_block", switching_block)
        cfg = write_config(tmp_path, SMALL)
        assert main([argv[0], "--config", cfg, "--out", str(tmp_path / "run"), *argv[1:]]) == 0
        assert shapes == [(2, 201, 21)] * slices

    def test_simulate_manifest_and_paths(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--record", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert_run_records(manifest, cfg)
        est = manifest["estimate"]
        assert est["n_paths"] == 400
        assert est["diagnostics"]["workers"] == 1  # 400 x 100 path-steps stay in process
        # u_max * dt = 500 empties every reserve in the first step: one policy read
        assert est["diagnostics"]["policy_lookup_steps"] == 1
        assert est["gap"] <= 3 * est["std_error"] + 2.0
        paths = (out / "paths.csv").read_text().splitlines()
        assert paths[0] == "path,t,x,y,regime,u,discounted_profit"
        assert {row.split(",")[0] for row in paths[1:]} == {"0", "1"}

    def test_simulate_records_paths_from_the_estimate_batch(self, tmp_path, monkeypatch):
        """--record replays nothing: the estimate's one batch is the only one."""
        calls = []
        block = simulate._simulate_block
        monkeypatch.setattr(simulate, "_simulate_block",
                            lambda *a, **kw: calls.append(kw.get("record")) or block(*a, **kw))
        cfg = write_config(tmp_path, SMALL)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--record", "2"]) == 0
        assert calls == [2]

    @pytest.mark.parametrize("antithetic, record, streams", [(False, 401, 400), (True, 201, 200)])
    def test_record_above_the_stream_count_exits_one(self, tmp_path, capsys, monkeypatch,
                                                     antithetic, record, streams):
        """The flag is refused before the solve, not after it."""
        solves = no_solve(monkeypatch)
        data, node, key = deep(SMALL, "simulation", "antithetic")
        node[key] = antithetic
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--record", str(record)]) == 1
        assert f"cannot record {record} paths: {streams} streams" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize("command", [["simulate", "--record", "0"], ["verify"],
                                         ["verify", "--skip-simulation"]],
                             ids=["simulate", "verify", "verify-skip-simulation"])
    @pytest.mark.parametrize("flags, simulation, message", [
        pytest.param(["--dt", "0"], {}, "dt must be positive, got 0.0", id="dt-zero"),
        pytest.param(["--dt", "-1"], {}, "dt must be positive, got -1.0", id="dt-negative"),
        pytest.param(["--dt", "nan"], {}, "dt must be positive, got nan", id="dt-nan"),
        pytest.param(["--dt", "inf"], {}, "dt must be positive and finite, got inf",
                     id="dt-inf"),
        pytest.param(["--paths", "1"], {}, "n_paths must be at least 2 for a standard error",
                     id="one-path"),
        pytest.param([], {"start": {"s": 0.0, "x": 50.0, "y": 20.0, "regime": 0}},
                     "start reserve 20.0 outside [0, 10.0]", id="start-above-capacity"),
        pytest.param([], {"antithetic": True, "n_paths": 401},
                     "antithetic estimation needs an even n_paths", id="odd-antithetic"),
        pytest.param(["--paths", "2"], {"antithetic": True},
                     "antithetic estimation needs n_paths >= 4", id="one-antithetic-pair"),
    ])
    def test_bad_simulation_input_exits_one_before_the_solve(
            self, tmp_path, capsys, monkeypatch, command, flags, simulation, message):
        """simulate runs with --record 0, so no record bound fires first;
        verify checks the simulation settings even when it skips the simulation."""
        solves = no_solve(monkeypatch)
        data = deep(SMALL, "schema_version")[0]
        data["simulation"].update(simulation)
        cfg = write_config(tmp_path, data)
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "run"), *flags]) == 1
        assert message in capsys.readouterr().err
        assert solves == []

    def test_one_antithetic_pair_is_invalid_input(self, tmp_path, capsys, monkeypatch):
        """oracle.yaml pairs its paths, so --paths 2 is one sample: its
        standard error was NaN, and the gap check printed FAIL against an
        allowance of nan. It is refused before the solve."""
        solves = no_solve(monkeypatch)
        assert main(["verify", "--config", str(CONFIG_DIR / "oracle.yaml"), "--paths", "2",
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            "invalid input: antithetic estimation needs n_paths >= 4: two pairs for a "
            "standard error\n")
        assert solves == []

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_exits_one_before_the_solve(
            self, tmp_path, capsys, monkeypatch, value):
        """An infinite tolerance would pass convergence after one sweep; a NaN
        one would never converge."""
        solves = no_solve(monkeypatch)
        cfg = write_config(tmp_path, SMALL)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--skip-simulation", "--tolerance", value]) == 1
        assert f"tolerance must be positive and finite, got {value}" in capsys.readouterr().err
        assert solves == []

    def test_mc_constant_flag_is_refused(self, tmp_path):
        """The simulation allowance multiplier is frozen: no flag loosens it."""
        cfg = write_config(tmp_path, SMALL)
        with pytest.raises(SystemExit):
            main(["verify", "--config", cfg, "--mc-constant", "9"])

    def test_seed_override_changes_estimate(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(a), "--record", "0"])
        main(["simulate", "--config", cfg, "--out", str(b), "--record", "0",
              "--seed", "777"])
        ma = json.loads((a / "manifest.json").read_text())["estimate"]
        mb = json.loads((b / "manifest.json").read_text())["estimate"]
        assert ma["seed"] == 42 and mb["seed"] == 777
        assert ma["mean"] != mb["mean"]

    def test_bad_grid_exits_one(self, tmp_path, capsys):
        data, node, key = deep(SMALL, "grid", "time_step")
        node[key] = 1.5
        cfg = write_config(tmp_path, data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, tmp_path):
        data, node, key = deep(SMALL, "model", "kappa")
        data["model"]["kapa"] = 1.0
        cfg = write_config(tmp_path, data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_contraction_failure_exits_two(self, tmp_path, capsys):
        data, node, key = deep(SMALL, "model", "measure")
        node[key] = {"family": "double_exponential", "decay": 60.0,
                     "half_width": 5.0, "total_mass": 40.0}
        data["solver"]["xi"] = 0.9
        cfg = write_config(tmp_path, data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_paper_faithful_extraction_exits_two(self, tmp_path, capsys):
        """Below x = 40 every paper-faithful price weight is positive, so the
        refusal comes from the reserve stencil at u_max = 50000."""
        data, node, key = deep(SMALL, "grid", "price_cap")
        node[key] = 40.0
        cfg = write_config(tmp_path, data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--mode", "paper_faithful"]) == 2
        assert "monotone only for u_max = 0" in capsys.readouterr().err

    def test_verify_passes_on_small_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "contraction" in out and "PASS" in out
        manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
        names = {c["name"] for c in manifest["checks"]}
        assert {"contraction", "balance-residual", "terminal-slice",
                "single-threshold", "simulation-gap"} <= names
        assert_run_records(manifest, cfg)

    def test_verify_passes_the_simulation_gap_at_a_finite_rate(self, tmp_path, capsys):
        """finite_rate.yaml's paths extract for years and read the grid policy
        at every step, between reserve nodes. Read at the nearest reserve
        node, 2,000 paths (seed 1) stopped with reserve left and fell 9.42
        below the grid, against an allowance of 3.04."""
        code = main(["verify", "--config", str(CONFIG_DIR / "finite_rate.yaml"), "--sweep",
                     "backward", "--paths", "2000", "--seed", "1", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        line = next(row for row in out.splitlines() if row.startswith("simulation-gap"))
        assert line.split()[1] == "PASS" and " <= allowance " in line, line
        assert code == 0

    def test_a_failing_simulation_gap_says_the_gap_exceeds_the_allowance(self):
        """An all-zero value field read as the policy too: 300 paths that
        never extract settle far above the grid's 0, and the failing line
        says `>`, not the `<=` of a passing one."""
        cfg = load_config(CONFIG_DIR / "reference.yaml")
        cfg = dataclasses.replace(
            cfg, simulation=dataclasses.replace(cfg.simulation, n_paths=300, dt=0.01))
        zero = GridField(cfg.grid, np.zeros(cfg.grid.shape))
        (result,) = verify.check_monte_carlo(cfg, zero, zero)
        assert result.status == "fail" and result.value > 0.0
        assert " > allowance " in result.detail and "<=" not in result.detail, result.detail

    def test_entry_point_runs(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        # the child finds the package where this test session found it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "oilopt.cli", "solve", "--config", cfg,
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", ["scipy", "multiprocessing", "concurrent.futures"])
    def test_cli_import_loads_no_module(self, module):
        """scipy is a test-only dependency: the runtime never imports it. Nor
        does it import multiprocessing or concurrent.futures: the two-process
        splits fork with os.fork (see test_fork.py for a split run), and no
        sweep runs on a thread pool."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, oilopt.cli; print(sorted(m for m in sys.modules if m == '{module}' "
             f"or m.startswith('{module}.')))"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def counted_solves(monkeypatch):
    """Count the solves made through either name a command solves by; each
    still solves. Returns the list the calls are appended to."""
    solves = []
    for module in (cli, verify):
        real = module.solve
        monkeypatch.setattr(module, "solve",
                            lambda *a, real=real, **kw: solves.append(a) or real(*a, **kw))
    return solves


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def change_a_digit(out):
    """The last digit of a middle row's value: the field moves by about
    1e-13, which the residual check passes, so only the CRC-32 can refuse it."""
    path = out / "value.csv"
    rows = path.read_text().splitlines(keepends=True)
    row = rows[len(rows) // 2]
    assert len(row.rsplit(",", 1)[1].strip()) >= 15
    i = len(row) - 2
    rows[len(rows) // 2] = row[:i] + str((int(row[i]) + 1) % 10) + row[i + 1:]
    path.write_text("".join(rows))


def edit_a_model_key(out):
    cfg = out.parent / "cfg.yaml"
    data = yaml.safe_load(cfg.read_text())
    data["model"]["kappa"] = 0.02
    cfg.write_text(yaml.safe_dump(data))


def truncate_the_field(out):
    path = out / "value.csv"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def verify_in_the_same_out(out):
    assert main(["verify", "--config", str(out.parent / "cfg.yaml"), "--out", str(out),
                 "--skip-simulation"]) == 0


def record_the_stored_files(out):
    """Record value.csv and value.npy as they now are, as solve would: a
    forgery that only the checks after the CRC-32 can refuse."""
    manifest = read_manifest(out)
    manifest.update(cli._stored_records(out))
    (out / "manifest.json").write_text(json.dumps(manifest))


def forge_the_npy(change):
    def edit(out):
        np.save(out / "value.npy", change(np.load(out / "value.npy")))
        record_the_stored_files(out)
    return edit


def forge_npy_bytes(edit_bytes):
    def edit(out):
        path = out / "value.npy"
        path.write_bytes(edit_bytes(path.read_bytes()))
        record_the_stored_files(out)
    return edit


def put_the_field_off_balance(out):
    """A field that is no solution, in both files, with their own records:
    only the residual check can refuse it."""
    cfg = load_config(out.parent / "cfg.yaml")
    field = GridField(cfg.grid, np.load(out / "value.npy"))
    field.values[0, 0, 100, 10] += 1.0
    field.to_csv(out / "value.csv")
    np.save(out / "value.npy", field.values)
    record_the_stored_files(out)


def flip_a_low_bit(out):
    """The last bit of a middle stored float: the field moves by one ulp,
    which the residual check passes, so only the CRC-32 can refuse it."""
    values = np.load(out / "value.npy")
    values.reshape(-1).view(np.uint64)[values.size // 2] ^= 1
    np.save(out / "value.npy", values)


def truncate_the_npy(out):
    path = out / "value.npy"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


class TestValueFieldReuse:
    """policy and simulate load the field solve left in --out when it was
    solved for their settings and still solves their operator."""

    @pytest.mark.parametrize("sweep", ["jacobi", "backward"])
    def test_one_solve_serves_solve_policy_and_simulate(self, tmp_path, monkeypatch, sweep):
        solves = counted_solves(monkeypatch)
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        manifests = []
        for argv in (["solve"], ["policy"], ["simulate", "--record", "2"]):
            assert main([argv[0], "--config", cfg, "--out", str(out), "--sweep", sweep,
                         *argv[1:]]) == 0
            manifests.append(read_manifest(out))
        assert len(solves) == 1
        solved, *reused = manifests
        assert solved["run"]["value_field"] == "solved"
        records = {"value_csv": cli._file_record(out / "value.csv"),
                   "value_npy": cli._file_record(out / "value.npy")}
        for manifest in manifests:
            assert {key: manifest[key] for key in records} == records
        for manifest in reused:
            run = manifest["run"]
            assert run["value_field"] == "value.npy"
            assert run["iterations"] == 0 and run["converged"] is True
            assert run["final_residual"] < SMALL["solver"]["tolerance"]
            assert "passes_per_slice" not in run
            assert run["slice_updates"] == 0  # the residual check is not a solve
            assert run["jump_band_share"] == solved["run"]["jump_band_share"]
        assert solved["run"]["slice_updates"] > 0
        pinned = {name.split("/")[1]: digest
                  for name, digest in TestCli.CSV_SHA256[sweep].items()}
        assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out.glob("*.csv"))} == pinned

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_the_stored_field_check_reports_its_partner_wait(self, tmp_path, monkeypatch):
        """The residual sweep over a stored field splits like any other, and
        the report that policy and simulate write as `run` counts its wait:
        none on one process."""
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        for processes in (1, 2):
            split_sweeps(monkeypatch, processes)
            _, report, records = cli._value_field(load_config(cfg), out)
            assert records is not None and report.iterations == 0
            assert (report.partner_wait_s > 0.0) == (processes == 2)
        assert_no_child()

    def test_verify_solves_after_solve(self, tmp_path, monkeypatch):
        solves = counted_solves(monkeypatch)
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out), "--skip-simulation"]) == 0
        assert len(solves) == 2
        manifest = read_manifest(out)
        assert manifest["run"]["value_field"] == "solved"
        assert "value_csv" not in manifest and "value_npy" not in manifest

    @pytest.mark.parametrize("sweep", ["jacobi", "backward"])
    def test_both_stored_files_hold_the_solved_bits(self, tmp_path, monkeypatch, sweep):
        """value.csv's value column, read as floats, and value.npy are the
        field solve returned, bit for bit: a float64, C-order array."""
        solved = []
        monkeypatch.setattr(cli, "solve", lambda *a: solved.append(solve(*a)) or solved[-1])
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out), "--sweep", sweep]) == 0
        [(field, _)] = solved
        M, n_s, n_x, n_y = field.grid.shape
        header, *rows = (out / "value.csv").read_text().splitlines()
        assert header == "s,x,y,regime,value"
        csv_values = np.array([float(row.rsplit(",", 1)[1]) for row in rows])
        csv_values = csv_values.reshape(n_s, n_x, n_y, M).transpose(3, 0, 1, 2)
        stored = np.load(out / "value.npy", allow_pickle=False)
        assert stored.dtype == np.float64 and stored.flags.c_contiguous
        assert stored.shape == field.grid.shape
        assert stored.tobytes() == field.values.tobytes()
        assert np.ascontiguousarray(csv_values).tobytes() == field.values.tobytes()

    @pytest.mark.parametrize("edit, flags", [
        (None, ["--tolerance", "2e-6"]),
        (None, ["--sweep", "backward"]),
        (edit_a_model_key, []),
        (change_a_digit, []),
        (truncate_the_field, []),
        (verify_in_the_same_out, []),
        (lambda out: (out / "manifest.json").unlink(), []),
        (put_the_field_off_balance, []),
        (lambda out: (out / "value.npy").unlink(), []),
        (truncate_the_npy, []),
        (flip_a_low_bit, []),
        (forge_the_npy(lambda v: v.reshape(-1)), []),
        (forge_the_npy(lambda v: v.astype(np.float32)), []),
        (forge_the_npy(lambda v: v.astype(object)), []),
        (forge_npy_bytes(lambda b: b""), []),  # np.load raises EOFError
        (forge_npy_bytes(lambda b: b.replace(b"), }", b" , }", 1)), []),  # TokenError
    ], ids=["tolerance", "sweep", "model-key", "digit", "truncated", "verify-manifest",
            "no-manifest", "off-balance", "npy-missing", "npy-truncated", "npy-bit",
            "npy-shape", "npy-float32", "npy-object", "npy-empty", "npy-header"])
    @pytest.mark.parametrize("command", [["policy"], ["simulate", "--record", "0"]],
                             ids=lambda argv: argv[0])
    def test_a_field_that_may_not_be_used_is_solved_again(
            self, tmp_path, monkeypatch, edit, flags, command):
        """Only the off-balance field reaches the residual check: every other
        field is refused before it, by the settings, a record or the load."""
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        if edit is not None:
            edit(out)
        solves = counted_solves(monkeypatch)
        checked = []
        monkeypatch.setattr(cli, "dpp_residual",
                            lambda *a, real=cli.dpp_residual: checked.append(1) or real(*a))
        assert main([command[0], "--config", cfg, "--out", str(out), *flags, *command[1:]]) == 0
        assert len(solves) == 1
        assert len(checked) == (edit is put_the_field_off_balance)
        manifest = read_manifest(out)
        assert manifest["run"]["value_field"] == "solved"
        assert manifest["run"]["iterations"] > 0
        assert "value_csv" not in manifest and "value_npy" not in manifest


class TestVerifyChecks:
    def test_verification_builds_one_operator(self, monkeypatch):
        """The balance residual reuses the operator the solve iterated."""
        builds = []
        init = DiscreteOperator.__init__
        monkeypatch.setattr(DiscreteOperator, "__init__",
                            lambda self, *a: builds.append(1) or init(self, *a))
        cfg = parse_config(deep(SMALL, "schema_version")[0])
        results, _, report = run_verification(cfg, skip_simulation=True)
        assert len(builds) == 1
        assert all(r.status != "fail" for r in results)
        assert report.operator is not None

    def test_convergence_check_compares_residual_with_tolerance(self):
        cfg = parse_config(deep(SMALL, "schema_version")[0])
        field, report = solve(cfg.model, cfg.grid, cfg.solver)

        def status(rep):
            return {r.name: r.status for r in check_solution(cfg, field, rep)}["convergence"]

        assert status(report) == "pass"
        stale = dataclasses.replace(report, final_residual=2 * cfg.solver.tolerance)
        assert status(stale) == "fail"

    @pytest.mark.parametrize("sweep", ["backward", "jacobi"])
    def test_verification_sweeps_the_solved_field_once(self, sweep, monkeypatch):
        """Backward closes on dpp_residual of the field it returns, and the
        balance-residual check reads that result instead of sweeping again.
        Jacobi's last residual is the previous iterate's, so the check
        sweeps the returned field once itself."""
        calls = []
        original = DiscreteOperator.sweep
        monkeypatch.setattr(DiscreteOperator, "sweep",
                            lambda self, *a, **kw: calls.append(1) or original(self, *a, **kw))
        data, node, key = deep(SMALL, "solver", "tolerance")
        data["solver"]["sweep"] = sweep
        results, field, report = run_verification(parse_config(data), skip_simulation=True)
        assert all(r.status != "fail" for r in results)
        if sweep == "backward":
            assert len(calls) == 1  # the passes update slices, not the full grid
            calls.clear()
            fresh = dpp_residual(field, report.operator)
            assert report.balance == fresh and report.final_residual == fresh[0]
            assert {r.name: r.value for r in results}["balance-residual"] == fresh[0]
        else:
            assert len(calls) == report.iterations + 1
            assert report.balance is None

    def test_closed_form_check_equals_the_per_node_closed_form(self):
        data = yaml.safe_load((CONFIG_DIR / "oracle.yaml").read_text())
        data["grid"].update(time_step=0.1, price_step=0.5, reserve_step=0.5)
        cfg = parse_config(data)
        field, _ = solve(cfg.model, cfg.grid, cfg.solver)
        [result] = verify.check_oracle(cfg, field)
        assert result.status == "pass"
        g = cfg.grid
        xs = g.x_values
        interior = np.flatnonzero((xs >= 0.1 * xs[-1]) & (xs <= 0.9 * xs[-1]))
        err = scale = 0.0
        for si, s in enumerate(g.s_values[:-1]):
            for xi in interior:
                for yi, y in enumerate(g.y_values):
                    exact = analytic_oracle(cfg.model, float(s), float(xs[xi]), float(y))
                    err = max(err, abs(float(field.values[0, si, xi, yi]) - exact))
                    scale = max(scale, abs(exact))
        assert result.value == err / scale

    def test_closed_form_check_skips_the_reference_model(self):
        cfg = load_config(CONFIG_DIR / "reference.yaml")
        [result] = verify.check_oracle(cfg, GridField(cfg.grid))
        assert result.status == "skip"
        assert result.detail == (
            "analytic oracle requires a single regime, a zero-mass jump measure, "
            "u_max = 0, zero fixed cost"
        )
