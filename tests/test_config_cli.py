import dataclasses
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

from oilopt import ConfigError, DiscreteOperator, cli, simulate, solve, solver, verify
from oilopt.cli import main
from oilopt.config import load_config, parse_config
from oilopt.verify import check_solution, run_verification

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "oilopt" / "configs"

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


def write_config(tmp_path, data, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return str(p)


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
        assert manifest["run"]["sweep_workers"] == solver.SWEEP_WORKERS
        assert manifest["run"]["sweep_block"] == solver.SWEEP_BLOCK
        assert "solved" in capsys.readouterr().out

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", cfg, "--out", str(a)])
        main(["solve", "--config", cfg, "--out", str(b)])
        assert (a / "value.csv").read_bytes() == (b / "value.csv").read_bytes()
        assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()

    def test_backward_convergence_has_one_row_per_slice(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out), "--sweep", "backward"]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "slice,passes,last_change"
        cells = [row.split(",") for row in rows[1:]]
        assert [int(c[0]) for c in cells] == list(range(10))  # horizon 1.0, step 0.1
        run = json.loads((out / "manifest.json").read_text())["run"]
        assert sum(int(c[1]) for c in cells) == run["iterations"]
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

    def test_policy_frees_the_value_field_before_writing_csv(self, tmp_path, monkeypatch):
        """policy writes its CSVs from the switching field alone, so the
        solved value field must be gone by then, not held to the end."""
        solved, alive = [], []
        real_pipeline, real_write = cli.pipeline, cli.write_policy_csv

        def pipeline(cfg):
            result = real_pipeline(cfg)
            solved.append(weakref.ref(result[0]))
            return result

        def write_policy_csv(*args, **kwargs):
            alive.append(solved[0]() is not None)
            return real_write(*args, **kwargs)

        monkeypatch.setattr(cli, "pipeline", pipeline)
        monkeypatch.setattr(cli, "write_policy_csv", write_policy_csv)
        cfg = write_config(tmp_path, SMALL)
        assert main(["policy", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert alive == [False]

    def test_simulate_manifest_and_paths(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--record", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        est = manifest["estimate"]
        assert est["n_paths"] == 400
        assert est["diagnostics"]["workers"] == 1  # 400 x 100 path-steps stay in process
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
        solves = []
        monkeypatch.setattr(verify, "solve", lambda *a, **kw: solves.append(a))
        data, node, key = deep(SMALL, "simulation", "antithetic")
        node[key] = antithetic
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--record", str(record)]) == 1
        assert f"cannot record {record} paths: {streams} streams" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("flags, simulation, message", [
        pytest.param(["--dt", "0"], {}, "dt must be positive, got 0.0", id="dt-zero"),
        pytest.param(["--dt", "-1"], {}, "dt must be positive, got -1.0", id="dt-negative"),
        pytest.param(["--paths", "1"], {}, "n_paths must be at least 2 for a standard error",
                     id="one-path"),
        pytest.param([], {"start": {"s": 0.0, "x": 50.0, "y": 20.0, "regime": 0}},
                     "start reserve 20.0 outside [0, 10.0]", id="start-above-capacity"),
        pytest.param([], {"antithetic": True, "n_paths": 401},
                     "antithetic estimation needs an even n_paths", id="odd-antithetic"),
    ])
    def test_bad_simulation_input_exits_one_before_the_solve(
            self, tmp_path, capsys, monkeypatch, command, flags, simulation, message):
        solves = []
        monkeypatch.setattr(verify, "solve", lambda *a, **kw: solves.append(a))
        data = deep(SMALL, "schema_version")[0]
        data["simulation"].update(simulation)
        cfg = write_config(tmp_path, data)
        if command == "simulate":
            flags = flags + ["--record", "0"]  # so no record bound fires first
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run"), *flags]) == 1
        assert message in capsys.readouterr().err
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

    @pytest.mark.parametrize("module", ["scipy", "multiprocessing"])
    def test_cli_import_loads_no_module(self, module):
        """scipy is a test-only dependency: the runtime never imports it.
        multiprocessing is imported by a split Monte Carlo estimate alone, so
        commands without one do not pay for it at start-up."""
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
