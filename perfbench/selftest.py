"""Fast self-test of the benchmark harness on a tiny configuration.

    python3 perfbench/selftest.py

Covers the median and quartile arithmetic, span self-time (parent minus
children), the per-layer and end-to-end reductions, failure counting, output
checks that fail and are counted, and BENCHMARK.json against run.py. Runs in a few seconds; exits 0 when
every check holds and 1 otherwise, naming each failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def test_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    # exclusive method: positions (n+1)p = 1.75 and 5.25 in the sorted sample
    check(run.quartiles(values) == (1.375, 5.25), "quartiles interpolate as quantiles(n=4)")
    check(run.quartiles([5.0]) == (5.0, 5.0), "one sample is its own quartiles")
    reps = [run.Rep("plain", wall_s=w, setup_s=0.5, solve_s=1.0, peak_rss_mb=9.0) for w in values]
    metrics, samples = run.end_to_end(reps)
    check(metrics["wall_s"]["value"] == 2.8, "wall_s is the median; an even count averages the middle pair")
    reps[4].failures.append("injected")
    metrics, samples = run.end_to_end(reps)
    check(metrics["wall_s"]["value"] == 2.6 and len(samples["wall_s"]) == 5,
          "a failed repetition is left out of the medians")


def test_self_times():
    spans = [
        ["cli.command", 0.0, 10.0, -1, 0.0, 0.0],
        ["solver.solve", 1.0, 7.0, 0, 0.0, 0.0],
        ["solver.DiscreteOperator.sweep", 2.0, 3.0, 1, 0.0, 0.0],
        ["solver.DiscreteOperator.sweep", 4.0, 6.5, 1, 0.0, 0.0],
        ["grid.GridField.to_csv", 7.5, 9.0, 0, 0.0, 0.0],
    ]
    check(run.self_times(spans) == [2.5, 2.5, 1.0, 2.5, 1.5], "self time is parent minus children")


def test_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS,
          "BENCHMARK.json lists exactly the per-layer metrics run.py prints")
    names = {w["name"] for w in bench["workloads"]}
    check(names == set(run.make_workloads(run.REFERENCE, run.REFERENCE, 0)),
          "BENCHMARK.json lists exactly the workloads run.py defines")


def tiny_config(path: Path):
    """reference.yaml shrunk to a (2, 5, 41, 5) grid and 200 paths."""
    import yaml

    with open(run.REFERENCE, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["economics"].update(horizon=1.0, reserve_capacity=2.0)
    data["grid"].update(price_cap=20.0, time_step=0.25)
    data["simulation"].update(n_paths=200, dt=0.01, start={"s": 0.0, "x": 10.0, "y": 1.0, "regime": 0})
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


def start_value(config: Path, sweep: str) -> float:
    sys.path.insert(0, str(run.ROOT / "src"))
    from oilopt.config import load_config
    from oilopt.solver import solve

    cfg = load_config(config)
    cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, sweep=sweep))
    field, _ = solve(cfg.model, cfg.grid, cfg.solver)
    s, x, y, regime = cfg.simulation.start
    si, xi, yi = cfg.grid.nearest_indices(s, x, y)
    return float(field.values[regime, si, xi, yi])


def test_tiny_workloads(work: Path):
    config = work / "tiny.yaml"
    tiny_config(config)
    cfg = str(config)
    jacobi, backward = start_value(config, "jacobi"), start_value(config, "backward")
    workloads = [
        run.Workload("tiny-solve-policy", [["solve", "--config", cfg], ["policy", "--config", cfg]],
                     jacobi),
        run.Workload("tiny-verify", [["verify", "--config", cfg, "--sweep", "backward", "--seed", "3"]],
                     backward),
    ]
    for w in workloads:
        t0 = run.clock()
        reps = run.run_reps(w, ("plain", "spans", "profile"), ("plain", "spans"), 0.0, t0, work)
        check(len(reps) == 3 and run.count_failed(reps) == 0,
              f"{w.name}: three repetitions, none failed {[r.failures for r in reps]}")
        metrics, samples = run.end_to_end(reps)
        check(all(m["value"] > 0 for m in metrics.values()), f"{w.name}: end-to-end metrics positive")
        check(len(samples["wall_s"]) == 3, f"{w.name}: one wall_s sample per repetition")
        layers = run.per_layer(reps)
        check(set(layers) == set(run.LAYER_UNITS), f"{w.name}: every per-layer metric reported")
        check(layers["solver.sweeps"] > 0 and layers["solver.operator_builds"] > 0,
              f"{w.name}: spans saw the sweeps and operator builds")
        check(0.8 < layers["trace.coverage"] <= 1.0,
              f"{w.name}: set-up plus command spans cover the traced wall time")
    check(layers["grid.nearest_indices_calls"] > 0 and layers["simulate.estimate_s"] > 0,
          "tiny-verify: the profiled pass counted the Monte Carlo policy lookups")

    # a failing output check is a failed operation
    wrong = dataclasses.replace(workloads[0], name="tiny-wrong-value", start_value=jacobi + 1.0)
    rep = run.run_rep(wrong, "plain", work / "wrong", run.clock() + 60)
    check(any("start-node value" in f for f in rep.failures), "a wrong start-node value is reported")
    ok = run.run_rep(workloads[0], "plain", work / "ok", run.clock() + 60)
    check(run.count_failed([ok, rep, ok]) == 1, "the failed repetition is counted once")

    # so is a command that exits nonzero, here on a configuration it cannot read
    bad = run.Workload("tiny-bad-config", [["solve", "--config", str(work / "missing.yaml")]],
                       jacobi)
    rep = run.run_rep(bad, "plain", work / "bad", run.clock() + 60)
    check(any("exited 1" in f for f in rep.failures), "a nonzero exit is a failed operation")

    # and CSV outputs that change between repetitions
    reps = [ok, run.run_rep(workloads[0], "plain", work / "ok2", run.clock() + 60)]
    reps[1].csv_digests["value.csv"] = "0" * 64
    run.check_same_csv(reps)
    check(run.count_failed(reps) == 1, "CSV bytes that differ from the first repetition fail it")


def main() -> int:
    work = run.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        test_statistics()
        test_self_times()
        test_benchmark_json()
        test_tiny_workloads(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
