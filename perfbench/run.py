"""The oilopt benchmark: CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition of a workload runs its `oilopt` commands one at a time, each
in a fresh process started through perfbench/child.py, and checks their
outputs. Repetitions run back to back (a closed loop, one client) until the
next one would end after S seconds; at least one always runs.

--trace 0 prints the end-to-end metrics (medians over repetitions).
--trace 1 runs untraced, span-traced and cProfile-profiled repetitions and
prints the per-layer metrics. README.md in this directory says why each
workload exists and which end-to-end metric each layer metric should move.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Inputs and outputs live under
.perfbench_work/ in the repository root, which is removed at exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

clock = time.monotonic  # the clock child.py stamps its set-up end with

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
REFERENCE = ROOT / "src" / "oilopt" / "configs" / "reference.yaml"
WORK = ROOT / ".perfbench_work"

# Runs are cut at this many seconds after start so the process exits within
# the 180 s a run is allowed.
DEADLINE_S = 165.0

# Value at the simulation start node (0, 50, 4, regime 0) produced by the
# solver at the commit that introduced this benchmark. A later solver must
# stay within 2x the configured tolerance of it, the repository's
# jacobi-vs-backward agreement rule.
START_VALUE_REFERENCE = 265.42418596936324
START_VALUE_FINE = 265.2781736045254


@dataclasses.dataclass
class Workload:
    name: str
    commands: list  # oilopt argument lists, without --out
    start_value: float  # expected value of every solve at the simulation start node


def make_workloads(reference: Path, fine: Path, seed: int) -> dict:
    ref, fin = str(reference), str(fine)
    return {
        w.name: w
        for w in (
            Workload(
                "ref-solve-policy",
                [["solve", "--config", ref], ["policy", "--config", ref]],
                START_VALUE_REFERENCE,
            ),
            Workload(
                "fine-backward-verify",
                [["verify", "--config", fin, "--sweep", "backward", "--skip-simulation"]],
                START_VALUE_FINE,
            ),
            Workload(
                "ref-mc-verify",
                [["verify", "--config", ref, "--sweep", "backward", "--seed", str(seed)]],
                START_VALUE_REFERENCE,
            ),
        )
    }


def write_fine_config(reference: Path, path: Path):
    """reference.yaml with the time, price and reserve steps halved."""
    import yaml

    with open(reference, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    for key in ("time_step", "price_step", "reserve_step"):
        data["grid"][key] = data["grid"][key] / 2.0
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


# -- statistics ----------------------------------------------------------------


def quartiles(values):
    """(first quartile, third quartile), as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children.

    Spans come from a stack, so the children of one span never overlap and
    their durations add up to the part of the parent they cover.
    """
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# -- one repetition -------------------------------------------------------------


@dataclasses.dataclass
class Rep:
    mode: str
    wall_s: float = 0.0  # sum over commands, process start to exit
    setup_s: float = 0.0  # sum over commands, process start to validated config
    solve_s: float = 0.0  # sum over commands of the manifest's run.wall_time_s
    peak_rss_mb: float = 0.0  # max over commands of the process's own peak RSS
    failures: list = dataclasses.field(default_factory=list)
    reports: list = dataclasses.field(default_factory=list)
    csv_digests: dict = dataclasses.field(default_factory=dict)
    csv_mb: dict = dataclasses.field(default_factory=dict)
    timed_out: bool = False


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(argv, mode, report_path, log_path, deadline):
    """One oilopt command in its own process.

    Returns (exit code or None if killed, wall seconds, this process's own
    peak RSS in MiB, spawn time). os.wait4 gives the rusage of exactly this
    child, so one workload's peak cannot carry into the next one's reading.
    """
    cmd = [sys.executable, str(CHILD), str(report_path), mode, "--", *argv]
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=log, stderr=log)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if proc.returncode < 0 else proc.returncode
    return code, wall, usage.ru_maxrss / 1024.0, t0


def _check_manifest(manifest, rep):
    run = manifest.get("run") or {}
    tol = manifest["solver"]["tolerance"]
    residual = run.get("final_residual")
    if residual is None or not residual < tol:
        rep.failures.append(f"final residual {residual} not below tolerance {tol}")
    rep.solve_s += run.get("wall_time_s", 0.0)
    for check in manifest.get("checks", []):
        if check["status"] not in ("pass", "skip"):
            rep.failures.append(f"verify check {check['name']}: {check['status']}: {check['detail']}")
    return tol


def run_rep(workload: Workload, mode: str, rep_dir: Path, deadline: float) -> Rep:
    """Run the workload's commands once and check every output."""
    rep = Rep(mode)
    out = rep_dir / "out"
    out.mkdir(parents=True, exist_ok=True)
    for i, argv in enumerate(workload.commands):
        report_path = rep_dir / f"report{i}.json"
        code, wall, rss, t0 = run_command(
            [*argv, "--out", str(out)], mode, report_path, rep_dir / f"log{i}.txt", deadline
        )
        rep.wall_s += wall
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        if code is None:
            rep.failures.append(f"{argv[0]} killed at the run deadline")
            rep.timed_out = True
            return rep
        if code != 0:
            log = (rep_dir / f"log{i}.txt").read_text(encoding="utf-8", errors="replace")
            rep.failures.append(f"{argv[0]} exited {code}: {log.strip()[-300:]}")
            continue
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            rep.failures.append(f"{argv[0]} left no readable report or manifest: {exc}")
            continue
        report["spawned"] = t0
        rep.reports.append(report)
        rep.setup_s += report["config_loaded"] - t0
        tol = _check_manifest(manifest, rep)
        expected = workload.start_value
        for value in report["start_values"]:
            if not abs(value - expected) <= 2.0 * tol:
                rep.failures.append(
                    f"start-node value {value!r} differs from {expected!r} by more than 2*{tol}"
                )
    for path in sorted(out.glob("*.csv")):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        rep.csv_digests[path.name] = digest.hexdigest()
        rep.csv_mb[path.name] = path.stat().st_size / 1e6
    return rep


def check_same_csv(reps):
    """Fail the latest repetition if its CSV bytes differ from the first's."""
    if reps[-1].csv_digests != reps[0].csv_digests:
        reps[-1].failures.append("CSV outputs differ from the first repetition's")


def count_failed(reps) -> int:
    """Operations failed: repetitions with a nonzero exit or a failed check."""
    return sum(1 for r in reps if r.failures)


def run_reps(workload: Workload, first, cycle, seconds: float, t_start: float, work: Path):
    """Repetitions in the modes `first` lists, then in the modes of `cycle`
    in turn while the next one is expected to end within `seconds`."""
    deadline = t_start + DEADLINE_S
    reps = []
    while True:
        n = len(reps)
        mode = first[n] if n < len(first) else cycle[(n - len(first)) % len(cycle)]
        rep_dir = work / f"{workload.name}-{n}"
        t0 = clock()
        rep = run_rep(workload, mode, rep_dir, deadline)
        shutil.rmtree(rep_dir, ignore_errors=True)
        reps.append(rep)
        check_same_csv(reps)
        expected_end = 2 * clock() - t0
        if rep.timed_out or expected_end > deadline:
            break
        if len(reps) >= len(first) and expected_end > t_start + seconds:
            break
    return reps


# -- metrics ------------------------------------------------------------------


def end_to_end(reps):
    ok = [r for r in reps if not r.failures] or reps
    metrics, samples = {}, {}
    for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MiB")):
        values = [getattr(r, name) for r in ok]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        samples[name] = values
    return metrics, samples


@dataclasses.dataclass
class SpanTotal:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    durations: list = dataclasses.field(default_factory=list)
    rss_growth_mb: float = 0.0


def _span_totals(rep) -> dict:
    """Span name -> SpanTotal over every command of one repetition."""
    totals = {}
    for report in rep.reports:
        spans = report["spans"]
        for (name, start, end, _, rss0, rss1), own in zip(spans, self_times(spans)):
            t = totals.setdefault(name, SpanTotal())
            t.calls += 1
            t.seconds += end - start
            t.self_seconds += own
            t.durations.append(end - start)
            t.rss_growth_mb += rss1 - rss0
    return totals


def _rep_layers(rep):
    """Per-layer numbers from one span-traced repetition, with its sweep
    durations and the swept field's shape."""
    totals = _span_totals(rep)
    none = SpanTotal()

    def total(*names):
        return sum(totals.get(n, none).seconds for n in names)

    def own(prefix):
        return sum(t.self_seconds for n, t in totals.items() if n.startswith(prefix))

    extras = {}
    solves = []
    for report in rep.reports:
        solves += report["extras"].get("solves", [])
        extras.update(report["extras"])
    sweeps = totals.get("solver.DiscreteOperator.sweep", none).durations
    shape = extras.get("sweep_field_shape")
    backward = [s["iterations"] / (s["n_s"] - 1) for s in solves if s["sweep"] == "backward"]
    estimate_s = total("simulate.estimate_value")
    covered = sum(r["config_loaded"] - r["spawned"] for r in rep.reports) + total("cli.command")
    layers = {
        "config.load_s": total("config.load_config"),
        "quadrature.build_s": total("quadrature.build_quadrature"),
        "solver.operator_build_s": total("solver.DiscreteOperator.build"),
        "solver.operator_builds": totals.get("solver.DiscreteOperator.build", none).calls,
        "solver.sweeps": len(sweeps),
        "solver.self_s": own("solver.solve"),
        "solver.jump_fill": extras.get("jump_fill", 0.0),
        "solver.iterations": sum(s["iterations"] for s in solves),
        "solver.inner_per_slice": statistics.fmean(backward) if backward else 0.0,
        "solver.residual_s": total("solver.dpp_residual"),
        "verify.check_solution_s": total("verify.check_solution"),
        "verify.self_s": own("verify."),
        "grid.csv_s": total("grid.GridField.to_csv"),
        "grid.csv_mb": rep.csv_mb.get("value.csv", 0.0),
        "policy.csv_s": total("policy.write_policy_csv", "policy.write_curve_csv"),
        "policy.csv_mb": rep.csv_mb.get("policy.csv", 0.0) + rep.csv_mb.get("switching_curve.csv", 0.0),
        "cli.self_s": own("cli."),
        "policy.switching_s": total("policy.switching_function"),
        "policy.extract_s": total("policy.extract_policy"),
        "policy.curve_s": total("policy.curve_table"),
        "policy.threshold_rows": extras.get("threshold_rows", 0),
        "simulate.estimate_s": estimate_s,
        "simulate.path_steps_per_s": extras.get("path_steps", 0) / estimate_s if estimate_s else 0.0,
        "simulate.rss_growth_mb": totals.get("simulate.estimate_value", none).rss_growth_mb,
        "simulate.price_clamps": extras.get("price_clamps", 0),
        "trace.coverage": covered / rep.wall_s,
    }
    return layers, sweeps, shape


def per_layer(reps) -> dict:
    ok = [r for r in reps if not r.failures] or reps
    plain = [r.wall_s for r in ok if r.mode == "plain"]
    traced = [r for r in ok if r.mode == "spans"]
    profiled = [r for r in ok if r.mode == "profile"]
    if not plain or not traced:
        raise RuntimeError("no untraced and span-traced repetitions to compare")
    rows = [_rep_layers(r) for r in traced]
    layers = {k: statistics.median([row[0][k] for row in rows]) for k in rows[0][0]}
    sweeps = [d for row in rows for d in row[1]]
    shape = rows[0][2]
    sweep_s = statistics.median(sweeps) if sweeps else 0.0
    layers["solver.sweep_s"] = sweep_s
    if shape:
        m, n_s, n_x, n_y = shape
        layers["solver.node_updates_per_s"] = m * (n_s - 1) * n_x * n_y / sweep_s
        # one float64 read and one written per node; computed from array sizes
        layers["solver.sweep_mb_computed"] = 2 * 8 * m * n_s * n_x * n_y / 1e6
    else:
        layers["solver.node_updates_per_s"] = layers["solver.sweep_mb_computed"] = 0.0
    layers["trace.overhead_s"] = statistics.median([r.wall_s for r in traced]) - statistics.median(plain)
    prof = profiled[0].reports if profiled else []
    for key in ("nearest_indices_calls", "node_count_calls"):
        layers[f"grid.{key}"] = sum(r["profiled"][key] for r in prof)
    for key in ("draw_s", "lookup_s"):
        layers[f"simulate.{key}"] = sum(r["profiled"][key] for r in prof)
    layers["profile.overhead_pct"] = (
        100.0 * (profiled[0].wall_s / statistics.median(plain) - 1.0) if profiled else 0.0
    )
    return layers


# name -> unit; every name is a per_layer entry of BENCHMARK.json. Units with
# "_profiled" come from the cProfile pass, whose own cost inflates them.
LAYER_UNITS = {
    "config.load_s": "s",
    "quadrature.build_s": "s",
    "solver.operator_build_s": "s",
    "solver.operator_builds": "count",
    "solver.sweep_s": "s",
    "solver.sweeps": "count",
    "solver.self_s": "s",
    "solver.node_updates_per_s": "1/s",
    "solver.sweep_mb_computed": "MB",
    "solver.jump_fill": "ratio",
    "solver.iterations": "count",
    "solver.inner_per_slice": "count",
    "solver.residual_s": "s",
    "verify.check_solution_s": "s",
    "verify.self_s": "s",
    "grid.csv_s": "s",
    "grid.csv_mb": "MB",
    "policy.csv_s": "s",
    "policy.csv_mb": "MB",
    "cli.self_s": "s",
    "policy.switching_s": "s",
    "policy.extract_s": "s",
    "policy.curve_s": "s",
    "policy.threshold_rows": "count",
    "simulate.estimate_s": "s",
    "simulate.path_steps_per_s": "1/s",
    "simulate.rss_growth_mb": "MiB",
    "simulate.price_clamps": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "grid.nearest_indices_calls": "count",
    "grid.node_count_calls": "count",
    "simulate.draw_s": "s_profiled",
    "simulate.lookup_s": "s_profiled",
    "profile.overhead_pct": "%",
}


def _print_reps(reps):
    for i, r in enumerate(reps):
        status = "ok" if not r.failures else "FAILED: " + "; ".join(r.failures)
        print(
            f"rep {i} [{r.mode}] wall {r.wall_s:.3f} s, setup {r.setup_s:.3f} s, "
            f"solve {r.solve_s:.3f} s, peak RSS {r.peak_rss_mb:.1f} MiB: {status}"
        )


def _print_end_to_end(metrics, samples):
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
    for name, m in metrics.items():
        q1, q3 = quartiles(samples[name])
        print(f"{name:<14}{m['value']:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(samples[name]):>4}  {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = clock()
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE.relative_to(ROOT)} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        fine = WORK / "fine.yaml"
        write_fine_config(REFERENCE, fine)
        workloads = make_workloads(REFERENCE, fine, args.seed)
        if args.workload not in workloads:
            print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads)}",
                  file=sys.stderr)
            return 2
        # untimed: byte-compile the package so no repetition pays for it
        subprocess.run([sys.executable, "-c", "import oilopt.cli"], cwd=ROOT, env=_child_env(),
                       check=True)
        first, cycle = (("plain", "spans", "profile"), ("plain", "spans")) if args.trace else (
            ("plain",), ("plain",))
        reps = run_reps(workloads[args.workload], first, cycle, args.seconds, t_start, WORK)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    _print_reps(reps)
    failed = count_failed(reps)
    if not args.trace:
        metrics, samples = end_to_end(reps)
        _print_end_to_end(metrics, samples)
    else:
        try:
            layers = per_layer(reps)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"{name:<28}{m['value']:>16.6g}  {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
