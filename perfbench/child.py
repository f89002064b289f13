"""Run one `oilopt` CLI command in this process and report what it did.

Usage: python3 child.py REPORT MODE -- OILOPT_ARGS...

MODE is one of
  plain    the command as a user runs it, plus two hooks whose cost is a
           few microseconds: the monotonic time at which `load_config`
           returns (the end of set-up) and the value field each `solve`
           returns (read at the simulation start node for the output check);
  spans    plain, plus a span around every call the command makes into the
           public functions named in SPANS;
  profile  plain, under cProfile with builtins=False.

The report is one JSON object written to REPORT after the command returns.
The process exits with the command's own exit code. The working directory's
`src` must hold the `oilopt` package; the caller puts it on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time

clock = time.monotonic  # CLOCK_MONOTONIC: comparable with the parent's clock

# (module, attribute path, span name): the public functions whose time a
# per-layer metric reports, and the calls inside them that a parent's self
# time must exclude. Module-level functions are replaced in every oilopt
# module that imported them by name, methods on their class.
# Grid4D.nearest_indices (one call per Monte Carlo step and chunk) and
# simulate_regime_chain (one call per path) are left to the profiled pass:
# a span around each of them would put the tracer's cost inside the Monte
# Carlo loop it is meant to time.
SPANS = [
    ("config", "load_config", "config.load_config"),
    ("quadrature", "build_quadrature", "quadrature.build_quadrature"),
    ("grid", "GridField.to_csv", "grid.GridField.to_csv"),
    ("solver", "solve", "solver.solve"),
    ("solver", "DiscreteOperator.__init__", "solver.DiscreteOperator.build"),
    ("solver", "DiscreteOperator.sweep", "solver.DiscreteOperator.sweep"),
    ("solver", "dpp_residual", "solver.dpp_residual"),
    ("policy", "switching_function", "policy.switching_function"),
    ("policy", "extract_policy", "policy.extract_policy"),
    ("policy", "curve_table", "policy.curve_table"),
    ("policy", "write_policy_csv", "policy.write_policy_csv"),
    ("policy", "write_curve_csv", "policy.write_curve_csv"),
    ("simulate", "estimate_value", "simulate.estimate_value"),
    ("verify", "run_verification", "verify.run_verification"),
    ("verify", "check_solution", "verify.check_solution"),
    ("cli", "main", "cli.main"),
]

# functions in the profiled pass: (file suffix, function name, report key, field)
PROFILED = [
    ("oilopt/grid.py", "nearest_indices", "nearest_indices_calls", "calls"),
    ("oilopt/grid.py", "_node_count", "node_count_calls", "calls"),
    ("oilopt/simulate.py", "_draw_path_inputs", "draw_s", "cumtime"),
    ("oilopt/simulate.py", "lookup", "lookup_s", "cumtime"),
]


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans, written out when the command ends.

    A span is [name, start, end, parent index, peak RSS at start, peak RSS
    at end]; the parent index is -1 for a span no other span encloses.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, _maxrss_mib(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][5] = _maxrss_mib()
                spans[idx][2] = clock()
            if after is not None:
                after(result, args)
            return result

        return traced


def _install_spans(tracer, extras):
    """Wrap every SPANS entry; `extras` collects numbers read off results."""
    import importlib

    from oilopt import cli

    modules = [m for name, m in sys.modules.items() if name == "oilopt" or name.startswith("oilopt.")]

    def note_operator(_, args):
        mats = [m for m in args[0].jump_mat if m is not None]
        if mats:
            extras.setdefault(
                "jump_fill", sum(int((m != 0).sum()) for m in mats) / sum(m.size for m in mats)
            )

    def note_sweep(_, args):
        extras.setdefault("sweep_field_shape", list(args[1].shape))

    def note_solve(result, args):
        extras.setdefault("solves", []).append(
            {"iterations": result[1].iterations, "sweep": result[1].sweep, "n_s": args[1].n_s}
        )

    def note_curve(result, _):
        extras["threshold_rows"] = len(result[0])

    def note_estimate(est, _):
        extras["price_clamps"] = est.diagnostics["total_price_clamps"]
        extras["path_steps"] = est.n_paths * est.diagnostics["n_steps"]

    after = {
        "solver.DiscreteOperator.build": note_operator,
        "solver.DiscreteOperator.sweep": note_sweep,
        "solver.solve": note_solve,
        "policy.curve_table": note_curve,
        "simulate.estimate_value": note_estimate,
    }
    for module_name, path, span in SPANS:
        owner = importlib.import_module(f"oilopt.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        traced = tracer.wrap(span, original, after.get(span))
        setattr(owner, attr, traced)
        if not isinstance(owner, type):
            # from-imports bind the same function object in other modules
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    # main() dispatches through this table, so each command function is
    # wrapped where main() finds it: its span is the command's top level
    for name, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[name] = tracer.wrap("cli.command", fn)


def _install_plain_hooks(report):
    """Record the end of set-up and the start-node value of every solve."""
    from oilopt import cli, verify

    load = cli.load_config

    def load_config(path):
        cfg = load(path)
        report.setdefault("config_loaded", clock())
        report["start"] = list(cfg.simulation.start)
        return cfg

    cli.load_config = load_config

    def capture(solve_fn):
        def solve(model, grid, cfg=None):
            field, conv = solve_fn(model, grid, cfg)
            # nearest node, as Grid4D.nearest_indices rounds it; that method
            # and the Grid4D size properties are not called here so that the
            # profiled pass counts only the program's own calls
            *coords, regime = report["start"]
            steps = (grid.time_step, grid.price_step, grid.reserve_step)
            node = [
                min(max(round(c / step), 0), n - 1)
                for c, step, n in zip(coords, steps, field.values.shape[1:])
            ]
            report["start_values"].append(float(field.values[(int(regime), *node)]))
            return field, conv
        return solve

    report["start_values"] = []
    cli.solve = capture(cli.solve)
    verify.solve = capture(verify.solve)


def _profiled_numbers(profile) -> dict:
    import pstats

    stats = pstats.Stats(profile).stats
    out = {key: 0 for _, _, key, _ in PROFILED}
    for (filename, _, funcname), (_, ncalls, _, cumtime, _) in stats.items():
        path = filename.replace("\\", "/")
        for suffix, name, key, field in PROFILED:
            if funcname == name and path.endswith(suffix):
                out[key] += ncalls if field == "calls" else cumtime
    return out


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    report_path, mode, oilopt_args = argv[0], argv[1], argv[3:]
    if mode not in ("plain", "spans", "profile"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 64
    from oilopt import cli

    report = {}
    tracer = extras = None
    if mode == "spans":
        tracer, extras = Tracer(), {}
        _install_spans(tracer, extras)
    _install_plain_hooks(report)
    if mode == "profile":
        import cProfile

        profile = cProfile.Profile(builtins=False)
        profile.enable()
        try:
            rc = cli.main(oilopt_args)
        finally:
            profile.disable()
        report["profiled"] = _profiled_numbers(profile)
    else:
        rc = cli.main(oilopt_args)
    if tracer is not None:
        report["spans"] = tracer.spans
        report["extras"] = extras
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
