"""Command-line front end.

Subcommands: solve (value field + convergence trace), policy (switching
function, bang-bang policy, threshold curve), simulate (Monte Carlo payoff
under the extracted policy), verify (the self-check suite).

Exit codes: 0 on success, 1 for configuration problems (bad YAML, bad keys,
invalid model or grid, an --out that cannot be a directory, an output file
that cannot be written), 2 for numerical failures (contraction violation,
divergence, failed verification checks).

Output files are deterministic for a fixed configuration and seed; the run
manifest (manifest.json) additionally carries wall-clock timings and is the
only output that may differ between identical runs.

solve stores the value field twice: value.csv, the exact human-readable
export, and value.npy, its float64 bytes. policy and simulate load the
field from value.npy instead of solving when the manifest in --out records
that solve wrote both files for the same settings and the field passes the
balance check at the tolerance (see _value_field); verify always solves.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import zlib
from pathlib import Path
from tokenize import TokenError

import numpy as np

from . import __version__, solver
from .config import RunConfig, load_config
from .errors import ConfigError, NumericalError
from .grid import GridField, output_handle, write_rows
from .policy import bang_bang_policy, curve_table, write_curve_csv, write_policy_csv
from .simulate import check_record
from .solver import ConvergenceReport, DiscreteOperator, dpp_residual, solve
from .verify import MC_DISCRETIZATION_CONSTANT, run_verification, simulation_gap


# flag -> (RunConfig section, field, argparse keywords); every command takes
# the solver flags, simulate and verify the simulation ones too
_OVERRIDES = {
    "--mode": ("solver", "mode", dict(choices=["upwind", "paper_faithful"],
                                      help="override the spatial stencil")),
    "--sweep": ("solver", "sweep", dict(choices=["jacobi", "backward"],
                                        help="override the iteration order")),
    "--tolerance": ("solver", "tolerance",
                    dict(type=float, help="override the convergence tolerance")),
    "--seed": ("simulation", "seed", dict(type=int, help="override the RNG seed")),
    "--paths": ("simulation", "n_paths", dict(type=int, help="override the path count")),
    "--dt": ("simulation", "dt", dict(type=float, help="override the Euler step")),
}


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    updates = {}
    for flag, (section, name, _) in _OVERRIDES.items():
        value = getattr(args, flag[2:], None)
        if value is not None:
            updates.setdefault(section, {})[name] = value
    if not updates:
        return cfg
    return dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section), **kw)
                                       for section, kw in updates.items()})


def _settings(cfg: RunConfig) -> dict:
    """The manifest keys a stored value field must match to be reused."""
    return {
        "package_version": __version__,
        "config": cfg.raw,
        "grid_shape": list(cfg.grid.shape),
        "solver": dataclasses.asdict(cfg.solver),
    }


def _provenance() -> dict:
    """numpy and the BLAS it was built with. The jump products' last bits may
    depend on the BLAS, but a stored field is checked by its residual, so
    these are recorded, not matched (they are not _settings)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy_version": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version")}


def _manifest(cfg: RunConfig, args, report=None, extra=None, stored=None) -> dict:
    """`stored` holds the value_csv and value_npy records of a reused field."""
    data = {
        **_settings(cfg),
        "provenance": _provenance(),
        "command": args.command,
        "config_path": str(args.config),
        "simulation": dataclasses.asdict(cfg.simulation),
    }
    if stored is not None:
        data.update(stored)
    if report is not None:
        data["run"] = {
            "value_field": "solved" if stored is None else "value.npy",
            "converged": report.final_residual < cfg.solver.tolerance,
            "iterations": report.iterations,
            "final_residual": report.final_residual,
            "mode": report.mode,
            "sweep": report.sweep,
            "contraction_value": report.contraction.value,
            "wall_time_s": report.wall_time,
            "sweep_workers": report.sweep_workers,  # processes the solve's sweeps ran on
            "partner_wait_s": report.partner_wait_s,  # seconds its sweeps waited for a partner
            "sweep_block": solver.sweep_block(cfg.grid),  # time slices per sweep task
            "jump_band_share": report.jump_band_share,
            "slice_updates": report.slice_updates,  # (regime, slice) updates the solve computed
        }
        if report.slices:  # backward: inner passes per time slice
            passes = [p for p, _ in report.slices]
            data["run"]["passes_per_slice"] = {
                "min": min(passes), "mean": sum(passes) / len(passes), "max": max(passes),
            }
    if extra:
        data.update(extra)
    return data


def _write_manifest(out_dir: Path, data: dict):
    path = out_dir / "manifest.json"
    with output_handle(path) as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_convergence(out_dir: Path, report):
    """jacobi: one row per sweep; backward: one row per time slice."""
    path = out_dir / "convergence.csv"
    if report.slices:
        write_rows(path, ("slice", "passes", "last_change"),
                   ((t, passes, change) for t, (passes, change) in enumerate(report.slices)))
    else:
        write_rows(path, ("iteration", "residual"), enumerate(report.residuals, start=1))
    return path


def _timed_write(write, *args) -> dict:
    """The manifest's csv_writes record of one node CSV: the seconds the
    write took and the processes that formatted it (write's return value)."""
    t0 = time.perf_counter()
    workers = write(*args)
    return {"seconds": time.perf_counter() - t0, "workers": workers}


def _file_record(path: Path) -> dict:
    """The manifest record of a file: its CRC-32, read in 1 MiB blocks, and size."""
    crc = size = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            crc = zlib.crc32(block, crc)
            size += len(block)
    return {"crc32": crc, "bytes": size}


def _stored_records(out_dir: Path) -> dict:
    """The value_csv and value_npy records of the two files solve stores."""
    return {f"value_{ext}": _file_record(out_dir / f"value.{ext}") for ext in ("csv", "npy")}


def _value_field(cfg: RunConfig, out_dir: Path):
    """(field, report, records): the field a solve left in out_dir, with the
    value_csv and value_npy records, or a fresh solve (records None) when
    that field may not be used.

    It is loaded from value.npy only when the manifest there names this
    command's package version, YAML config, grid shape and solver settings
    (after the flags), value.csv and value.npy still have the CRC-32 and
    size it records, value.npy holds a float64 array of the grid's shape
    (no pickles), and one dpp_residual sweep of this command's operator over
    that field stays below the tolerance: the field then solves this
    operator at this tolerance, whatever wrote it. Its report counts 0
    iterations and carries that residual, the seconds that sweep waited for
    its partner process and the time spent here.
    """
    t0 = time.perf_counter()
    field = None
    try:
        with open(out_dir / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        own = json.loads(json.dumps(_settings(cfg)))  # as the manifest holds it
        records = _stored_records(out_dir)
        if all(manifest[key] == value for key, value in {**own, **records}.items()):
            values = np.load(out_dir / "value.npy", allow_pickle=False)
            if values.dtype == np.float64:
                field = GridField(cfg.grid, values)  # ValueError for another shape
    # np.load: EOFError for an empty file, TokenError for a header it cannot read
    except (OSError, ValueError, KeyError, TypeError, EOFError, TokenError):
        pass  # no usable field: solve
    if field is not None:
        op = DiscreteOperator(cfg.model, cfg.grid, cfg.solver)
        residual, _ = dpp_residual(field, op)
        if residual < cfg.solver.tolerance:
            report = ConvergenceReport(
                iterations=0, final_residual=residual, mode=cfg.solver.mode,
                sweep=cfg.solver.sweep, contraction=op.contraction,
                wall_time=time.perf_counter() - t0, operator=op,
                jump_band_share=op.jump_band_share, partner_wait_s=op.partner_wait_s,
            )
            return field, report, records
    return (*solve(cfg.model, cfg.grid, cfg.solver), None)


def _cap_warning(cfg, rows) -> int:
    """Warn about, and return the count of, threshold rows within one price
    step of the cap."""
    cap = cfg.grid.x_values[-1]
    h = cfg.grid.price_step
    near = sum(1 for r in rows if r[3] is not None and r[3] >= cap - h)
    if near:
        print(
            f"warning: extraction threshold within one price step of the cap "
            f"{cap} in {near} rows; the cap may be distorting the policy",
            file=sys.stderr,
        )
    return near


def _cmd_solve(cfg: RunConfig, args, out_dir: Path) -> int:
    field, report = solve(cfg.model, cfg.grid, cfg.solver)
    csv_writes = {"value.csv": _timed_write(field.to_csv, out_dir / "value.csv")}
    with output_handle(out_dir / "value.npy", binary=True) as fh:
        np.save(fh, field.values)
    _write_convergence(out_dir, report)
    extra = {**_stored_records(out_dir), "csv_writes": csv_writes}
    _write_manifest(out_dir, _manifest(cfg, args, report, extra))
    print(
        f"solved {tuple(cfg.grid.shape)} in {report.iterations} iterations "
        f"(residual {report.final_residual:.3g}, {report.wall_time:.1f}s) -> {out_dir}"
    )
    return 0


def _cmd_policy(cfg: RunConfig, args, out_dir: Path) -> int:
    field, report, stored = _value_field(cfg, out_dir)
    rows, flagged = curve_table(field, report.operator)
    near_cap = _cap_warning(cfg, rows)
    if flagged:
        print(
            f"warning: {len(flagged)} rows show multiple threshold crossings",
            file=sys.stderr,
        )
    csv_writes = {"policy.csv": _timed_write(write_policy_csv, field, report.operator,
                                             out_dir / "policy.csv")}
    write_curve_csv(rows, out_dir / "switching_curve.csv")
    extra = {"threshold_rows": len(rows), "threshold_rows_near_cap": near_cap,
             "csv_writes": csv_writes}
    _write_manifest(out_dir, _manifest(cfg, args, report, extra, stored))
    print(
        f"policy extracted on {tuple(cfg.grid.shape)} -> {out_dir} "
        f"({len(rows)} threshold rows, {len(flagged)} flagged)"
    )
    return 0


def _cmd_simulate(cfg: RunConfig, args, out_dir: Path) -> int:
    sim = cfg.simulation
    check_record(cfg.model, sim.start, sim.n_paths, sim.dt, sim.antithetic,
                 args.record, sim.seed)  # before the solve
    field, report, stored = _value_field(cfg, out_dir)
    t0 = time.perf_counter()
    policy = bang_bang_policy(field, report.operator)
    report.operator = None  # the Monte Carlo reads only the policy
    est, v_grid, gap = simulation_gap(cfg, field, policy, record=args.record)
    mc_wall = time.perf_counter() - t0
    if est.paths:
        rows = ((p, *row) for p, rec in enumerate(est.paths) for row in zip(
            *(c.tolist() for c in (rec.times, rec.x, rec.y, rec.regime, rec.u,
                                   rec.discounted_profit))))
        write_rows(out_dir / "paths.csv",
                   ("path", "t", "x", "y", "regime", "u", "discounted_profit"), rows)
    estimate = {f.name: getattr(est, f.name) for f in dataclasses.fields(est) if f.name != "paths"}
    estimate.update(grid_value_at_start=v_grid, gap=gap, wall_time_s=mc_wall)
    _write_manifest(out_dir, _manifest(cfg, args, report, {"estimate": estimate}, stored))
    print(
        f"simulated {est.n_paths} paths: mean {est.mean:.4f} (SE {est.std_error:.4f}), "
        f"grid value {v_grid:.4f}, gap {gap:.4f} -> {out_dir}"
    )
    return 0


def _cmd_verify(cfg: RunConfig, args, out_dir: Path) -> int:
    results, field, report = run_verification(cfg, skip_simulation=args.skip_simulation)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {r.status.upper():<4}  {r.detail}")
    failed = [r for r in results if r.status == "fail"]
    extra = {
        "mc_constant": MC_DISCRETIZATION_CONSTANT,
        "checks": [
            {"name": r.name, "status": r.status, "detail": r.detail, "value": r.value}
            for r in results
        ],
    }
    _write_manifest(out_dir, _manifest(cfg, args, report, extra))
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} checks passed or skipped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oilopt",
        description="Finite-horizon optimal extraction under a regime-switching "
        "jump-diffusion price: grid solver, policy extraction, Monte Carlo checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sim_flags=False):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        for flag, (section, _, kw) in _OVERRIDES.items():
            if sim_flags or section == "solver":
                p.add_argument(flag, **kw)

    common(sub.add_parser("solve", help="solve the balance equation, dump the value field"))
    common(sub.add_parser("policy", help="extract the bang-bang policy and threshold curve"))
    sim = sub.add_parser("simulate", help="Monte Carlo payoff under the extracted policy")
    common(sim, sim_flags=True)
    sim.add_argument("--record", type=int, default=5,
                     help="number of fully recorded paths in paths.csv (default 5)")
    ver = sub.add_parser("verify", help="run the self-check suite")
    common(ver, sim_flags=True)
    ver.add_argument("--skip-simulation", action="store_true",
                     help="skip the Monte Carlo check")
    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "policy": _cmd_policy,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, a file on the path, no permission
            raise ValueError(f"cannot use --out {out_dir} as a directory: {exc.strerror}") from None
        return _COMMANDS[args.command](cfg, args, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reads are handled where they happen: a named file is an output
        if exc.filename is None:
            raise
        print(f"cannot write output: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
