"""Self-checks over a solved run: the pieces the CLI `verify` command runs.

Each check returns a CheckResult with status "pass", "fail", or "skip"
(skip = preconditions not met, e.g. no closed form for this model). The
checks read the solved field, not the solver's iterates: they apply the
operator to that field, re-integrate the measure, and re-price by
simulation. The backward balance residual is the solve's own closing
dpp_residual call on the field it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import NumericalError
from .policy import bang_bang_policy, curve_table
from .quadrature import build_quadrature, check_contraction
from .simulate import analytic_oracle, check_record, estimate_value
from .solver import dpp_residual, solve

# Frozen allowance multiplier for the simulation cross-check: the accepted
# gap is 3*SE + MC_DISCRETIZATION_CONSTANT*(h + k + l). Calibrated once on
# the shipped reference configuration and left alone since.
MC_DISCRETIZATION_CONSTANT = 0.25


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str
    value: float | None = None


def check_quadrature(cfg: RunConfig) -> list[CheckResult]:
    """Weight families must reproduce the measure's mass and symmetry."""
    measure = cfg.model.measure
    out = []
    scheme = build_quadrature(measure, cfg.solver.xi, cfg.solver.truncation)
    gamma = measure.total_mass
    if gamma > 0:
        rel = abs(scheme.weight_sum - gamma * (1.0 - scheme.truncated_fraction)) / gamma
        out.append(
            CheckResult(
                "quadrature-mass",
                "pass" if rel < 1e-3 else "fail",
                f"weight sum {scheme.weight_sum:.6g} vs mass {gamma:.6g} "
                f"(truncated fraction {scheme.truncated_fraction:.3g}), rel err {rel:.3g}",
                rel,
            )
        )
    else:
        out.append(CheckResult("quadrature-mass", "skip", "zero-mass measure"))
    contraction = check_contraction(scheme, cfg.model.dynamics.discount_rate)
    out.append(
        CheckResult(
            "contraction",
            "pass" if contraction.passed else "fail",
            f"|weight sum - mass| / r = {contraction.value:.6g} (must be < 1)",
            contraction.value,
        )
    )
    return out


def check_solution(cfg: RunConfig, field, report) -> list[CheckResult]:
    out = [
        CheckResult(
            "convergence",
            "pass" if report.final_residual < cfg.solver.tolerance else "fail",
            f"{report.iterations} iterations, final residual {report.final_residual:.3g} "
            f"(tolerance {cfg.solver.tolerance:.3g}, sweep {report.sweep})",
            report.final_residual,
        )
    ]
    # jacobi's last residual measures the previous iterate, so it stores none
    mismatch, info = report.balance or dpp_residual(field, report.operator)
    bound = 10.0 * cfg.solver.tolerance
    out.append(
        CheckResult(
            "balance-residual",
            "pass" if mismatch <= bound else "fail",
            f"max one-step mismatch {mismatch:.3g} over all {info['nodes']} nodes "
            f"(bound {bound:.3g}); worst node {info['node']}",
            mismatch,
        )
    )
    # terminal slice must equal the settlement exactly
    from .model import terminal_value

    g = cfg.grid
    psi = terminal_value(cfg.model, g.x_values[:, None], g.y_values[None, :])
    exact = all(
        np.array_equal(field.values[m, g.n_s - 1], psi) for m in range(cfg.model.n_regimes)
    )
    out.append(
        CheckResult(
            "terminal-slice",
            "pass" if exact else "fail",
            "terminal slice equals the settlement payoff exactly"
            if exact
            else "terminal slice deviates from the settlement payoff",
        )
    )
    return out


def check_policy_structure(cfg: RunConfig, field, op) -> list[CheckResult]:
    """Bang-bang audit: at most one upward sign change per (s, y, regime) row
    of the report slices' switching field."""
    rows, flagged = curve_table(field, op)
    if flagged:
        worst = flagged[0]
        detail = (
            f"{len(flagged)} rows with multiple threshold crossings, first at "
            f"s_idx={worst.s_idx} y_idx={worst.y_idx} regime={worst.regime}"
        )
        return [CheckResult("single-threshold", "fail", detail, float(len(flagged)))]
    n_defined = sum(1 for r in rows if r[3] is not None)
    return [
        CheckResult(
            "single-threshold",
            "pass",
            f"{len(rows)} (time, reserve, regime) rows audited, "
            f"{n_defined} with a threshold in range, none with multiple crossings",
            0.0,
        )
    ]


def check_oracle(cfg: RunConfig, field) -> list[CheckResult]:
    """Compare against the closed form when the model admits one."""
    g = cfg.grid
    xs = g.x_values
    lo = np.searchsorted(xs, 0.1 * xs[-1])
    hi = np.searchsorted(xs, 0.9 * xs[-1], side="right")
    err = scale = 0.0
    for si, s in enumerate(g.s_values[:-1]):
        try:  # a model without a closed form raises at the first slice
            exact = analytic_oracle(cfg.model, s, xs[lo:hi, None], g.y_values)
        except ValueError as exc:
            return [CheckResult("closed-form", "skip", str(exc))]
        err = max(err, float(np.max(np.abs(field.values[0, si, lo:hi] - exact))))
        scale = max(scale, float(np.max(np.abs(exact))))
    rel = err / scale if scale > 0 else err
    return [
        CheckResult(
            "closed-form",
            "pass" if rel < 0.02 else "fail",
            f"sup error {err:.4g} on scale {scale:.4g} over the interior "
            f"(relative {rel:.3g}, bound 0.02)",
            rel,
        )
    ]


def simulation_gap(cfg: RunConfig, field, policy, record: int = 0):
    """Monte Carlo estimate under `policy`, the bang-bang policy read off the
    solved field (bang_bang_policy), against the grid value at the simulation
    start node. Returns (estimate, grid value, gap)."""
    sim = cfg.simulation
    est = estimate_value(cfg.model, policy, sim.start, sim.n_paths,
                         sim.dt, sim.seed, antithetic=sim.antithetic, record=record)
    si, xi, yi = cfg.grid.nearest_indices(*sim.start[:3])
    v_grid = float(field.values[sim.start[3], si, xi, yi])
    return est, v_grid, abs(est.mean - v_grid)


def check_monte_carlo(cfg: RunConfig, field, policy) -> list[CheckResult]:
    """Simulated payoff under the bang-bang policy vs the grid value.

    The allowance is 3*SE + MC_DISCRETIZATION_CONSTANT*(h + k + l):
    statistical noise plus a first-order discretization budget.
    """
    est, v_grid, gap = simulation_gap(cfg, field, policy)
    g = cfg.grid
    allowance = 3.0 * est.std_error + MC_DISCRETIZATION_CONSTANT * (
        g.price_step + g.time_step + g.reserve_step
    )
    return [
        CheckResult(
            "simulation-gap",
            "pass" if gap <= allowance else "fail",
            f"grid {v_grid:.4f} vs simulated {est.mean:.4f} (SE {est.std_error:.4f}), "
            f"gap {gap:.4f} <= allowance {allowance:.4f} "
            f"[3*SE + {MC_DISCRETIZATION_CONSTANT}*(h+k+l)], {est.n_paths} paths",
            gap,
        )
    ]


def run_verification(cfg: RunConfig, skip_simulation: bool = False):
    """Full check sequence. Returns (results, field, report). Invalid
    simulation inputs raise ValueError before the solve, skipped or not.
    The Monte Carlo check reads only the policy array, so the report's
    operator is dropped before it (report.operator is then None)."""
    sim = cfg.simulation
    check_record(cfg.model, sim.start, sim.n_paths, sim.dt, sim.antithetic)
    results = check_quadrature(cfg)
    if any(r.status == "fail" for r in results):
        return results, None, None
    try:
        field, report = solve(cfg.model, cfg.grid, cfg.solver)
    except NumericalError as exc:
        results.append(CheckResult("convergence", "fail", str(exc)))
        return results, None, None
    op = report.operator
    results += (check_solution(cfg, field, report) + check_policy_structure(cfg, field, op)
                + check_oracle(cfg, field))
    if skip_simulation:
        results.append(CheckResult("simulation-gap", "skip", "disabled by flag"))
    else:
        policy = bang_bang_policy(field, op)
        op = report.operator = None  # the Monte Carlo, which sets the peak, reads only the policy
        results += check_monte_carlo(cfg, field, policy)
    return results, field, report
