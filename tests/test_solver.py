"""Solver unit tests: coefficients, invariants, convergence, mode agreement."""

import dataclasses
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import (column_base_block, column_best_candidate, dense_base_block,
                      leaves_nothing, per_slice_sweep, split_sweeps, traced_peak)

from oilopt import (
    ConfigError,
    ConvergenceError,
    DiscreteOperator,
    Dynamics,
    Economics,
    GridField,
    LevyMeasure,
    MarketModel,
    MonotonicityError,
    NumericalError,
    SolverConfig,
    analytic_oracle,
    build_grid,
    build_quadrature,
    dpp_residual,
    profit_rate,
    solve,
)
from oilopt import fork, solver
from oilopt.config import load_config, parse_config

REFERENCE = Path(__file__).resolve().parents[1] / "src" / "oilopt" / "configs" / "reference.yaml"

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(autouse=True)
def no_child_left():
    """Every split solve and split residual reaps its second process and
    closes its pipes."""
    if not hasattr(os, "fork"):
        yield
        return
    with leaves_nothing():
        yield


def processes(n):
    """A parameter of 1 or 2 processes; 2 needs os.fork."""
    return pytest.param(n, marks=needs_fork if n == 2 else ())


def recorded_pids(monkeypatch, tmp_path, owner, name, when=lambda *args: True):
    """Patch owner.name to note this process's pid in a file before each call
    for which when(*args) holds, whichever process makes it; returns a
    function that reads the pids back, one per noted call."""
    log = tmp_path / f"{name}.pids"
    log.touch()
    real = getattr(owner, name)

    def noting(*args, **kwargs):
        if when(*args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, noting)
    return lambda: [int(pid) for pid in log.read_text(encoding="utf-8").split()]


def single_regime_model(u_max=0.0, fixed_cost=0.0, kappa=0.01, sigma=0.2,
                        horizon=1.0, measure=None, jump_scale=0.0):
    dyn = Dynamics(kappa=kappa, mu=(55.0,), sigma=(sigma,), jump_scale=(jump_scale,),
                   discount_rate=0.05)
    eco = Economics(fixed_cost=fixed_cost, marginal_cost=20.0, reserve_slope=0.0,
                    reserve_offset=1.0, u_max=u_max, reserve_capacity=10.0,
                    horizon=horizon, terminal_offset=20.0)
    return MarketModel(generator=np.array([[0.0]]), dynamics=dyn, economics=eco,
                       measure=measure or LevyMeasure.null())


def reference_model(horizon=2.0, u_max=50000.0):
    dyn = Dynamics(kappa=0.01, mu=(55.0, 35.0), sigma=(0.2, 0.3),
                   jump_scale=(0.1, 0.1), discount_rate=0.05)
    eco = Economics(fixed_cost=5.0, marginal_cost=20.0, reserve_slope=0.0,
                    reserve_offset=1.0, u_max=u_max, reserve_capacity=10.0,
                    horizon=horizon, terminal_offset=20.0)
    return MarketModel(generator=np.array([[-0.01, 0.01], [0.15, -0.15]]),
                       dynamics=dyn, economics=eco,
                       measure=LevyMeasure.uniform(1.0, 0.5))


def small_grid(horizon=1.0, price_cap=100.0, k=0.1, h=0.5, l=0.5, n_regimes=1):
    return build_grid(horizon=horizon, price_cap=price_cap, reserve_capacity=10.0,
                      time_step=k, price_step=h, reserve_step=l, n_regimes=n_regimes)


def blas_threaded_grid():
    """Two regimes and 401 price nodes: OpenBLAS threaded the dense jump
    product on this grid."""
    return build_grid(horizon=1.0, price_cap=100.0, reserve_capacity=10.0, time_step=0.1,
                      price_step=0.25, reserve_step=0.5, n_regimes=2)


def block_budget(grid, slices):
    """The SWEEP_BLOCK_BYTES that gives `grid` blocks of `slices` time slices."""
    return slices * grid.n_x * grid.n_y * 8


class TestCoefficients:
    """Frozen hand-computed weights: sigma=0.2, r=0.05, h=0.5, kappa=0.01, mu=55.

    Read off the operator's (regime, price node, reserve node) planes at
    reserve node 0; node 70 is x = 35
    and node 120 is x = 60. The paper-faithful stencil needs a > 0, which
    holds for x < 59, so its grid stops at 57.5.
    """

    @staticmethod
    def operator(mode, price_cap=100.0):
        grid = small_grid(price_cap=price_cap)
        return DiscreteOperator(single_regime_model(), grid, SolverConfig(mode=mode))

    def test_diffusion_weight(self):
        op = self.operator("paper_faithful", price_cap=57.5)
        np.testing.assert_allclose(op.b_plane, 1.6)

    def test_drift_boosted_up_weight(self):
        op = self.operator("paper_faithful", price_cap=57.5)
        # 1.6 + 0.01*(55-35)/(0.05*0.5)
        assert op.a_plane[0, 70, 0] == pytest.approx(9.6)

    def test_negative_weight_raises_with_step_bound(self):
        # the first node with a <= 0 is x = 59.5: a = 1.6 - 0.4*4.5 = -0.2
        with pytest.raises(MonotonicityError, match=r"h < sigma\^2") as err:
            self.operator("paper_faithful")
        msg = str(err.value)
        assert "x=59.5, regime 0: a=-0.2, b=1.6" in msg
        assert "= 0.444444" in msg  # 0.2^2 / (2*0.01*4.5)

    def test_negative_weight_bound_includes_the_compensator(self):
        """One small jump atom z = 0.5 of mass 1 at gamma = 0.1 adds the
        compensator 0.05x: the drift is 0.55 - 0.06x, so the first node with
        a <= 0 is x = 10: a = 1.6 + (0.55 - 0.6)/0.025 = -0.4."""
        model = single_regime_model(measure=LevyMeasure.atoms([(0.5, 1.0)]), jump_scale=0.1)
        with pytest.raises(MonotonicityError, match=r"h < sigma\^2") as err:
            DiscreteOperator(model, small_grid(), SolverConfig(mode="paper_faithful"))
        msg = str(err.value)
        assert "x=10, regime 0: a=-0.4, b=1.6" in msg
        assert "= 0.4," in msg and "= -0.05" in msg  # 0.2^2 / (2*0.05)

    def test_paper_faithful_control_cap_raises_numerical_error(self):
        """Coefficients that pass the sign check still leave the forward
        reserve difference's weight -u/(rl) on V(y + l) negative for every
        u > 0, so the build refuses u_max = 50000 with a MonotonicityError
        (a NumericalError) naming that weight, its value and the control."""
        model = single_regime_model(u_max=50000.0)
        with pytest.raises(MonotonicityError) as err:
            DiscreteOperator(model, small_grid(price_cap=57.5),
                             SolverConfig(mode="paper_faithful"))
        assert isinstance(err.value, NumericalError)
        assert str(err.value) == (
            "paper-faithful reserve stencil puts the weight -u/(rl) = -2e+06 on V(y + l) "
            "at u=50000; it is monotone only for u_max = 0"
        )

    def test_upwind_splits_drift_by_sign(self):
        op = self.operator("upwind")
        assert op.a_plane[0, 120, 0] == pytest.approx(1.6)   # no upward drift at x > mu
        assert op.b_plane[0, 120, 0] == pytest.approx(3.6)   # diffusion + downward drift
        assert np.all(op.a_plane > 0) and np.all(op.b_plane > 0)

    @pytest.mark.parametrize("mode", ["paper_faithful", "upwind"])
    def test_center_weight_identity(self, mode):
        """With no jumps, no switching, and u = 0 the weights satisfy
        1/(rk) + a + b = c, which is what makes constants invariant under the
        raw balance (the discrete analogue of r*const = 0 + r*const)."""
        op = self.operator(mode, price_cap=57.5)
        r, k = 0.05, op.grid.time_step
        a, b = op.a_plane[..., 0], op.b_plane[..., 0]
        np.testing.assert_allclose(1.0 / (r * k) + a + b, op.center_base, rtol=1e-12)
        _, den = op.control_terms(0.0)
        np.testing.assert_array_equal(den[..., 0], 1.0 + op.center_base)

    def test_weights_are_planes_constant_along_the_reserve_axis(self):
        """a, b and every 1 + c(u) are (M, n_x, n_y) C-contiguous planes
        whose reserve rows all hold the (M, n_x) weights, bit for bit."""
        model = reference_model()
        op = DiscreteOperator(model, small_grid(horizon=2.0, n_regimes=2), SolverConfig())
        g = op.grid
        dens = [op.control_terms(u)[1] for u in (0.0, 17.0, model.economics.u_max)]
        for plane in (op.a_plane, op.b_plane, *dens):
            assert plane.shape == (2, g.n_x, g.n_y) and plane.flags.c_contiguous
            column = np.repeat(plane[..., :1], g.n_y, axis=-1)
            assert np.array_equal(plane.view(np.int64), column.view(np.int64))
        np.testing.assert_array_equal(dens[1][..., 0],
                                      1.0 + op.center_base + 17.0 / (op.r * g.reserve_step))

    def test_control_terms_hold_the_running_profit_over_r(self):
        """The cached profit is the one the sweep adds: profit_rate / r, bit for bit."""
        model = reference_model()
        op = DiscreteOperator(model, small_grid(horizon=2.0, n_regimes=2), SolverConfig())
        x, y = op.grid.x_values[:, None], op.grid.y_values[None, :]
        for u in op.controls:
            profit, _ = op.control_terms(u)
            want = np.asarray(profit_rate(model, 0.0, x, y, float(u))) / op.r
            assert np.array_equal(profit.view(np.int64), want.view(np.int64))


class TestExactDiscounting:
    def test_frozen_dynamics_discount_geometrically(self):
        """kappa = sigma = 0, no jumps, no extraction: the recursion collapses
        to V(s) = V(s+k)/(1+rk), so each slice is the terminal payoff divided
        by (1+rk)^steps. The solver must hit this exactly."""
        model = single_regime_model(kappa=0.0, sigma=0.0)
        grid = small_grid(horizon=1.0, k=0.25)
        field, report = solve(model, grid, SolverConfig(tolerance=1e-13, mode="upwind"))
        r, k = 0.05, 0.25
        psi = field.values[0, -1]
        for back, si in enumerate(range(grid.n_s - 1, -1, -1)):
            expected = psi / (1.0 + r * k) ** back
            np.testing.assert_allclose(field.values[0, si], expected, atol=1e-10)
        assert report.final_residual < 1e-13


class TestSolve:
    def test_oracle_config_interior_error(self):
        model = single_regime_model()
        grid = small_grid(horizon=1.0, k=0.05)
        field, report = solve(model, grid, SolverConfig(tolerance=1e-6))
        assert report.final_residual < 1e-6
        xs = grid.x_values
        inner = (xs >= 10.0) & (xs <= 90.0)
        exact = analytic_oracle(model, 0.0, xs[inner, None], grid.y_values)
        worst = float(np.max(np.abs(field.values[0, 0, inner] - exact)))
        scale = float(np.max(np.abs(exact)))
        assert worst / scale < 5e-4

    def test_residuals_shrink_monotonically_after_burn_in(self):
        model = reference_model()
        grid = small_grid(horizon=2.0, n_regimes=2)
        field, report = solve(model, grid, SolverConfig(tolerance=1e-8))
        res = report.residuals
        assert all(res[i + 1] <= res[i] * (1 + 1e-12) for i in range(2, len(res) - 1))

    def test_jacobi_and_backward_agree(self):
        model = reference_model()
        grid = small_grid(horizon=2.0, n_regimes=2)
        tol = 1e-6
        fj, rj = solve(model, grid, SolverConfig(tolerance=tol, sweep="jacobi"))
        fb, rb = solve(model, grid, SolverConfig(tolerance=tol, sweep="backward"))
        assert np.max(np.abs(fj.values - fb.values)) < 2 * tol
        # only backward reports per-slice passes
        assert rj.slices == [] and len(rb.slices) == grid.n_s - 1

    def test_terminal_slice_pinned(self):
        from oilopt import terminal_value

        model = reference_model()
        grid = small_grid(horizon=2.0, n_regimes=2)
        field, _ = solve(model, grid)
        psi = terminal_value(model, grid.x_values[:, None], grid.y_values[None, :])
        for m in range(2):
            assert np.array_equal(field.values[m, -1], psi)

    def test_backward_stops_at_the_first_non_finite_pass(self):
        """exp(720) overflows, so the settlement payoff at the cap is not
        finite. The backward solve raises at its first pass, naming the
        slice and a node, instead of spending its inner budget on NaN
        changes."""
        dyn = Dynamics(kappa=0.01, mu=(55.0,), sigma=(0.2,), jump_scale=(0.0,),
                       discount_rate=0.05)
        eco = Economics(fixed_cost=0.0, marginal_cost=20.0, reserve_slope=0.0,
                        reserve_offset=1.0, u_max=1.0, reserve_capacity=1.0, horizon=0.2,
                        terminal_offset=20.0)
        model = MarketModel(generator=np.array([[0.0]]), dynamics=dyn, economics=eco,
                            measure=LevyMeasure.null(), price_kind="exponential")
        grid = build_grid(horizon=0.2, price_cap=720.0, reserve_capacity=1.0, time_step=0.1,
                          price_step=0.9, reserve_step=0.5, n_regimes=1)
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
            solve(model, grid, SolverConfig(sweep="backward"))
        assert not isinstance(err.value, ConvergenceError)
        msg = str(err.value)
        assert "backward slice 1 pass 1" in msg
        assert re.search(r"regime 0, time index 1, price index \d+, reserve index \d+", msg)

    def test_iteration_cap_raises_with_history(self):
        model = reference_model(horizon=10.0)
        grid = build_grid(horizon=10.0, price_cap=100.0, reserve_capacity=10.0,
                          time_step=0.1, price_step=0.5, reserve_step=0.5, n_regimes=2)
        with pytest.raises(ConvergenceError) as err:
            solve(model, grid, SolverConfig(tolerance=1e-10, max_iterations=3))
        assert len(err.value.residual_history) == 3

    def test_dense_control_grid_matches_endpoints(self):
        """The best rate is an endpoint of [0, u_max] (the objective is a
        ratio of affine functions of u), so a dense control scan must not
        change any solved value."""
        model = reference_model()
        grid = small_grid(horizon=2.0, n_regimes=2)
        cfg = SolverConfig(tolerance=1e-8)
        field, _ = solve(model, grid, cfg)
        op = DiscreteOperator(model, grid, cfg)
        dense = np.linspace(0.0, model.economics.u_max, 51)
        one = op.sweep(field.values)
        two = op.sweep(field.values, controls=dense)
        np.testing.assert_array_equal(one, two)

    def test_order_preserved_by_sweep(self):
        """V <= W pointwise implies sweep(V) <= sweep(W) in upwind mode."""
        model = reference_model()
        grid = small_grid(horizon=2.0, n_regimes=2)
        op = DiscreteOperator(model, grid, SolverConfig())
        rng = np.random.default_rng(0)
        lower = op.initial_guess()
        for _ in range(10):
            bump = rng.uniform(0.0, 5.0, size=lower.shape)
            upper = lower + bump
            sl, su = op.sweep(lower), op.sweep(upper)
            assert np.all(sl <= su + 1e-12)
            lower = su  # walk around the space a bit

    def test_dpp_residual_small_on_solution_large_off_solution(self):
        model = reference_model()
        grid = small_grid(horizon=2.0, n_regimes=2)
        cfg = SolverConfig(tolerance=1e-8)
        field, _ = solve(model, grid, cfg)
        op = DiscreteOperator(model, grid, cfg)
        mism, info = dpp_residual(field, op)
        assert mism <= 10 * cfg.tolerance
        assert info["nodes"] == field.values.size
        # a dent at one node (outside any 1,000-node sample drawn with seed 0)
        # must show up as the worst recursion mismatch, at that node
        dent = field.values.copy()
        dent[0, 2, 50, 5] -= 0.5
        mism, info = dpp_residual(GridField(grid, dent), op)
        assert mism > 0.4
        assert info["node"] == (0, 2, 50, 5)

    def test_contraction_gate_blocks_bad_quadrature(self):
        from oilopt import ContractionError

        measure = LevyMeasure.double_exponential(decay=60.0, half_width=5.0,
                                                 total_mass=40.0)
        model = single_regime_model(measure=measure, jump_scale=0.1)
        grid = small_grid(horizon=1.0)
        with pytest.raises(ContractionError):
            solve(model, grid, SolverConfig(xi=0.9))

    @pytest.mark.parametrize("horizon, capacity, n_regimes, message", [
        (2.0, 10.0, 1, "grid carries 1 regimes but model has 2"),
        (2.5, 10.0, 2, "grid horizon 2.5 differs from the model's 2.0"),
        (2.0, 5.0, 2, "grid reserve capacity 5.0 differs from the model's 10.0"),
    ], ids=["regimes", "horizon", "reserve_capacity"])
    def test_mismatched_grid_regimes_rejected(self, horizon, capacity, n_regimes, message):
        """A grid's horizon or capacity other than the model's would move the
        settlement (or make K - y negative) while the Monte Carlo reads the
        model's T and K."""
        grid = build_grid(horizon=horizon, price_cap=100.0, reserve_capacity=capacity,
                          time_step=0.1, price_step=0.5, reserve_step=0.5, n_regimes=n_regimes)
        with pytest.raises(ConfigError, match=re.escape(message)):
            solve(reference_model(), grid)

    def test_spans_within_the_node_count_tolerance_accepted(self):
        grid = small_grid(horizon=2.0 * (1.0 + 1e-12), n_regimes=2)
        assert DiscreteOperator(reference_model(), grid, SolverConfig()).grid is grid


class TestReserveScan:
    """backward solves each slice's reserve coupling in one scan per pass."""

    @pytest.mark.parametrize("mode, u_max, price_cap", [
        ("paper_faithful", 0.0, 57.5),  # nothing extracts, so the scan has no term
        ("upwind", 1.0, 100.0),  # u/(rl) does not dominate 1 + c
    ])
    def test_agrees_with_jacobi(self, mode, u_max, price_cap):
        model, grid = single_regime_model(u_max=u_max), small_grid(price_cap=price_cap)
        cfg = SolverConfig(tolerance=1e-6, mode=mode)
        fj, _ = solve(model, grid, cfg)
        fb, _ = solve(model, grid, dataclasses.replace(cfg, sweep="backward"))
        assert np.max(np.abs(fj.values - fb.values)) < 2 * cfg.tolerance

    def test_reference_passes_per_slice(self):
        cfg = load_config(REFERENCE)
        _, report = solve(cfg.model, cfg.grid, dataclasses.replace(cfg.solver, sweep="backward"))
        passes = [p for p, _ in report.slices]
        assert len(passes) == cfg.grid.n_s - 1
        assert sum(passes) == report.iterations
        assert report.slice_updates == report.iterations * cfg.grid.n_regimes
        assert max(passes) <= 14
        assert sum(passes) <= 650  # 613 from the cubic warm start, 1,306 from a copy
        tol = cfg.solver.tolerance * cfg.model.dynamics.discount_rate * cfg.grid.time_step / 2
        assert all(change < tol for _, change in report.slices)

    def test_passes_do_not_grow_with_the_reserve_grid(self):
        model = reference_model()
        cfg = SolverConfig(sweep="backward")
        per_slice = []
        for l in (0.5, 0.25):
            _, report = solve(model, small_grid(horizon=2.0, n_regimes=2, l=l), cfg)
            per_slice.append(max(p for p, _ in report.slices))
        assert per_slice[1] <= per_slice[0] + 1

    @staticmethod
    def scanned_by_node(op, V, m, t, controls):
        """Slice t of regime m's reserve scan, node by node in Python floats
        from _base_block's output: y = 0 takes u = 0's quotient, and each
        node y >= 1 the largest (num + alpha * value just made at y - 1) / den
        over the controls, u = 0 reading no neighbor."""
        base = op._base_block(V, m, t, t + 1)[0]
        r, l = op.r, op.grid.reserve_step
        profit0, den0 = op.control_terms(0.0)
        out = np.empty_like(base)
        for i in range(base.shape[0]):
            out[i, 0] = (float(base[i, 0]) + float(profit0[i, 0])) / float(den0[m, i, 0])
            for y in range(1, base.shape[1]):
                best = -math.inf
                for u in map(float, controls):
                    profit, den = op.control_terms(u)
                    num = float(base[i, y]) + float(profit[i, y])
                    if u != 0.0:
                        num += u / (r * l) * float(out[i, y - 1])
                    best = max(best, num / float(den[m, i, y]))
                out[i, y] = best
        return out

    def test_scan_matches_a_per_node_loop_for_every_control_list(self):
        """_best_candidate(..., scan=True) keeps the bits of the per-node
        loop above on a tiny two-regime model, for a pinned extracting
        control, an extracting control before u = 0, and a dense list."""
        grid = small_grid(horizon=0.5, price_cap=20.0, n_regimes=2)
        op = DiscreteOperator(reference_model(horizon=0.5), grid, SolverConfig())
        u_max = op.model.economics.u_max
        V = np.random.default_rng(41).uniform(-100.0, 400.0, size=grid.shape)
        for controls in ([u_max], [u_max, 0.0], np.linspace(0.0, u_max, 4)):
            for m in range(grid.n_regimes):
                for t in (1, grid.n_s - 2):
                    got = op._best_candidate(V, m, t, t + 1, controls, scan=True)[0]
                    want = self.scanned_by_node(op, V, m, t, controls)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                        (list(controls), m, t)


class TestWarmStart:
    """_warm_start extrapolates the converged slices above t to slice t."""

    @staticmethod
    def field(degree, n_s=8):
        """Slices a polynomial of `degree` in the time index, with small
        integer coefficients, so every extrapolation is exact in float64."""
        coef = np.random.default_rng(degree).integers(-5, 6, size=(degree + 1, 2, 1, 3, 4))
        t = np.arange(n_s, dtype=float)[None, :, None, None]
        return sum(c * t**p for p, c in enumerate(coef.astype(float)))

    @staticmethod
    def start(V, t):
        W = V.copy()
        W[:, t] = np.nan
        solver._warm_start(W, t)
        assert np.array_equal(np.delete(W, t, axis=1), np.delete(V, t, axis=1))
        return W[:, t]

    def test_cubic_through_four_slices_is_exact(self):
        V = self.field(3)
        for t in range(V.shape[1] - 5, -1, -1):
            assert np.array_equal(self.start(V, t), V[:, t])

    @pytest.mark.parametrize("known", [1, 2, 3])
    def test_first_slices_below_the_horizon_use_the_lower_orders(self, known):
        """1, 2 and 3 known slices: copy, linear and quadratic."""
        V = self.field(known - 1)
        t = V.shape[1] - 1 - known
        assert np.array_equal(self.start(V, t), V[:, t])


class TestSweepBlocks:
    def test_block_is_the_budget_in_whole_slices_and_at_least_one(self, monkeypatch):
        """reference.yaml's slice (201 x 21 nodes) takes 10 slices per block
        under the default budget; a smaller budget rounds down, and a slice
        larger than the budget is a block of its own."""
        grid = small_grid()
        assert solver.sweep_block(grid) == 10
        for budget, block in ((block_budget(grid, 10) - 1, 9), (block_budget(grid, 1), 1), (1, 1)):
            monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", budget)
            assert solver.sweep_block(grid) == block

    def test_blocked_sweep_matches_one_block(self, monkeypatch):
        """sweep updates each regime sweep_block(grid) time slices at a time.
        Every slice is computed on its own, so one block over all slices,
        ragged last block included, gives the same bits."""
        grid = small_grid(horizon=2.5, n_regimes=2)
        op = DiscreteOperator(reference_model(horizon=2.5), grid, SolverConfig())
        n = grid.n_s - 1
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", block_budget(grid, 10))
        block = solver.sweep_block(grid)
        assert n > block == 10 and n % block
        V = np.random.default_rng(5).uniform(-100.0, 400.0, size=grid.shape)
        for controls in (None, [0.0], [50000.0], np.linspace(0.0, 50000.0, 7)):
            whole = [op._best_candidate(V, m, 0, n, controls) for m in range(2)]
            assert np.array_equal(op.sweep(V, controls)[:, :n], np.stack(whole))

    @pytest.mark.parametrize("workers", [processes(1), processes(2)])
    def test_sweep_temporaries_are_bounded_by_the_budget(self, workers, monkeypatch):
        """A full sweep's traced peak in each process is O(block bytes), not
        O(slices per block x slice bytes): about three block-sized arrays are
        alive (the base block, the best candidate and one extracting
        candidate; the task loop drops each block's update before the next
        block is computed). The slice here (401 x 101 nodes, 324 KB) is just
        under the budget, so a block is one slice; ten-slice blocks peak at
        about 26 MB against the bound's 1.35 MB. The sweep is dpp_residual's;
        on two processes the bound holds in the calling one, which
        tracemalloc sees."""
        split_sweeps(monkeypatch, workers)
        grid = build_grid(horizon=2.0, price_cap=100.0, reserve_capacity=10.0, time_step=0.1,
                          price_step=0.25, reserve_step=0.1, n_regimes=2)
        slice_bytes = grid.n_x * grid.n_y * 8
        assert solver.sweep_block(grid) == 1 and slice_bytes > 0.9 * solver.SWEEP_BLOCK_BYTES
        op = DiscreteOperator(reference_model(horizon=2.0), grid, SolverConfig())
        V = np.random.default_rng(19).uniform(-100.0, 400.0, size=grid.shape)
        bound = 4 * max(solver.SWEEP_BLOCK_BYTES, slice_bytes)
        peak = traced_peak(lambda: dpp_residual(GridField(grid, V), op))
        assert peak < bound, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("points", [4, 7])
    def test_a_frozen_control_list_holds_four_block_arrays(self, points):
        """_best_candidate releases each control's numerator and candidate
        before the next control's are made, so a frozen read of a list of any
        length holds four block-sized arrays: the base block, the best so far,
        one numerator and one candidate. A block here is one slice of the
        401 x 101-node grid; holding the last control's pair reads 5.01."""
        grid = build_grid(horizon=2.0, price_cap=100.0, reserve_capacity=10.0, time_step=0.1,
                          price_step=0.25, reserve_step=0.1, n_regimes=2)
        op = DiscreteOperator(reference_model(horizon=2.0), grid, SolverConfig())
        V = np.random.default_rng(19).uniform(-100.0, 400.0, size=grid.shape)
        controls = np.linspace(0.0, 50000.0, points)
        op._best_candidate(V, 0, 5, 6, controls)  # the control terms are cached from here on
        arrays = traced_peak(lambda: op._best_candidate(V, 0, 5, 6, controls)) / (
            grid.n_x * grid.n_y * 8)
        assert arrays < 4.5, f"traced peak {arrays:.2f} slice arrays"

    @pytest.mark.parametrize("workers", [processes(1), processes(2)])
    def test_an_update_written_over_its_input_is_refused(self, workers, monkeypatch):
        """The tasks read neighbors from `values` while others write `out`,
        so an `out` that shares memory with `values` would make the update
        depend on task order and process timing; sweep refuses it before any
        task runs, and leaves the input as it was."""
        split_sweeps(monkeypatch, workers)
        op = DiscreteOperator(reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2),
                              SolverConfig())
        V = op.initial_guess()
        kept = V.copy()
        for out in (V, V[::-1], V.reshape(-1).reshape(V.shape)):
            with pytest.raises(ValueError, match="shares memory"):
                op.sweep(V, out=out, change=True)
            with pytest.raises(ValueError, match="shares memory"):
                op.sweep(V, out=out)
        assert np.array_equal(V, kept)
        assert np.array_equal(op.sweep(V, out=np.empty_like(V)), op.sweep(V))

    @pytest.mark.parametrize("workers", [processes(1), processes(2)])
    def test_an_empty_control_list_is_refused(self, workers, monkeypatch):
        """The update is a max over the controls, which no empty list has:
        sweep names the empty list before any task runs or any process
        forks, with and without `change`, and leaves the input as it was."""
        split_sweeps(monkeypatch, workers)
        op = DiscreteOperator(reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2),
                              SolverConfig())
        V = np.random.default_rng(3).uniform(-100.0, 400.0, size=op.grid.shape)
        kept, calls = V.copy(), []
        monkeypatch.setattr(op, "_best_candidate", lambda *args: calls.append(args))
        for controls in ([], np.empty(0)):
            for change in (False, True):
                with pytest.raises(ValueError, match="control list is empty"):
                    op.sweep(V, controls, change=change)
        assert not calls and np.array_equal(V, kept)

    # blocks of 1, 2 and 10 slices; the last one reads the terminal slice
    @pytest.mark.parametrize("lo, hi", [(40, 41), (63, 65), (90, 100)])
    def test_plane_blocks_keep_the_column_broadcast_bits_on_reference(self, lo, hi):
        """_base_block and _best_candidate, which apply their weights as
        whole planes and reuse their buffers, give the bits of the
        column-broadcast form in conftest on reference.yaml: both regimes,
        the frozen and the scanned reserve read, and every control list."""
        op = TestJumpBands.reference_operator()
        u_max = op.model.economics.u_max
        V = np.random.default_rng(29).uniform(-100.0, 400.0, size=op.grid.shape)
        lists = {"endpoints": None, "zero": [0.0], "u_max": [u_max],
                 "dense": np.linspace(0.0, u_max, 6)}
        for m in range(op.grid.n_regimes):
            got, want = op._base_block(V, m, lo, hi), column_base_block(op, V, m, lo, hi)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            for scan in (False, True):
                for name, controls in lists.items():
                    got = op._best_candidate(V, m, lo, hi, controls, scan)
                    want = column_best_candidate(op, V, m, lo, hi, controls, scan)
                    assert got.shape == (hi - lo, op.grid.n_x, op.grid.n_y)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                        (m, scan, name)


class TestSweepProcesses:
    """A jacobi solve runs the even tasks of every sweep in the calling
    process and the odd ones in a partner forked for the solve, over shared
    iterates; dpp_residual forks its partner for its one sweep, and a sweep
    called on its own never forks. The two swap their found lists. Every
    test forces the process count and the split, so it holds on a one-CPU
    machine, and no child is left after it."""

    @pytest.mark.parametrize("workers", [processes(1), processes(2)])
    def test_nan_in_the_last_block_names_sweep_and_node(self, workers, monkeypatch):
        """A NaN planted by sweep 3 in the last block of the last regime must
        raise the typed error naming that sweep and node, not be dropped by
        the reduction of the block maxima."""
        split_sweeps(monkeypatch, workers)
        model, grid = reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2)
        block, n = 10, grid.n_s - 1
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", block_budget(grid, block))
        last_lo = (n - 1) // block * block
        real, calls = DiscreteOperator._best_candidate, []

        def planting(self, V, m, lo, hi, controls=None, scan=False):
            out = real(self, V, m, lo, hi, controls, scan)
            if (m, lo) == (1, last_lo):
                calls.append(lo)
                if len(calls) == 3:
                    out[hi - lo - 1, 50, 5] = np.nan
            return out

        monkeypatch.setattr(DiscreteOperator, "_best_candidate", planting)
        with pytest.raises(NumericalError) as err:
            solve(model, grid, SolverConfig(tolerance=1e-8))
        assert str(err.value) == (
            f"non-finite value during jacobi sweep 3 at regime 1, time index {n - 1}, "
            "price index 50, reserve index 5"
        )

    @pytest.mark.parametrize("workers", [processes(1), processes(2)])
    def test_equal_maxima_in_two_blocks_give_the_first_node(self, workers, monkeypatch):
        """Two equal mismatches, in the partner's block 1 and the calling
        process's block 2: dpp_residual reports the first in C order, as an
        argmax over the full mismatch field does."""
        split_sweeps(monkeypatch, workers)
        model, grid = reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2)
        block = 10
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", block_budget(grid, block))
        op = DiscreteOperator(model, grid, SolverConfig())
        V = np.random.default_rng(7).uniform(0.0, 300.0, size=grid.shape)
        first, second = (0, block + 2, 50, 20), (0, 2 * block + 2, 50, 20)
        # no upwind reserve read reaches the top reserve node, and next to
        # 1e200 the node's other terms vanish in rounding: the two tie exactly
        V[first] = V[second] = 1e200
        mism = np.abs(op.sweep(V) - V)
        assert mism[first] == mism[second] == mism.max()
        expect = np.unravel_index(int(np.argmax(mism)), mism.shape)
        worst, info = dpp_residual(GridField(grid, V), op)
        assert (worst, info["node"]) == (float(mism[expect]), first) == (mism.max(), expect)

    @needs_fork
    def test_paper_faithful_control_too_large_raises_in_the_calling_process(
            self, monkeypatch, tmp_path):
        """A paper-faithful operator built at u_max = 0 has its residual
        swept at u = 0 on two processes, and a pinned positive control raises
        the operator's MonotonicityError from sweep, before any task runs;
        only the calling process ever builds control terms, before it forks."""
        split_sweeps(monkeypatch, 2)
        grid = small_grid(price_cap=57.5)
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", block_budget(grid, 2))  # five blocks
        op = DiscreteOperator(single_regime_model(), grid, SolverConfig(mode="paper_faithful"))
        builders = recorded_pids(monkeypatch, tmp_path, DiscreteOperator, "control_terms",
                                 lambda self, u: float(u) not in self._terms)
        tasks = recorded_pids(monkeypatch, tmp_path, DiscreteOperator, "_best_candidate")
        V = np.random.default_rng(2).uniform(-100.0, 400.0, size=grid.shape)
        assert op.controls.tolist() == [0.0]
        dpp_residual(GridField(grid, V), op)
        swept = tasks()
        weight = "the weight -u/(rl) = -0.2 on V(y + l) at u=0.005"
        with pytest.raises(MonotonicityError, match=re.escape(weight)):
            op.sweep(V, controls=[0.005], change=True)
        assert len(set(swept)) == 2 and tasks() == swept  # both processes swept, then none
        assert set(builders()) == {os.getpid()}

    @needs_fork
    def test_a_fresh_operators_dense_scan_keeps_the_one_process_bits(self, monkeypatch):
        """One slice per task and a dense control scan whose terms a fresh
        operator builds in each process of a sweep split with `partner`: the
        largest change equals the one-process change every time, and a
        sweep without a partner keeps the update's bits."""
        model, grid = reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2)
        V = np.random.default_rng(13).uniform(-100.0, 400.0, size=grid.shape)
        dense = np.linspace(0.0, 50000.0, 9)
        split_sweeps(monkeypatch, 1)
        one = DiscreteOperator(model, grid, SolverConfig())
        serial, serial_change = one.sweep(V, dense), one.sweep(V, dense, change=True)
        split_sweeps(monkeypatch, 2)
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", block_budget(grid, 1))
        for _ in range(3):
            op = DiscreteOperator(model, grid, SolverConfig())
            change, processes = solver._on_processes(
                lambda partner: op.sweep(V, dense, change=True, partner=partner), V.size, 0,
                "test")
            assert (change, processes) == (serial_change, 2)
            assert np.array_equal(op.sweep(V, dense), serial)

    @needs_fork
    def test_a_forked_process_splits_its_own_sweeps(self, monkeypatch):
        """A child forked after a split solve (here the child of a split job)
        splits its own residual sweep and solve again, with the same bits."""
        split_sweeps(monkeypatch, 2)
        model, grid = reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2)
        field, report = solve(model, grid)
        assert report.sweep_workers == 2
        op, V = report.operator, np.random.default_rng(17).uniform(-100.0, 400.0, size=grid.shape)
        expect = dpp_residual(GridField(grid, V), op)

        def child(_):
            again, again_report = solve(model, grid)
            waited = op.partner_wait_s
            return (dpp_residual(GridField(grid, V), op), op.partner_wait_s > waited,
                    again_report.sweep_workers, again.values.tobytes() == field.values.tobytes())

        _, (residual, split, workers, same) = fork.in_two_processes(lambda _: None, child, "test")
        assert (residual, split, workers, same) == (expect, True, 2, True)

    @needs_fork
    def test_split_sweeps_match_one_process_on_a_blas_threaded_grid(self, monkeypatch):
        """With 401 price nodes OpenBLAS threaded the dense jump product; the
        split residual and the split solve keep the one-process bits (for the
        BLAS thread count itself, see TestJumpBands)."""
        model = reference_model(horizon=1.0)
        grid = blas_threaded_grid()
        assert grid.n_x >= 401
        op = DiscreteOperator(model, grid, SolverConfig())
        V = np.random.default_rng(11).uniform(-100.0, 400.0, size=grid.shape)
        split_sweeps(monkeypatch, 1)
        serial = op.sweep(V, change=True)
        field, report = solve(model, grid)
        split_sweeps(monkeypatch, 2)
        for _ in range(2):
            worst, info = dpp_residual(GridField(grid, V), op)
            assert (worst, info["node"]) == serial
        split, split_report = solve(model, grid)
        assert (report.sweep_workers, split_report.sweep_workers) == (1, 2)
        assert split.values.tobytes() == field.values.tobytes()
        assert split_report.residuals == report.residuals
        assert split_report.slice_updates == report.slice_updates

    @needs_fork
    def test_two_split_solves_at_once_keep_the_one_process_bits(self, monkeypatch):
        """Two split solves at once, four processes on at most two CPUs, one
        slice per task: the swap after each sweep is the only barrier between
        its writes and the next sweep's reads, so a process descheduled
        mid-sweep must still leave the one-process field and residuals. The
        alarm bounds the wait if a swap hangs."""
        model, grid = reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2)
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", block_budget(grid, 1))
        split_sweeps(monkeypatch, 1)
        field, report = solve(model, grid)
        split_sweeps(monkeypatch, 2)

        def split_solve():
            again, again_report = solve(model, grid)
            return (again.values.tobytes() == field.values.tobytes(),
                    again_report.residuals == report.residuals, again_report.sweep_workers)

        def alarm(signum, frame):
            raise TimeoutError("a split solve waited a minute for its partner")

        previous = signal.signal(signal.SIGALRM, alarm)
        signal.alarm(60)
        try:
            here, there = fork.in_two_processes(lambda _: split_solve(), lambda _: split_solve(),
                                                "test")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert here == there == (True, True, 2)

    @needs_fork
    def test_a_partner_killed_mid_solve_names_the_jacobi_job(self, monkeypatch):
        """The partner SIGKILLs itself in sweep 3: the caller raises a
        RuntimeError naming the jacobi job and the signal, and reaps it."""
        split_sweeps(monkeypatch, 2)
        caller, real, calls = os.getpid(), DiscreteOperator._best_candidate, []

        def dying(self, *args, **kwargs):
            calls.append(1)
            if os.getpid() != caller and len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteOperator, "_best_candidate", dying)
        model, grid = reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2)
        with pytest.raises(RuntimeError, match=re.escape(
                f"the jacobi worker process died (exit code {-signal.SIGKILL}) before")):
            solve(model, grid, SolverConfig(tolerance=1e-8))

    @needs_fork
    def test_a_partner_exception_is_raised_by_the_caller(self, monkeypatch):
        """An exception in the partner's sweep 2 comes back from the swap and
        is raised in the caller, chained to the partner's traceback."""
        split_sweeps(monkeypatch, 2)
        caller, real, calls = os.getpid(), DiscreteOperator._best_candidate, []

        def failing(self, *args, **kwargs):
            calls.append(1)
            if os.getpid() != caller and len(calls) == 2:
                raise MemoryError("no room for a block")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteOperator, "_best_candidate", failing)
        model, grid = reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2)
        with pytest.raises(MemoryError, match="no room for a block") as err:
            solve(model, grid, SolverConfig(tolerance=1e-8))
        assert "in the jacobi worker process" in str(err.value.__cause__)

    @pytest.mark.parametrize("workers, sweep, want", [
        (1, "jacobi", 1),
        pytest.param(2, "jacobi", 2, marks=needs_fork),
        pytest.param(2, "backward", 1, marks=needs_fork),
    ])
    def test_the_report_counts_the_processes_and_the_wait(self, workers, sweep, want,
                                                         monkeypatch):
        """sweep_workers is the processes the sweeps or passes ran on: one
        for backward's passes, which read the slice they write. partner_wait_s
        is the seconds the caller waited for a partner in every sweep the
        report covers, backward's closing residual too: none on one process."""
        split_sweeps(monkeypatch, workers)
        _, report = solve(reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2),
                          SolverConfig(sweep=sweep))
        assert report.sweep_workers == want
        assert (report.partner_wait_s > 0.0) == (workers == 2)

    @needs_fork
    def test_a_sweep_never_forks_and_the_residual_splits(self, monkeypatch, tmp_path):
        """With every split forced on, a sweep called on its own computes
        every block in the calling process; dpp_residual of the same field
        computes them on two processes and names the same change and node,
        bit for bit."""
        split_sweeps(monkeypatch, 2)
        model, grid = reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2)
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", block_budget(grid, 10))
        op = DiscreteOperator(model, grid, SolverConfig())
        V = np.random.default_rng(31).uniform(-100.0, 400.0, size=grid.shape)
        pids = recorded_pids(monkeypatch, tmp_path, DiscreteOperator, "_best_candidate")
        change, node = op.sweep(V, change=True)
        assert set(pids()) == {os.getpid()} and op.partner_wait_s == 0.0
        alone = len(pids())
        worst, info = dpp_residual(GridField(grid, V), op)
        split = pids()[alone:]
        assert os.getpid() in split and len(set(split)) == 2 and len(split) == alone
        assert (np.float64(worst).view(np.int64), info["node"]) == (
            np.float64(change).view(np.int64), node)


class TestLeadingCopies:
    """Where slices 0..j of the iterate are bitwise copies of slice 0, sweep
    computes the blocks from the one holding slice max(j - 1, 0) on and
    copies the rest (see test_properties.py for the bits on small models)."""

    @staticmethod
    def operator(monkeypatch, workers):
        split_sweeps(monkeypatch, workers)
        grid = small_grid(horizon=2.5, n_regimes=2)
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", block_budget(grid, 10))
        return DiscreteOperator(reference_model(horizon=2.5), grid, SolverConfig())

    @pytest.mark.parametrize("workers", [processes(1), processes(2)])
    def test_ties_among_the_copies_are_named_at_slice_0(self, workers, monkeypatch):
        """From the initial guess every slice below the horizon is a copy, so
        the largest change ties on all 25 of them; only the last block and
        the horizon are computed, and the node named is slice 0's, as an
        argmax over the whole update names it."""
        op = self.operator(monkeypatch, workers)
        V = op.initial_guess()
        worst, info = dpp_residual(GridField(op.grid, V), op)
        assert (worst, info["node"]) == per_slice_sweep(op, V)[1]
        assert info["node"][1] == 0 and worst > 0.0
        assert op.slice_updates == 2 * 5  # the block [20, 25) of each regime

    @pytest.mark.parametrize("workers", [processes(1), processes(2)])
    def test_a_nan_inside_the_run_is_named_at_slice_0(self, workers, monkeypatch):
        """A NaN planted at one node of slices 0..14, all of them copies, is
        in the update of slices 0..13 (and of slice 14 through the price and
        jump neighbours): the reported change is NaN at slice 0's first NaN,
        the whole update's first in C order, and the first block is not
        computed."""
        op = self.operator(monkeypatch, workers)
        V = op.initial_guess()
        V[1, :15, 50, 5] = np.nan
        change, info = dpp_residual(GridField(op.grid, V), op)
        node = info["node"]
        want_change, want_node = per_slice_sweep(op, V)[1]
        assert math.isnan(change) and math.isnan(want_change)
        assert node == want_node and node[1] == 0
        assert op.slice_updates == 2 * 15  # the blocks [10, 20) and [20, 25)

    @needs_fork
    @pytest.mark.parametrize("copies, blocks", [(25, 1), (15, 2), (5, 3)])
    def test_the_two_processes_compute_as_many_blocks(self, copies, blocks, monkeypatch,
                                                      tmp_path):
        """Slices 0..copies of the field are copies, so `blocks` blocks of
        each regime are computed, and the calling process and its partner
        compute as many. With the horizon's tasks listed among the blocks,
        the calling process would take both blocks of a one-block sweep and
        four of the six of a three-block one."""
        op = self.operator(monkeypatch, 2)
        V = op.initial_guess()
        V[:, copies + 1:] += 1.0
        pids = recorded_pids(monkeypatch, tmp_path, DiscreteOperator, "_best_candidate")
        dpp_residual(GridField(op.grid, V), op)
        counts = [pids().count(pid) for pid in set(pids())]
        assert os.getpid() in pids() and sorted(counts) == [blocks, blocks]

    def test_a_signed_zero_breaks_the_run(self):
        """Copies are equal bits: -0.0 == 0.0 as numbers, but a -0.0 on slice
        3 ends the run there; a NaN equal in its bits on every slice does
        not, and one with other bits does."""
        grid = small_grid(horizon=2.5, n_regimes=2)
        V = np.zeros(grid.shape)
        assert solver._leading_copies(V) == grid.n_s - 1
        V[0, 3, 7, 2] = -0.0
        assert np.array_equal(V[:, 3], V[:, 0]) and solver._leading_copies(V) == 2
        V[0, 3, 7, 2] = 0.0
        V[1, :, 4, 4] = np.nan
        assert solver._leading_copies(V) == grid.n_s - 1
        V[1, 9, 4, 4] = -np.nan
        assert solver._leading_copies(V) == 8
        op = DiscreteOperator(reference_model(horizon=2.5), grid, SolverConfig())
        V = np.random.default_rng(23).uniform(-100.0, 400.0, size=grid.shape)
        V[:, :] = V[:, :1]
        V[..., 0] = 0.0
        V[1, 3, 7, 0] = -0.0
        assert solver._leading_copies(V) == 2
        want, _ = per_slice_sweep(op, V)
        assert np.array_equal(op.sweep(V).view(np.int64), want.view(np.int64))
        assert op.slice_updates == 2 * (grid.n_s - 1)

    def test_sweeping_the_initial_guess_stays_within_the_block_budget(self):
        """From the initial guess one slice is computed and copied into the
        19 below it, regime by regime from the block that computed it, so the
        traced peak stays within the budget of the full sweep's test. Filling
        out[:, :r] from the overlapping out[:, r:r + 1] made numpy buffer all
        19 slices (12 MB against the bound's 1.35 MB)."""
        grid = build_grid(horizon=2.0, price_cap=100.0, reserve_capacity=10.0, time_step=0.1,
                          price_step=0.25, reserve_step=0.1, n_regimes=2)
        slice_bytes = grid.n_x * grid.n_y * 8
        assert solver.sweep_block(grid) == 1
        op = DiscreteOperator(reference_model(horizon=2.0), grid, SolverConfig())
        V, out = op.initial_guess(), np.empty(grid.shape)
        bound = 4 * max(solver.SWEEP_BLOCK_BYTES, slice_bytes)
        peak = traced_peak(lambda: op.sweep(V, out=out))
        assert peak < bound, f"traced peak {peak / 1e6:.1f} MB"
        assert np.array_equal(out[:, :-1], np.broadcast_to(out[:, :1], out[:, :-1].shape))
        assert op.slice_updates == 2

    def test_the_controls_are_built_without_numpy_ma(self):
        """The endpoint pair is {0, u_max} sorted as float64, one entry when
        u_max = 0, and building an operator imports no numpy.ma (np.unique
        did, for nothing else to read)."""
        for u_max, want in ((50000.0, [0.0, 50000.0]), (0.0, [0.0])):
            op = DiscreteOperator(reference_model(horizon=1.0, u_max=u_max),
                                  small_grid(n_regimes=2), SolverConfig())
            assert op.controls.dtype == np.float64 and op.controls.tolist() == want
        script = (
            "import sys\n"
            "from oilopt import DiscreteOperator, SolverConfig\n"
            "from test_solver import reference_model, small_grid\n"
            "DiscreteOperator(reference_model(horizon=1.0), small_grid(n_regimes=2),\n"
            "                 SolverConfig())\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        here = Path(__file__).resolve().parent
        path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "False"


class TestJumpBands:
    """The jump term is applied as row bands over each band's nonzero
    columns, with the dense product's bits wherever that product sums each
    row in one pass."""

    @staticmethod
    def reference_operator(refine=1):
        data = yaml.safe_load(REFERENCE.read_text())
        for key in ("time_step", "price_step", "reserve_step"):
            data["grid"][key] /= refine
        cfg = parse_config(data)
        return DiscreteOperator(cfg.model, cfg.grid, cfg.solver)

    def test_the_operator_holds_no_dense_jump_matrix(self):
        """Neither a built operator nor a solve's keeps the dense matrices;
        jump_mat builds them on first read, and jump_band_share needs none."""
        op = self.reference_operator()
        assert "jump_mat" not in vars(op)
        assert op.jump_band_share == 0.2320734635281305
        _, report = solve(reference_model(horizon=0.2), small_grid(horizon=0.2, n_regimes=2))
        assert "jump_mat" not in vars(report.operator)
        assert "jump_mat" not in vars(op)
        for m, P in enumerate(op.jump_mat):
            assert np.array_equal(P, op._build_jump_matrix(m))

    def test_base_block_has_the_dense_products_bits_on_reference(self):
        op = self.reference_operator()
        V = np.random.default_rng(5).uniform(-100.0, 400.0, size=op.grid.shape)
        for m in range(op.grid.n_regimes):
            got = op._base_block(V, m, 30, 40)
            want = dense_base_block(op, V, m, 30, 40)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("refine", [1, 2])
    def test_bands_tile_the_rows_and_hold_every_nonzero(self, refine):
        op = self.reference_operator(refine)
        n = op.grid.n_x
        for P, bands in zip(op.jump_mat, op.jump_bands):
            covered = np.zeros(P.shape, dtype=bool)
            edges = [0]
            for r0, r1, c0, c1, band in bands:
                assert r0 == edges[-1] and r1 - r0 >= 2
                edges.append(r1)
                assert band.flags.c_contiguous and np.array_equal(band, P[r0:r1, c0:c1])
                # the smallest range: its first and last columns carry a nonzero
                assert P[r0:r1, c0].any() and P[r0:r1, c1 - 1].any()
                covered[r0:r1, c0:c1] = True
            assert edges[-1] == n
            assert not P[~covered].any()
        areas = sum((r1 - r0) * (c1 - c0) for bands in op.jump_bands for r0, r1, c0, c1, _ in bands)
        assert op.jump_band_share == areas / (op.grid.n_regimes * n * n) < 0.25

    # 0 * inf in the product and inf - inf in the change, in either process
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_an_infinite_entry_fails_in_its_regime_and_slice(self):
        """inf at (1, 40, 150, 7) of reference.yaml's initial guess: the
        residual is NaN, at a node of that regime, slice and reserve row
        whose band reaches column 150 (0 * inf there). The dense product
        spread the NaN over the whole row and named price index 0."""
        op = self.reference_operator()
        V = op.initial_guess()
        V[1, 40, 150, 7] = np.inf
        worst, info = dpp_residual(GridField(op.grid, V), op)
        assert math.isnan(worst)
        m, t, x, y = info["node"]
        assert (m, t, y) == (1, 40, 7)
        assert any(r0 <= x < r1 and c0 <= 150 < c1 for r0, r1, c0, c1, _ in op.jump_bands[1])
        assert x > 0

    @pytest.mark.skipif(
        "openblas" not in str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]
                              .get("name", "")).lower(),
        reason="numpy's BLAS is not OpenBLAS")
    def test_openblas_thread_count_moves_no_bit(self):
        """One sweep of the 401-node grid hashes the same under one and two
        OpenBLAS threads. The dense 401-wide product did not: OpenBLAS split
        its sum, differently per thread count."""
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from oilopt import DiscreteOperator, SolverConfig\n"
            "from test_solver import blas_threaded_grid, reference_model\n"
            "op = DiscreteOperator(reference_model(horizon=1.0), blas_threaded_grid(),\n"
            "                      SolverConfig())\n"
            "V = np.random.default_rng(11).uniform(-100.0, 400.0, size=op.grid.shape)\n"
            "print(hashlib.sha256(op.sweep(V).tobytes()).hexdigest())\n"
        )
        here = Path(__file__).resolve().parent
        path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, path))}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            digests.add(done.stdout.strip())
        assert len(digests) == 1 and len(digests.pop()) == 64


class TestSolverConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            SolverConfig(mode="central")

    def test_rejects_bad_dense_controls(self):
        """A dense control scan is sweep(controls=...), not a solver option:
        the constructor has no such field and the config key is unknown."""
        with pytest.raises(TypeError):
            SolverConfig(dense_controls=51)
        data = yaml.safe_load(REFERENCE.read_text())
        data["solver"]["dense_controls"] = 51
        with pytest.raises(ConfigError, match="dense_controls"):
            parse_config(data)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ConfigError):
            SolverConfig(tolerance=0.0)
