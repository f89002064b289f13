"""Solver unit tests: coefficients, invariants, convergence, mode agreement."""

import dataclasses
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import dense_base_block

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
from oilopt import solver
from oilopt.config import load_config, parse_config

REFERENCE = Path(__file__).resolve().parents[1] / "src" / "oilopt" / "configs" / "reference.yaml"


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

    Read off the operator's (regime, price node) arrays; node 70 is x = 35
    and node 120 is x = 60. The paper-faithful stencil needs a > 0, which
    holds for x < 59, so its grid stops at 57.5.
    """

    @staticmethod
    def operator(mode, price_cap=100.0):
        grid = small_grid(price_cap=price_cap)
        return DiscreteOperator(single_regime_model(), grid, SolverConfig(mode=mode))

    def test_diffusion_weight(self):
        op = self.operator("paper_faithful", price_cap=57.5)
        np.testing.assert_allclose(op.b_vec, 1.6)

    def test_drift_boosted_up_weight(self):
        op = self.operator("paper_faithful", price_cap=57.5)
        # 1.6 + 0.01*(55-35)/(0.05*0.5)
        assert op.a_vec[0, 70] == pytest.approx(9.6)

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
        assert op.a_vec[0, 120] == pytest.approx(1.6)   # no upward drift at x > mu
        assert op.b_vec[0, 120] == pytest.approx(3.6)   # diffusion + downward drift
        assert np.all(op.a_vec > 0) and np.all(op.b_vec > 0)

    @pytest.mark.parametrize("mode", ["paper_faithful", "upwind"])
    def test_center_weight_identity(self, mode):
        """With no jumps, no switching, and u = 0 the weights satisfy
        1/(rk) + a + b = c, which is what makes constants invariant under the
        raw balance (the discrete analogue of r*const = 0 + r*const)."""
        op = self.operator(mode, price_cap=57.5)
        r, k = 0.05, op.grid.time_step
        np.testing.assert_allclose(1.0 / (r * k) + op.a_vec + op.b_vec, op.center_base,
                                   rtol=1e-12)
        _, den = op.control_terms(0.0)
        np.testing.assert_array_equal(den, 1.0 + op.center_base)

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

    def test_sweep_temporaries_are_bounded_by_the_budget(self):
        """A full sweep's traced peak is O(block bytes x threads), not
        O(slices per block x slice bytes): about six block-sized arrays are
        alive per thread. The slice here (401 x 101 nodes, 324 KB) is just
        under the budget, so a block is one slice; ten-slice blocks peak
        at about 26 MB against the bound's 5.4 MB on two threads."""
        grid = build_grid(horizon=2.0, price_cap=100.0, reserve_capacity=10.0, time_step=0.1,
                          price_step=0.25, reserve_step=0.1, n_regimes=2)
        slice_bytes = grid.n_x * grid.n_y * 8
        assert solver.sweep_block(grid) == 1 and slice_bytes > 0.9 * solver.SWEEP_BLOCK_BYTES
        op = DiscreteOperator(reference_model(horizon=2.0), grid, SolverConfig())
        V = np.random.default_rng(19).uniform(-100.0, 400.0, size=grid.shape)
        bound = 8 * max(solver.SWEEP_BLOCK_BYTES, slice_bytes) * solver.SWEEP_WORKERS
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            op.sweep(V, change=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak - base < bound, f"traced peak {(peak - base) / 1e6:.1f} MB"


class TestSweepThreads:
    """The blocks of a full sweep run on the calling thread (even tasks) and
    one pool worker (odd tasks), each reducing its own largest change.
    Every test forces the worker count, so it holds on a one-CPU machine."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_in_the_last_block_names_sweep_and_node(self, workers, monkeypatch):
        """A NaN planted by sweep 3 in the last block of the last regime must
        raise the typed error naming that sweep and node, not be dropped by
        the reduction of the block maxima."""
        monkeypatch.setattr(solver, "SWEEP_WORKERS", workers)
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_maxima_in_two_blocks_give_the_first_node(self, workers, monkeypatch):
        """Two equal mismatches, in the worker's block 1 and the calling
        thread's block 2: dpp_residual reports the first in C order, as an
        argmax over the full mismatch field does."""
        monkeypatch.setattr(solver, "SWEEP_WORKERS", workers)
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

    def test_paper_faithful_control_too_large_raises_in_the_calling_thread(self, monkeypatch):
        """A paper-faithful operator built at u_max = 0 sweeps at u = 0, and a
        pinned positive control raises the operator's MonotonicityError from
        sweep, before any task runs; only the calling thread ever builds
        control terms."""
        monkeypatch.setattr(solver, "SWEEP_WORKERS", 2)
        op = DiscreteOperator(single_regime_model(), small_grid(price_cap=57.5),
                              SolverConfig(mode="paper_faithful"))
        builders = []
        real = DiscreteOperator.control_terms

        def recording(self, u):
            if float(u) not in self._terms:
                builders.append(threading.current_thread() is threading.main_thread())
            return real(self, u)

        monkeypatch.setattr(DiscreteOperator, "control_terms", recording)
        tasks = []
        real_task = DiscreteOperator._best_candidate
        monkeypatch.setattr(DiscreteOperator, "_best_candidate",
                            lambda self, *a, **kw: tasks.append(a) or real_task(self, *a, **kw))
        V = op.initial_guess()
        op.sweep(V, controls=[0.0])
        swept = len(tasks)
        weight = "the weight -u/(rl) = -0.2 on V(y + l) at u=0.005"
        with pytest.raises(MonotonicityError, match=re.escape(weight)):
            op.sweep(V, controls=[0.005])
        assert swept > 0 and len(tasks) == swept
        assert builders and all(builders)

    def test_threaded_sweeps_hold_under_a_short_switch_interval(self, monkeypatch):
        """Thread switches forced every microsecond, one slice per task, and
        a dense control scan whose terms a fresh operator builds during the
        threaded sweep: the bits equal the serial sweep's every time."""
        model, grid = reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2)
        V = np.random.default_rng(13).uniform(-100.0, 400.0, size=grid.shape)
        dense = np.linspace(0.0, 50000.0, 9)
        monkeypatch.setattr(solver, "SWEEP_WORKERS", 1)
        serial = DiscreteOperator(model, grid, SolverConfig()).sweep(V, dense)
        monkeypatch.setattr(solver, "SWEEP_WORKERS", 2)
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", block_budget(grid, 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                op = DiscreteOperator(model, grid, SolverConfig())
                assert np.array_equal(op.sweep(V, dense), serial)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_process_starts_its_own_sweep_thread(self, monkeypatch):
        """A child forked after a threaded sweep inherits the pool object but
        not its thread; its own sweeps must still finish, with the same bits."""
        monkeypatch.setattr(solver, "SWEEP_WORKERS", 2)
        op = DiscreteOperator(reference_model(horizon=2.5), small_grid(horizon=2.5, n_regimes=2),
                              SolverConfig())
        V = np.random.default_rng(17).uniform(-100.0, 400.0, size=op.grid.shape)
        expect = op.sweep(V)  # starts this process's sweep thread

        def child():
            sys.exit(0 if np.array_equal(op.sweep(V), expect) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0

    def test_threaded_sweep_matches_serial_on_a_blas_threaded_grid(self, monkeypatch):
        """With 401 price nodes OpenBLAS threaded the dense jump product
        under the sweep's own threads; the bits must not move (for the BLAS
        thread count itself, see TestJumpBands)."""
        model = reference_model(horizon=1.0)
        grid = blas_threaded_grid()
        assert grid.n_x >= 401
        op = DiscreteOperator(model, grid, SolverConfig())
        V = np.random.default_rng(11).uniform(-100.0, 400.0, size=grid.shape)
        monkeypatch.setattr(solver, "SWEEP_WORKERS", 1)
        serial = op.sweep(V)
        monkeypatch.setattr(solver, "SWEEP_WORKERS", 2)
        for _ in range(2):
            assert np.array_equal(op.sweep(V), serial)


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

    # 0 * inf in the product and inf - inf in the change, on either sweep thread
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
