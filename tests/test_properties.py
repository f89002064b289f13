"""Property tests of the upwind scheme over random small models.

Barles & Souganidis (1991): a monotone, stable and consistent scheme
converges to the viscosity solution. Monotonicity is what these tests pin,
on the arrays the solver actually iterates: nonnegative neighbor weights,
positive center denominators, a raised price or reserve row that lowers no
node (for the paper-faithful stencil too, wherever it builds), and order
preservation of one sweep, for any jump measure. The banded jump product
keeps the dense product's bits on every such model, and the plane-wise
block update the column-broadcast form's, non-finite values included.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from conftest import (column_base_block, column_best_candidate, dense_base_block,
                      per_slice_sweep)
from hypothesis import example, given, settings, strategies as st

from oilopt import (
    DiscreteOperator,
    Dynamics,
    Economics,
    GridField,
    LevyMeasure,
    MarketModel,
    MonotonicityError,
    SolverConfig,
    build_grid,
    dpp_residual,
    solve,
    solver,
)


def per_regime(n, lo, hi):
    return st.tuples(*[st.floats(lo, hi)] * n)


@st.composite
def measures(draw):
    if draw(st.booleans()):
        return LevyMeasure.uniform(draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 2.0)))
    return LevyMeasure.atoms(draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1.0)),
                                           min_size=1, max_size=4)))


def small_grid(n_regimes):
    return build_grid(horizon=1.0, price_cap=10.0, reserve_capacity=2.0, time_step=0.5,
                      price_step=0.5, reserve_step=0.5, n_regimes=n_regimes)


def upwind_operator(problem):
    return DiscreteOperator(*problem, SolverConfig(mode="upwind"))


@st.composite
def small_problems(draw):
    """(model, grid): a 1-2 regime model with a grid of 3 x 21 x 5 nodes per regime."""
    n = draw(st.integers(1, 2))
    if n == 1:
        generator = [[0.0]]
    else:
        q01, q10 = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
        generator = [[-q01, q01], [q10, -q10]]
    dyn = Dynamics(
        kappa=draw(st.floats(0.0, 2.0)),
        mu=draw(per_regime(n, 0.0, 10.0)),
        sigma=draw(per_regime(n, 0.0, 3.0)),
        jump_scale=draw(per_regime(n, 0.0, 0.5)),
        discount_rate=draw(st.floats(0.01, 0.5)),
    )
    eco = Economics(
        fixed_cost=draw(st.floats(0.0, 5.0)),
        marginal_cost=draw(st.floats(0.1, 20.0)),
        reserve_slope=draw(st.floats(0.0, 1.0)),
        reserve_offset=draw(st.floats(0.0, 1.0)),
        u_max=draw(st.floats(0.0, 100.0)),
        reserve_capacity=2.0,
        horizon=1.0,
        terminal_offset=draw(st.floats(0.0, 5.0)),
    )
    model = MarketModel(
        generator=np.array(generator),
        dynamics=dyn,
        economics=eco,
        measure=draw(measures()),
        jump_convention=draw(st.sampled_from(["proportional", "additive"])),
    )
    return model, small_grid(n)


def small_models():
    """Upwind operators on small_problems()."""
    return small_problems().map(upwind_operator)


def skewed_atom_problem(z):
    """One regime whose single small jump atom at z (mass 1, gamma 0.5) has a
    compensator, 0.5*x*z, that outweighs the mean reversion 0.01*(5 - x) at
    every price node above 0."""
    dyn = Dynamics(kappa=0.01, mu=(5.0,), sigma=(0.2,), jump_scale=(0.5,), discount_rate=0.05)
    eco = Economics(fixed_cost=1.0, marginal_cost=1.0, reserve_slope=0.0, reserve_offset=1.0,
                    u_max=4.0, reserve_capacity=2.0, horizon=1.0, terminal_offset=1.0)
    model = MarketModel(generator=np.array([[0.0]]), dynamics=dyn, economics=eco,
                        measure=LevyMeasure.atoms([(z, 1.0)]))
    return model, small_grid(1)


@settings(max_examples=25, deadline=None)
@example(problem=skewed_atom_problem(0.3))
@example(problem=skewed_atom_problem(0.9))
@given(problem=small_problems())
def test_neighbor_weights_nonnegative(problem):
    """a_plane and b_plane are the weights the sweep applies to the price
    neighbors, for any jump measure."""
    op = upwind_operator(problem)
    assert np.all(op.a_plane >= 0.0)
    assert np.all(op.b_plane >= 0.0)


@settings(max_examples=25, deadline=None)
@example(problem=skewed_atom_problem(0.3))
@example(problem=skewed_atom_problem(0.9))
@given(problem=small_problems())
def test_center_denominators_positive(problem):
    op = upwind_operator(problem)
    for u in np.linspace(0.0, op.model.economics.u_max, 5):
        _, den = op.control_terms(u)
        assert np.all(den > 0.0), f"1+c <= 0 at u={u}"


def pure_diffusion_problem(u_max):
    """One regime with no mean reversion and no jumps: every paper-faithful
    price weight is sigma^2/(2rh^2) > 0, so only the reserve stencil decides
    whether that stencil builds."""
    dyn = Dynamics(kappa=0.0, mu=(5.0,), sigma=(1.0,), jump_scale=(0.0,), discount_rate=0.05)
    eco = Economics(fixed_cost=1.0, marginal_cost=1.0, reserve_slope=0.0, reserve_offset=1.0,
                    u_max=u_max, reserve_capacity=2.0, horizon=1.0, terminal_offset=1.0)
    model = MarketModel(generator=np.array([[0.0]]), dynamics=dyn, economics=eco,
                        measure=LevyMeasure.null())
    return model, small_grid(1)


@settings(max_examples=25, deadline=None)
@example(problem=skewed_atom_problem(0.3), seed=0, row=10, axis="price", mode="upwind")
@example(problem=skewed_atom_problem(0.9), seed=0, row=10, axis="price", mode="upwind")
@example(problem=pure_diffusion_problem(1.0), seed=0, row=3, axis="reserve",
         mode="paper_faithful")
@example(problem=pure_diffusion_problem(0.0), seed=0, row=3, axis="reserve",
         mode="paper_faithful")
@given(problem=small_problems(), seed=st.integers(0, 2**32 - 1), row=st.integers(0, 20),
       axis=st.sampled_from(["price", "reserve"]),
       mode=st.sampled_from(["upwind", "paper_faithful"]))
def test_raising_a_price_row_lowers_no_node(problem, seed, row, axis, mode):
    """Raising one price or reserve row of the field by 1 lowers no node of
    the sweep, whatever the control. Every weight the sweep applies is
    nonnegative and rounding is monotone, so this holds exactly. A reserve
    row is the drawn index modulo n_y. A stencil that refuses the problem
    (MonotonicityError) iterates nothing, so passes."""
    try:
        op = DiscreteOperator(*problem, SolverConfig(mode=mode))
    except MonotonicityError:
        return
    V = np.random.default_rng(seed).uniform(-100.0, 400.0, size=op.grid.shape)
    raised = V.copy()
    if axis == "price":
        raised[:, :, row, :] += 1.0
    else:
        raised[..., row % op.grid.n_y] += 1.0
    for u in op.controls:
        lower, upper = op.sweep(V, controls=[u]), op.sweep(raised, controls=[u])
        drop = float(np.max(lower - upper))
        assert np.all(upper >= lower), f"u={u}: a node drops by {drop:.3g}"


def slow_contraction_operator():
    """A model whose sweeps contract by only ~0.87 per iteration."""
    dyn = Dynamics(kappa=0.0, mu=(0.0,), sigma=(2.0,), jump_scale=(0.0,), discount_rate=0.5)
    eco = Economics(fixed_cost=0.0, marginal_cost=1.0, reserve_slope=0.0, reserve_offset=0.0,
                    u_max=0.0, reserve_capacity=2.0, horizon=1.0, terminal_offset=0.0)
    model = MarketModel(generator=np.array([[0.0]]), dynamics=dyn, economics=eco,
                        measure=LevyMeasure.atoms([(2.0, 0.5)]))
    return upwind_operator((model, small_grid(1)))


@pytest.mark.xfail(
    strict=True,
    reason="both sweeps stop on a one-sweep residual below the tolerance, which bounds "
    "the distance to the fixed point only by q/(1-q) times the tolerance for a "
    "contraction factor q: at q = 0.87 jacobi stops 6.4e-6 from it and the orders "
    "differ by 5.0e-6",
)
@settings(max_examples=25, deadline=None)
@example(op=slow_contraction_operator())
@given(op=small_models())
def test_sweep_orders_reach_the_same_fixed_point(op):
    """jacobi and backward iterate the same operator, so their fixed points
    should agree within twice the tolerance."""
    cfg = SolverConfig(mode="upwind")
    jacobi, _ = solve(op.model, op.grid, cfg)
    backward, _ = solve(op.model, op.grid, dataclasses.replace(cfg, sweep="backward"))
    gap = float(np.max(np.abs(jacobi.values - backward.values)))
    assert gap <= 2 * cfg.tolerance, f"sweep orders differ by {gap:.3g}"


@settings(max_examples=25, deadline=None)
@given(op=small_models())
def test_backward_field_is_a_jacobi_fixed_point(op):
    """The reserve scan leaves a field that one jacobi sweep moves by less
    than the tolerance."""
    cfg = SolverConfig(mode="upwind", sweep="backward")
    field, _ = solve(op.model, op.grid, cfg)
    mismatch, info = dpp_residual(field, op)
    assert mismatch < cfg.tolerance, f"one sweep moves {info['node']} by {mismatch:.3g}"


@settings(max_examples=25, deadline=None)
@given(op=small_models())
def test_backward_field_is_a_jacobi_fixed_point_on_nine_slices(op):
    """small_models() grids carry 3 slices; at time step 0.125 the backward
    solve runs every warm-start order, the cubic included. Each slice still
    settles below the inner tolerance, and one jacobi sweep moves the field
    by less than the tolerance."""
    grid = dataclasses.replace(op.grid, time_step=0.125)
    cfg = SolverConfig(mode="upwind", sweep="backward")
    field, report = solve(op.model, grid, cfg)
    assert len(report.slices) == grid.n_s - 1 == 8
    inner_tol = cfg.tolerance * report.operator.r * grid.time_step * 0.5
    assert all(change < inner_tol for _, change in report.slices)
    mismatch, info = dpp_residual(field, report.operator)
    assert mismatch < cfg.tolerance, f"one sweep moves {info['node']} by {mismatch:.3g}"


@settings(max_examples=25, deadline=None)
@given(op=small_models(), seed=st.integers(0, 2**32 - 1))
def test_endpoint_sweep_is_the_maximum_of_pinned_sweeps(op, seed):
    """sweep(controls=[u]) pins the control: the endpoint sweep is, bit for
    bit, the u = 0 sweep raised to the u_max sweep off the empty reserve.
    On the empty reserve every control list extracts nothing."""
    V = np.random.default_rng(seed).uniform(-100.0, 400.0, size=op.grid.shape)
    expect = op.sweep(V, controls=[0.0])
    pinned = op.sweep(V, controls=[op.model.economics.u_max])
    assert np.array_equal(pinned[..., 0], expect[..., 0])
    np.maximum(expect[..., 1:], pinned[..., 1:], out=expect[..., 1:])
    assert np.array_equal(op.sweep(V), expect)


@settings(max_examples=25, deadline=None)
@given(op=small_models(), seed=st.integers(0, 2**32 - 1))
def test_dense_control_scan_equals_the_endpoint_sweep(op, seed):
    """Bang-bang: both sides of the balance are affine in u, so a dense scan
    of [0, u_max] finds nothing better than its endpoints. The scan holds
    the endpoint candidates bit for bit, so it is never below the endpoint
    sweep; an interior control can win only by rounding."""
    V = np.random.default_rng(seed).uniform(-100.0, 400.0, size=op.grid.shape)
    endpoints = op.sweep(V)
    dense = op.sweep(V, controls=np.linspace(0.0, op.model.economics.u_max, 7))
    assert np.all(dense >= endpoints)
    gain = float(np.max(dense - endpoints))
    assert gain <= 1e-12 * max(1.0, float(np.max(np.abs(V)))), f"interior gain {gain:.3g}"


@settings(max_examples=25, deadline=None)
@given(op=small_models(), seed=st.integers(0, 2**32 - 1))
def test_sweep_preserves_order(op, seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        lower = rng.uniform(-100.0, 400.0, size=op.grid.shape)
        upper = lower + rng.uniform(0.0, 10.0, size=lower.shape)
        assert np.all(op.sweep(lower) <= op.sweep(upper) + 1e-9)


@settings(max_examples=25, deadline=None)
@given(op=small_models(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_blocks_and_threads_move_no_bit(op, seed, data):
    """Any block size and either thread count gives the bits of one block
    swept serially: every sweep, the jacobi residual history and field, and
    dpp_residual's worst node."""
    n_s, u_max = op.grid.n_s, op.model.economics.u_max
    block = data.draw(st.integers(1, n_s), label="time slices per block")
    workers = data.draw(st.sampled_from([1, 2]), label="SWEEP_WORKERS")
    V = np.random.default_rng(seed).uniform(-100.0, 400.0, size=op.grid.shape)
    field = GridField(op.grid, V)
    cfg = SolverConfig(mode="upwind")

    def run(block_size, threads):
        budget = block_size * op.grid.n_x * op.grid.n_y * 8
        with (mock.patch.object(solver, "SWEEP_BLOCK_BYTES", budget),
              mock.patch.object(solver, "SWEEP_WORKERS", threads)):
            assert solver.sweep_block(op.grid) == block_size
            sweeps = [op.sweep(V, c) for c in (None, [0.0], [u_max], np.linspace(0.0, u_max, 7))]
            solved, report = solve(op.model, op.grid, cfg)
            return sweeps, solved.values, report.residuals, dpp_residual(field, op)

    sweeps, values, residuals, worst = run(n_s, 1)
    got_sweeps, got_values, got_residuals, got_worst = run(block, workers)
    for one, other in zip(sweeps, got_sweeps):
        assert np.array_equal(one, other)
    assert np.array_equal(values, got_values)
    assert residuals == got_residuals
    assert worst == got_worst


@settings(max_examples=20, deadline=None)
@given(problem=small_problems(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_copied_leading_slices_keep_the_per_slice_bits(problem, seed, data):
    """Whatever run of bitwise copies of slice 0 leads the field (none, one
    slice, a block less one, a block, every slice below the horizon, and the
    initial guess's every slice), for the endpoint pair, a dense list and a
    pinned control, with `out` or without and with `change` or without, the
    sweep gives the per-slice update's bits and its largest change and node.
    With slices 0..j copies it computes only the blocks from the one holding
    slice max(j - 1, 0) on."""
    model, grid = problem
    grid = build_grid(horizon=1.0, price_cap=10.0, reserve_capacity=2.0, time_step=0.1,
                      price_step=0.5, reserve_step=0.5, n_regimes=grid.n_regimes)
    op = upwind_operator((model, grid))
    n, u_max = grid.n_s - 1, model.economics.u_max
    block = data.draw(st.integers(2, 4), label="time slices per block")
    workers = data.draw(st.sampled_from([1, 2]), label="SWEEP_WORKERS")
    rng = np.random.default_rng(seed)
    with (mock.patch.object(solver, "SWEEP_BLOCK_BYTES", block * grid.n_x * grid.n_y * 8),
          mock.patch.object(solver, "SWEEP_WORKERS", workers)):
        for length in (0, 1, block - 1, block, n, n + 1):
            V = op.initial_guess() if length == n + 1 else rng.uniform(-100.0, 400.0, grid.shape)
            V[:, 1:length] = V[:, :1]
            r = max(length - 2, 0)
            updates = grid.n_regimes * (n - (r - r % block))
            for controls in (None, np.linspace(0.0, u_max, 5), [u_max]):
                want, want_change = per_slice_sweep(op, V, controls)
                for given_out in (False, True):
                    for change in (False, True):
                        out = np.full_like(V, np.nan) if given_out else None  # no slice left unset
                        before = op.slice_updates
                        got = op.sweep(V, controls, out=out, change=change)
                        assert op.slice_updates - before == updates
                        if change:
                            assert got == want_change, (length, controls)
                            got = out
                        if got is not None:
                            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=25, deadline=None)
@given(problem=small_problems(), rows=st.integers(3, 21), seed=st.integers(0, 2**32 - 1))
def test_jump_bands_keep_the_dense_products_bits(problem, rows, seed):
    """For any band height from 3 rows up (bands of 2 rows or more on 21
    price nodes) and either jump convention, every regime's base block is
    the dense product's, bit for bit."""
    with mock.patch.object(solver, "_JUMP_BAND_ROWS", rows):
        op = upwind_operator(problem)
    if op.jump_mat[0] is None:
        return
    assert all(r1 - r0 >= 2 for bands in op.jump_bands for r0, r1, *_ in bands)
    V = np.random.default_rng(seed).uniform(-100.0, 400.0, size=op.grid.shape)
    n = op.grid.n_s - 1
    for m in range(op.grid.n_regimes):
        got, want = op._base_block(V, m, 0, n), dense_base_block(op, V, m, 0, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=25, deadline=None)
@given(problem=small_problems(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_plane_blocks_keep_the_column_broadcast_bits(problem, seed, data):
    """On any small model and block, with NaN, +-inf and -0.0 planted on the
    empty-reserve face and above it, _base_block and _best_candidate give
    the column-broadcast form's bits for every control list, frozen and
    scanned: the full maximum over a candidate whose y = 0 column is a copy
    of the best one keeps what the maximum over y >= 1 kept."""
    op = upwind_operator(problem)
    g, u_max = op.grid, op.model.economics.u_max
    lo = data.draw(st.integers(0, g.n_s - 2), label="lo")
    hi = data.draw(st.integers(lo + 1, g.n_s - 1), label="hi")
    V = np.random.default_rng(seed).uniform(-100.0, 400.0, size=g.shape)
    for value in (np.nan, np.inf, -np.inf, -0.0):
        for y in (0, data.draw(st.integers(1, g.n_y - 1), label="y")):
            node = (data.draw(st.integers(0, g.n_regimes - 1)), data.draw(st.integers(lo, hi)),
                    data.draw(st.integers(0, g.n_x - 1)), y)
            V[node] = value
    lists = [None, [0.0], [u_max], np.linspace(0.0, u_max, 4), [u_max, 0.0]]
    with np.errstate(all="ignore"):
        for m in range(g.n_regimes):
            got, want = op._base_block(V, m, lo, hi), column_base_block(op, V, m, lo, hi)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            for scan in (False, True):
                for controls in lists:
                    got = op._best_candidate(V, m, lo, hi, controls, scan)
                    want = column_best_candidate(op, V, m, lo, hi, controls, scan)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
