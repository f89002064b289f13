import io

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from oilopt import (
    DiscreteOperator,
    Dynamics,
    Economics,
    GridField,
    LevyMeasure,
    MarketModel,
    SolverConfig,
    build_grid,
)
from oilopt import grid as grid_module


@pytest.fixture
def grid():
    return build_grid(horizon=10.0, price_cap=100.0, reserve_capacity=10.0,
                      time_step=0.1, price_step=0.5, reserve_step=0.5, n_regimes=2)


def test_node_counts(grid):
    assert grid.shape == (2, 101, 201, 21)
    assert grid.n_s == 101
    assert grid.n_x == 201
    assert grid.n_y == 21


def test_node_counts_computed_once(monkeypatch):
    """The sizes are validated and counted at construction, then cached."""
    calls = []
    count = grid_module._node_count
    monkeypatch.setattr(grid_module, "_node_count", lambda *a: calls.append(a) or count(*a))
    g = build_grid(10.0, 100.0, 10.0, 0.1, 0.5, 0.5, 2)
    for _ in range(5):
        g.nearest_indices(1.0, np.array([3.0]), np.array([2.0]))
        assert g.shape == (2, 101, 201, 21)
    assert len(calls) == 3


def test_axis_values(grid):
    assert grid.s_values[0] == 0.0
    assert grid.s_values[-1] == pytest.approx(10.0)
    assert grid.x_values[-1] == pytest.approx(100.0)
    assert grid.y_values[1] == pytest.approx(0.5)


def test_step_must_divide_span():
    with pytest.raises(ValueError, match="must divide the span"):
        build_grid(horizon=10.0, price_cap=100.0, reserve_capacity=10.0,
                   time_step=0.3, price_step=0.5, reserve_step=0.5, n_regimes=1)


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1])
def test_step_range(bad):
    with pytest.raises(ValueError, match="lie in"):
        build_grid(horizon=10.0, price_cap=100.0, reserve_capacity=10.0,
                   time_step=bad, price_step=0.5, reserve_step=0.5, n_regimes=1)


def test_nearest_indices(grid):
    assert grid.nearest_indices(0.0, 50.0, 4.0) == (0, 100, 8)
    # midpoints round to nearest, off-grid clamps
    assert grid.nearest_indices(10.4, 50.26, -3.0) == (100, 101, 0)


def test_nearest_indices_of_arrays_and_scalars_agree(grid):
    """Half-way ties round to even and points outside the box clamp, the
    same for an array and for each of its entries as a scalar."""
    rng = np.random.default_rng(4)
    ties = np.arange(-4.5, 205.0)  # k + 1/2 steps, from below 0 to beyond the cap
    t = np.concatenate([rng.uniform(-1.0, 11.0, 100), ties[:110] * grid.time_step, [10.0]])
    x = np.concatenate([rng.uniform(-20.0, 120.0, 100), ties[:111] * grid.price_step])
    y = np.concatenate([rng.uniform(-2.0, 12.0, 100), ties[:111] % 30.0 * grid.reserve_step])
    steps = (grid.time_step, grid.price_step, grid.reserve_step)
    got = grid.nearest_indices(t, x, y)
    for v, step, n, idx in zip((t, x, y), steps, grid.shape[1:], got):
        assert idx.dtype == int
        assert np.array_equal(idx, np.clip(np.rint(v / step), 0, n - 1))
    for k in range(t.size):
        assert grid.nearest_indices(t[k], x[k], y[k]) == tuple(idx[k] for idx in got)
    assert grid.nearest_indices(np.array(10.45), 50.25, np.array(4.0)) == (100, 100, 8)  # 0-d


def operator_on(grid, measure=None):
    """Upwind operator on the fixture grid; jump destinations are x + z."""
    M = grid.n_regimes
    dyn = Dynamics(kappa=0.01, mu=(55.0,) * M, sigma=(0.2,) * M, jump_scale=(1.0,) * M,
                   discount_rate=0.05)
    eco = Economics(fixed_cost=0.0, marginal_cost=20.0, reserve_slope=0.0,
                    reserve_offset=1.0, u_max=1.0, reserve_capacity=10.0, horizon=10.0,
                    terminal_offset=20.0)
    generator = np.zeros((M, M))
    return DiscreteOperator(
        MarketModel(generator=generator, dynamics=dyn, economics=eco,
                    measure=measure or LevyMeasure.null(), jump_convention="additive"),
        grid, SolverConfig(),
    )


def test_interpolated_lookup(grid):
    """Jump-matrix rows read the field by linear interpolation along the
    price axis at off-node destinations, clamped to the face at the cap."""
    x = grid.x_values  # value = x everywhere
    near = operator_on(grid, LevyMeasure.atoms([(0.25, 1.0)]))
    assert (near.jump_mat[0] @ x)[100] == pytest.approx(50.25)
    assert (near.jump_mat[0] @ x)[-1] == pytest.approx(100.0)
    # every destination lies past the cap: all mass lands on the last node
    far = operator_on(grid, LevyMeasure.atoms([(150.0, 1.0)]))
    P = far.jump_mat[1]
    np.testing.assert_allclose(P @ x, 100.0)
    assert np.all(P[:, -1] == 1.0) and np.all(P[:, :-1] == 0.0)


def test_neighbor_clamps_at_edges(grid):
    """The operator's neighbor reads replicate the face value (zero gradient)."""
    op = operator_on(grid)  # no jumps, no regime coupling: time and price terms only
    assert np.all(op.a_vec[:, [0, -1]] != 0.0) and np.all(op.b_vec[:, [0, -1]] != 0.0)
    V = np.random.default_rng(1).normal(size=grid.shape)
    r, k = op.r, grid.time_step
    for m, lo, hi in [(0, 0, 1), (1, 40, 50)]:
        Vt = V[m, lo:hi]
        up = np.concatenate([Vt[..., 1:, :], Vt[..., -1:, :]], axis=-2)
        down = np.concatenate([Vt[..., :1, :], Vt[..., :-1, :]], axis=-2)
        want = V[m, lo + 1 : hi + 1] / (r * k)
        want += op.a_vec[m][:, None] * up
        want += op.b_vec[m][:, None] * down
        got = op._base_block(V, m, lo, hi)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    below = op.reserve_neighbor(V)  # upwind reads the reserve neighbor at y - l
    assert np.array_equal(below[..., 1:], V[..., :-1])
    assert np.array_equal(below[..., 0], V[..., 0])


def test_csv_round_trip_and_order():
    g = build_grid(horizon=1.0, price_cap=1.0, reserve_capacity=1.0,
                   time_step=0.5, price_step=0.5, reserve_step=0.5, n_regimes=1)
    field = GridField(g)
    field.values[0] = np.arange(field.values[0].size).reshape(field.values[0].shape)
    buf = io.StringIO()
    field.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "s,x,y,regime,value"
    # s outer, then x, then y, then regime
    assert lines[1].startswith("0.0,0.0,0.0,0,")
    assert lines[2].startswith("0.0,0.0,0.5,0,")
    n_rows = g.n_s * g.n_x * g.n_y
    assert len(lines) == 1 + n_rows


def test_csv_deterministic():
    g = build_grid(horizon=1.0, price_cap=2.0, reserve_capacity=1.0,
                   time_step=0.25, price_step=0.5, reserve_step=0.25, n_regimes=2)
    field = GridField(g)
    rng = np.random.default_rng(3)
    field.values[:] = rng.normal(size=field.values.shape)
    a, b = io.StringIO(), io.StringIO()
    field.to_csv(a)
    field.to_csv(b)
    assert a.getvalue() == b.getvalue()
    # plain decimal text, no numpy reprs
    assert "np." not in a.getvalue()


# the floats whose shortest decimal is hardest to read back: signed zeros,
# subnormals, the largest magnitudes and 17-significant-digit values
HARD_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.30000000000000004, -2.9999999999999996]
TINY = build_grid(horizon=1.0, price_cap=1.0, reserve_capacity=1.0,
                  time_step=0.5, price_step=0.5, reserve_step=0.5, n_regimes=2)


def tiny_csv(values=None) -> str:
    buf = io.StringIO()
    GridField(TINY, values).to_csv(buf)
    return buf.getvalue()


def csv_values(text) -> np.ndarray:
    """The value column of a value CSV, read with float(), on TINY's shape."""
    M, n_s, n_x, n_y = TINY.shape
    values = [float(row.rsplit(",", 1)[1]) for row in text.splitlines()[1:]]
    return np.array(values).reshape(n_s, n_x, n_y, M).transpose(3, 0, 1, 2)


@given(arrays(float, TINY.shape, elements=st.one_of(
    st.sampled_from(HARD_FLOATS), st.floats(allow_nan=False, allow_infinity=False))))
def test_csv_values_read_back_bit_exact(values):
    """Every value to_csv writes is a shortest round-trip decimal: read with
    float(), it has the field's bits, signed zeros and subnormals included."""
    read = csv_values(tiny_csv(values))
    assert np.ascontiguousarray(read).tobytes() == values.tobytes()


def test_csv_to_a_path_writes_the_buffer_text(tmp_path):
    field = GridField(TINY, np.arange(np.prod(TINY.shape), dtype=float).reshape(TINY.shape))
    field.to_csv(tmp_path / "value.csv")
    text = (tmp_path / "value.csv").read_text(encoding="utf-8")
    assert text == tiny_csv(field.values)
    assert np.array_equal(csv_values(text), field.values)
