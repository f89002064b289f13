import io
import multiprocessing
import os
import time

import numpy as np
import pytest
from conftest import leaves_nothing
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
from oilopt import fork
from oilopt import grid as grid_module
from oilopt.policy import extract_policy, switching_function, write_policy_csv


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


def operator_on(grid, measure=None, u_max=1.0):
    """Upwind operator on `grid`; jump destinations are x + z."""
    M = grid.n_regimes
    dyn = Dynamics(kappa=0.01, mu=(55.0,) * M, sigma=(0.2,) * M, jump_scale=(1.0,) * M,
                   discount_rate=0.05)
    eco = Economics(fixed_cost=0.0, marginal_cost=20.0, reserve_slope=0.0,
                    reserve_offset=1.0, u_max=u_max, reserve_capacity=grid.reserve_capacity,
                    horizon=grid.horizon, terminal_offset=20.0)
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
    assert np.all(op.a_plane[:, [0, -1]] != 0.0) and np.all(op.b_plane[:, [0, -1]] != 0.0)
    V = np.random.default_rng(1).normal(size=grid.shape)
    r, k = op.r, grid.time_step
    for m, lo, hi in [(0, 0, 1), (1, 40, 50)]:
        Vt = V[m, lo:hi]
        up = np.concatenate([Vt[..., 1:, :], Vt[..., -1:, :]], axis=-2)
        down = np.concatenate([Vt[..., :1, :], Vt[..., :-1, :]], axis=-2)
        want = V[m, lo + 1 : hi + 1] / (r * k)
        want += op.a_plane[m][:, :1] * up
        want += op.b_plane[m][:, :1] * down
        got = op._base_block(V, m, lo, hi)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    below = op.reserve_neighbor(V)  # upwind reads the reserve neighbor at y - l
    assert np.array_equal(below[..., 1:], V[..., :-1])
    assert np.array_equal(below[..., 0], V[..., 0])


def test_reserve_neighbor_reads_any_layout(grid):
    """reserve_neighbor flat-shifts its input by one node, so it must give
    the sliced read on inputs that are not C-contiguous: one time slice of
    the field across regimes (what the switching field passes), a
    Fortran-ordered array and a reversed view. It returns a new array that
    shares no memory with its input; unscaled, it keeps every bit."""
    op = operator_on(grid)
    V = np.random.default_rng(3).normal(size=grid.shape)
    V[0, 5, 7, 0], V[1, 5, 9, -1], V[0, 5, 11, 3] = np.nan, -np.inf, -0.0
    for block in (V[:, 5], np.asfortranarray(V[1, 2:6]), V[:, 5, ::-1], V[1, 3], V[0, 4, 6]):
        want = np.empty_like(block)
        want[..., 1:], want[..., 0] = block[..., :-1], block[..., 0]
        for scale in (1.0, 2.5):
            got = op.reserve_neighbor(block, scale)
            expect = want * scale
            assert got.shape == block.shape and got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))
            assert not np.shares_memory(got, block)
        assert np.array_equal(op.reserve_neighbor(block).view(np.int64), want.view(np.int64))


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


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="needs the fork start method")


@pytest.fixture
def split_csv(monkeypatch):
    """Format every node CSV on two processes; the returned function runs a
    writer in one process instead. No child and no new descriptor is left
    after the test."""
    monkeypatch.setattr(grid_module, "SPLIT_MIN_ROWS", 0)
    monkeypatch.setattr(fork, "WORKERS", 2)

    def in_one_process(write, *args):
        monkeypatch.setattr(fork, "WORKERS", 1)
        try:
            return write(*args)
        finally:
            monkeypatch.setattr(fork, "WORKERS", 2)

    with leaves_nothing():
        yield in_one_process


def node_grid(n_s):
    return build_grid(horizon=0.5 * (n_s - 1), price_cap=3.0, reserve_capacity=1.5,
                      time_step=0.5, price_step=0.5, reserve_step=0.5, n_regimes=2)


def hard_field(g):
    """Random values with every HARD_FLOATS entry and a NaN on every slice."""
    values = np.random.default_rng(g.n_s).normal(scale=50.0, size=g.shape)
    half = len(HARD_FLOATS) // 2  # 5 of the 7 price nodes
    values[0, :, :half, 1] = HARD_FLOATS[:half]
    values[1, :, :half, 2] = HARD_FLOATS[half:]
    values[1, :, 6, 3] = np.nan
    return GridField(g, values)


def reference_policy_csv(field, op) -> str:
    """policy.csv built node by node: every cell the repr of its float."""
    switching = switching_function(field, op)
    G, u = switching.values, extract_policy(switching, op.model).values
    g = field.grid
    lines = ["s,x,y,regime,G,u_star"]
    for si, s in enumerate(g.s_values.tolist()):
        for xi, x in enumerate(g.x_values.tolist()):
            for yi, y in enumerate(g.y_values.tolist()):
                for m in range(g.n_regimes):
                    node = (m, si, xi, yi)
                    lines.append(f"{s!r},{x!r},{y!r},{m},{G[node].item()!r},{u[node].item()!r}")
    return "\n".join(lines) + "\n"


def written(write, args, target, tmp_path):
    """(bytes, processes) of write(*args, target): a path or a StringIO."""
    if target == "buffer":
        buf = io.StringIO()
        workers = write(*args, buf)
        return buf.getvalue().encode(), workers
    path = tmp_path / f"out{len(list(tmp_path.iterdir()))}.csv"
    workers = write(*args, path)
    return path.read_bytes(), workers


def write_value_csv(field, target):
    return field.to_csv(target)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # G of 1e308
@pytest.mark.parametrize("u_max", [0.0, -0.0, 2.5])
def test_u_star_cells_are_the_reprs_of_the_policy(u_max):
    """u_star's two cached strings are repr(+0.0) and repr(u_max): a NaN G
    waits (0.0), and u_max = -0.0 writes -0.0 where G > 0."""
    field = hard_field(node_grid(3))
    op = operator_on(field.grid, u_max=u_max)
    text, workers = written(write_policy_csv, (field, op), "buffer", None)
    assert (text.decode(), workers) == (reference_policy_csv(field, op), 1)
    assert ",nan,0.0\n" in text.decode() and f",{u_max!r}\n" in text.decode()


@needs_fork
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # G of 1e308
class TestTwoProcessCsv:
    @pytest.mark.parametrize("target", ["path", "buffer"])
    @pytest.mark.parametrize("n_s", [2, 3, 4, 7])
    def test_split_writes_the_in_process_bytes(self, split_csv, tmp_path, n_s, target):
        """value.csv and policy.csv: odd and even slice counts, the smallest
        (one slice per process), to a path and to a StringIO."""
        field = hard_field(node_grid(n_s))
        op = operator_on(field.grid)
        for write, args in ((write_value_csv, (field,)), (write_policy_csv, (field, op))):
            split = written(write, args, target, tmp_path)
            single = written(lambda *a: split_csv(write, *a), args, target, tmp_path)
            assert (split[1], single[1]) == (2, 1)
            assert split[0] == single[0]
        assert split[0].decode() == reference_policy_csv(field, op)  # the last: policy.csv

    def test_each_slice_is_read_once_in_order_within_each_half(self, split_csv, tmp_path):
        g = node_grid(5)  # slices 0-2 here, 3-4 in the worker
        field = hard_field(g)
        log = tmp_path / "calls"

        def columns(si):
            with open(log, "a", encoding="utf-8") as fh:  # O_APPEND: whole lines
                fh.write(f"{os.getpid()} {si}\n")
            return (field.values[:, si],)

        buf = io.StringIO()
        assert grid_module.write_node_csv(g, ("value",), columns, buf) == 2
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert [si for pid, si in calls if pid == os.getpid()] == [0, 1, 2]
        assert [si for pid, si in calls if pid != os.getpid()] == [3, 4]
        assert len({pid for pid, _ in calls}) == 2
        assert buf.getvalue() == written(write_value_csv, (field,), "buffer", None)[0].decode()

    def test_worker_exception_reraises_in_the_caller(self, split_csv):
        field = hard_field(node_grid(4))
        caller = os.getpid()

        def columns(si):
            if os.getpid() != caller:
                raise SliceFailure(f"slice {si} in the worker")
            return (field.values[:, si],)

        with pytest.raises(SliceFailure, match="slice 2 in the worker"):
            grid_module.write_node_csv(field.grid, ("value",), columns, io.StringIO())
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_raises_instead_of_hanging(self, split_csv):
        field = hard_field(node_grid(4))
        caller = os.getpid()

        def columns(si):
            if os.getpid() != caller:
                os._exit(3)
            return (field.values[:, si],)

        with pytest.raises(RuntimeError, match=r"CSV worker process died \(exit code 3\)"):
            grid_module.write_node_csv(field.grid, ("value",), columns, io.StringIO())
        assert multiprocessing.active_children() == []

    def test_caller_exception_stops_and_reaps_the_worker(self, split_csv):
        """The worker would sleep for a minute: it must be stopped, not waited for."""
        field = hard_field(node_grid(4))
        caller = os.getpid()

        def columns(si):
            if os.getpid() != caller:
                time.sleep(60)
            elif si == 1:
                raise SliceFailure("caller")
            return (field.values[:, si],)

        t0 = time.monotonic()
        with pytest.raises(SliceFailure, match="caller"):
            grid_module.write_node_csv(field.grid, ("value",), columns, io.StringIO())
        assert time.monotonic() - t0 < 30.0
        assert multiprocessing.active_children() == []


class SliceFailure(Exception):
    pass
