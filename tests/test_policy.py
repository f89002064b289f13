import io

import numpy as np
import pytest

from oilopt import (
    Dynamics,
    Economics,
    GridField,
    LevyMeasure,
    MarketModel,
    SolverConfig,
    build_grid,
    curve_table,
    extract_policy,
    solve,
    switching_curve,
    switching_function,
    write_curve_csv,
    write_policy_csv,
)


@pytest.fixture(scope="module")
def solved():
    dyn = Dynamics(kappa=0.01, mu=(55.0, 35.0), sigma=(0.2, 0.3),
                   jump_scale=(0.1, 0.1), discount_rate=0.05)
    eco = Economics(fixed_cost=5.0, marginal_cost=20.0, reserve_slope=0.0,
                    reserve_offset=1.0, u_max=50000.0, reserve_capacity=10.0,
                    horizon=2.0, terminal_offset=20.0)
    model = MarketModel(generator=np.array([[-0.01, 0.01], [0.15, -0.15]]),
                        dynamics=dyn, economics=eco,
                        measure=LevyMeasure.uniform(1.0, 0.5))
    grid = build_grid(horizon=2.0, price_cap=100.0, reserve_capacity=10.0,
                      time_step=0.1, price_step=0.5, reserve_step=0.5, n_regimes=2)
    cfg = SolverConfig(tolerance=1e-8)
    field, report = solve(model, grid, cfg)
    return model, grid, cfg, field, report.operator


@pytest.fixture(scope="module")
def paper_faithful_solved():
    """The solver tests' paper-faithful problem: one regime, the grid stopped
    at x = 57.5 so every forward price weight stays positive, and u_max 0.005
    so the forward reserve difference leaves 1 + c(u) positive."""
    dyn = Dynamics(kappa=0.01, mu=(55.0,), sigma=(0.2,), jump_scale=(0.0,),
                   discount_rate=0.05)
    eco = Economics(fixed_cost=0.0, marginal_cost=20.0, reserve_slope=0.0,
                    reserve_offset=1.0, u_max=0.005, reserve_capacity=10.0,
                    horizon=1.0, terminal_offset=20.0)
    model = MarketModel(generator=np.array([[0.0]]), dynamics=dyn, economics=eco,
                        measure=LevyMeasure.null())
    grid = build_grid(horizon=1.0, price_cap=57.5, reserve_capacity=10.0,
                      time_step=0.1, price_step=0.5, reserve_step=0.5, n_regimes=1)
    cfg = SolverConfig(tolerance=1e-8, mode="paper_faithful")
    field, report = solve(model, grid, cfg)
    return model, grid, cfg, field, report.operator


def test_terminal_switching_is_twice_the_margin(solved):
    """On the terminal slice V = (K - y)(x - 20), so the reserve difference
    is -(x - 20) and G = (x - 20) + (x - 20): zero exactly at x = 20."""
    model, grid, _, field, op = solved
    sw = switching_function(field, op)
    xi = 40  # x = 20.0
    for m in range(2):
        row = sw.values[m, -1, :, 5]
        assert row[xi] == pytest.approx(0.0, abs=1e-9)
        assert row[xi + 2] == pytest.approx(2.0, abs=1e-9)
        assert row[xi - 2] == pytest.approx(-2.0, abs=1e-9)


def test_policy_is_bang_bang(solved):
    model, grid, _, field, op = solved
    sw = switching_function(field, op)
    pol = extract_policy(sw, model)
    assert set(np.unique(pol.values)) <= {0.0, 50000.0}
    # no extraction from an empty reserve, whatever the sign of G
    assert np.all(pol.values[..., 0] == 0.0)
    inner = pol.values[..., 1:]
    g_inner = sw.values[..., 1:]
    assert np.all(inner[g_inner > 0] == 50000.0)
    assert np.all(inner[g_inner <= 0] == 0.0)


def test_switching_curve_interpolates_linearly():
    grid = build_grid(horizon=1.0, price_cap=10.0, reserve_capacity=1.0,
                      time_step=0.5, price_step=0.5, reserve_step=0.5, n_regimes=1)
    sw = GridField(grid)
    sw.values[:] = (grid.x_values - 3.3)[None, None, :, None]
    x_star, diag = switching_curve(sw, 0, 1, 0)
    assert x_star == pytest.approx(3.3)
    assert diag.crossings == [pytest.approx(3.3)]
    assert not diag.multiple


def test_switching_curve_flags_multiple_crossings():
    grid = build_grid(horizon=1.0, price_cap=2.0, reserve_capacity=1.0,
                      time_step=0.5, price_step=0.5, reserve_step=0.5, n_regimes=1)
    sw = GridField(grid)
    sw.values[0, 0, :, 0] = [-1.0, 1.0, -1.0, 1.0, 1.0]
    x_star, diag = switching_curve(sw, 0, 0, 0)
    assert diag.multiple
    assert len(diag.crossings) == 2
    assert x_star == pytest.approx(0.25)  # first upward crossing wins


def test_switching_curve_none_when_no_crossing():
    grid = build_grid(horizon=1.0, price_cap=2.0, reserve_capacity=1.0,
                      time_step=0.5, price_step=0.5, reserve_step=0.5, n_regimes=1)
    sw = GridField(grid)
    sw.values[:] = -1.0
    x_star, diag = switching_curve(sw, 0, 0, 0)
    assert x_star is None
    assert diag.crossings == []


def test_curve_table_rows_cover_slices(solved):
    model, grid, _, field, op = solved
    sw = switching_function(field, op)
    rows, flagged = curve_table(sw)
    assert len(rows) == 4 * grid.n_y * 2
    assert flagged == []
    # requested time fractions map to actual slice values
    assert sorted({r[0] for r in rows}) == pytest.approx([0.0, 0.8, 1.4, 2.0])


def test_paper_faithful_field_reads_the_forward_difference(paper_faithful_solved):
    """G = -(V(y+l) - V)/l + price - mc bit for bit; the top face reads
    itself, so its reserve term is zero."""
    model, grid, _, field, op = paper_faithful_solved
    V, l = field.values, grid.reserve_step
    margin = (model.price(grid.x_values)[:, None]
              - model.marginal_extraction_cost(grid.y_values)[None, :])
    expected = np.empty_like(V)
    expected[..., :-1] = -(V[..., 1:] - V[..., :-1]) / l + margin[:, :-1]
    expected[..., -1] = margin[:, -1]
    assert np.array_equal(switching_function(field, op).values, expected)


@pytest.mark.parametrize("problem", ["solved", "paper_faithful_solved"],
                         ids=["upwind", "paper_faithful"])
def test_policy_pinned_sweep_reproduces_value(problem, request):
    """Freezing the control at the extracted policy and re-sweeping must
    reproduce the solved field: the G-sign rule and the sweep's argmax agree.
    The policy is bang-bang, so the pinned sweep takes the u_max sweep where
    it extracts and the u = 0 sweep elsewhere (including the empty reserve)."""
    model, grid, cfg, field, op = request.getfixturevalue(problem)
    sw = switching_function(field, op)
    pol = extract_policy(sw, model)
    u_max = model.economics.u_max
    assert 0.0 < np.mean(pol.values == u_max) < 1.0  # both controls are pinned somewhere
    resw = np.where(pol.values == u_max, op.sweep(field.values, controls=[u_max]),
                    op.sweep(field.values, controls=[0.0]))
    assert np.max(np.abs(resw - field.values)) < 50 * cfg.tolerance


def test_curve_csv_format():
    rows = [(0.0, 0.5, 0, 26.5), (0.0, 1.0, 1, None)]
    buf = io.StringIO()
    write_curve_csv(rows, buf)
    out = buf.getvalue().splitlines()
    assert out[0] == "s,y,regime,x_star"
    assert out[1] == "0.0,0.5,0,26.5"
    assert out[2] == "0.0,1.0,1,"


def test_policy_csv_format(solved):
    model, grid, _, field, op = solved
    sw = switching_function(field, op)
    pol = extract_policy(sw, model)
    buf = io.StringIO()
    write_policy_csv(sw, pol, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "s,x,y,regime,G,u_star"
    per_slice = grid.n_x * grid.n_y * 2
    assert len(lines) == 1 + grid.n_s * per_slice
    first = lines[1].split(",")
    assert first[:4] == ["0.0", "0.0", "0.0", "0"]
    slice0 = [row.split(",") for row in lines[1 : 1 + per_slice]]
    assert {row[0] for row in slice0} == {"0.0"}
    assert lines[1 + per_slice].split(",")[0] == repr(grid.s_values[1].item())
    for col, f in ((4, sw), (5, pol)):  # row order x, then y, then regime
        expected = f.values[:, 0].transpose(1, 2, 0).ravel().tolist()
        assert [float(row[col]) for row in slice0] == expected
