import numpy as np
import pytest
from scipy.integrate import quad

from oilopt import (
    ContractionError,
    DiscreteOperator,
    Dynamics,
    Economics,
    LevyMeasure,
    MarketModel,
    SolverConfig,
    build_grid,
    build_quadrature,
    check_contraction,
)


def test_uniform_weight_sum_is_exact():
    # Simpson over the measure's own support integrates a constant exactly
    measure = LevyMeasure.uniform(half_width=1.0, total_mass=2.0)
    scheme = build_quadrature(measure, xi=0.01)
    assert scheme.weight_sum == pytest.approx(2.0, abs=1e-13)
    assert scheme.window == 1.0


@pytest.mark.parametrize("half_width", [1.0, 0.9, 0.3, 0.1])
def test_uniform_compensator_sum_vanishes(half_width):
    # the d family stops at the support edge when the support is narrower than 1
    scheme = build_quadrature(LevyMeasure.uniform(half_width, 0.5), xi=0.01)
    assert scheme.d_nodes.max() == min(1.0, half_width)
    assert abs(scheme.compensator_sum) < 1e-10


def test_quadratic_density_integrated_exactly():
    # composite Simpson is exact through cubics: mass of z^2 on [-1,1] is 2/3
    measure = LevyMeasure.from_density(lambda z: np.asarray(z) ** 2, 1.0)
    scheme = build_quadrature(measure, xi=0.05)
    assert scheme.weight_sum == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_smooth_density_matches_adaptive_quadrature():
    dens = lambda z: 1.0 + np.cos(np.asarray(z))
    measure = LevyMeasure.from_density(dens, 3.0)
    scheme = build_quadrature(measure, xi=0.001)
    expected, _ = quad(lambda z: 1.0 + np.cos(z), -3.0, 3.0)
    assert scheme.weight_sum == pytest.approx(expected, rel=1e-10)


def test_small_jump_family_covers_unit_window_only():
    scheme = build_quadrature(LevyMeasure.double_exponential(2.0, 5.0, 1.0), xi=0.01,
                              truncation=5.0)
    assert scheme.d_nodes.min() == -1.0
    assert scheme.d_nodes.max() == 1.0
    assert scheme.c_nodes.min() == -5.0


def test_symmetric_measure_has_symmetric_families():
    scheme = build_quadrature(LevyMeasure.double_exponential(3.0, 5.0, 1.0), xi=0.001)
    assert abs(scheme.compensator_sum) < 1e-10
    assert abs(float(np.sum(scheme.c_weights * scheme.c_nodes))) < 1e-10


def test_atom_families():
    measure = LevyMeasure.atoms([(2.0, 0.3), (0.5, 1.2), (-0.7, 0.4)])
    scheme = build_quadrature(measure, xi=0.01)
    assert scheme.weight_sum == pytest.approx(1.9)
    # only |z| < 1 feeds the compensator family
    assert sorted(scheme.d_nodes.tolist()) == [-0.7, 0.5]
    assert scheme.compensator_sum == pytest.approx(0.5 * 1.2 - 0.7 * 0.4)


def test_truncation_reports_lost_mass():
    measure = LevyMeasure.double_exponential(decay=2.0, half_width=5.0, total_mass=1.0)
    scheme = build_quadrature(measure, xi=0.01, truncation=2.0)
    assert scheme.window == 2.0
    expected_lost = 1.0 - (1.0 - np.exp(-4.0)) / (1.0 - np.exp(-10.0))
    assert scheme.truncated_fraction == pytest.approx(expected_lost, rel=1e-6)


def test_xi_and_truncation_bounds():
    measure = LevyMeasure.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        build_quadrature(measure, xi=0.0)
    with pytest.raises(ValueError):
        build_quadrature(measure, xi=1.0)
    # NaN fails every comparison, so it must not slip past the bound and
    # integrate the whole support; inf still means no cap
    for truncation in (0.5, float("nan")):
        with pytest.raises(ValueError, match=f"truncation must be >= 1 .* got {truncation}"):
            build_quadrature(measure, xi=0.01, truncation=truncation)
    wide = LevyMeasure.double_exponential(decay=2.0, half_width=8.0)
    scheme = build_quadrature(wide, xi=0.01, truncation=float("inf"))
    assert scheme.window == 8.0 and scheme.truncated_fraction == 0.0


def test_negative_density_rejected():
    measure = LevyMeasure.from_density(lambda z: np.asarray(z), 1.0)  # signed!
    with pytest.raises(ValueError, match="negative"):
        build_quadrature(measure, xi=0.1)


def test_contraction_uniform_passes_with_zero_value():
    scheme = build_quadrature(LevyMeasure.uniform(1.0, 0.5), xi=0.01)
    report = check_contraction(scheme, 0.05)
    assert report.passed
    assert report.value == pytest.approx(0.0, abs=1e-10)
    report.require()  # must not raise


def test_contraction_fails_on_coarse_sharp_density():
    # decay 60 concentrates the mass near 0; a coarse grid badly overshoots
    measure = LevyMeasure.double_exponential(decay=60.0, half_width=5.0, total_mass=40.0)
    scheme = build_quadrature(measure, xi=0.9)
    report = check_contraction(scheme, 0.05)
    assert not report.passed
    with pytest.raises(ContractionError, match="refine the quadrature"):
        report.require()


def test_contraction_requires_positive_rate():
    scheme = build_quadrature(LevyMeasure.null(), xi=0.01)
    with pytest.raises(ValueError):
        check_contraction(scheme, 0.0)


def jump_operator(measure, gamma, convention="proportional"):
    """Single-regime operator on a price grid [0, 100] with step h = 0.5."""
    dyn = Dynamics(kappa=0.01, mu=(55.0,), sigma=(0.2,), jump_scale=(gamma,),
                   discount_rate=0.05)
    eco = Economics(fixed_cost=0.0, marginal_cost=20.0, reserve_slope=0.0,
                    reserve_offset=1.0, u_max=0.0, reserve_capacity=1.0, horizon=1.0,
                    terminal_offset=20.0)
    model = MarketModel(generator=np.array([[0.0]]), dynamics=dyn, economics=eco,
                        measure=measure, jump_convention=convention)
    grid = build_grid(horizon=1.0, price_cap=100.0, reserve_capacity=1.0, time_step=0.5,
                      price_step=0.5, reserve_step=0.5, n_regimes=1)
    return DiscreteOperator(model, grid, SolverConfig())


def jump_integral(op, f):
    """The discrete jump integral applied to a price-axis field f:

        I f = P f - comp * (f(x+h) - f(x))/h - Gamma f

    with P the operator's jump matrix, the forward difference clamped at the
    cap, and the compensator written out here from the scheme's discrete
    first moment: comp = gamma * x * sum_j d_j z_j for proportional jumps,
    gamma * sum_j d_j z_j for additive ones. (The sweep folds comp into the
    drift and upwinds the two together.)
    """
    h, x = op.grid.price_step, op.grid.x_values
    gamma = op.model.dynamics.jump_scale[0]
    comp = gamma * op.scheme.compensator_sum
    if op.model.jump_convention == "proportional":
        comp = comp * x
    forward = (np.append(f[1:], f[-1]) - f) / h
    return op.jump_mat[0] @ f - comp * forward - op.scheme.total_mass * f


def test_jump_matrix_constant_field_is_zero():
    # single atom at z=2, mass 0.3: P f and f*Gamma cancel on every row,
    # including the rows whose destinations are clamped at the cap
    op = jump_operator(LevyMeasure.atoms([(2.0, 0.3)]), gamma=0.1)
    out = jump_integral(op, np.full(op.grid.n_x, 7.0))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_jump_matrix_quadratic_field_closed_form():
    # f(x) = x^2 under a symmetric uniform measure: the exact integral is
    # gamma^2 x^2 * sum c_j z_j^2 = gamma^2 x^2 * Gamma/3; linear interpolation
    # between nodes overestimates x^2 by at most h^2/4 per unit of mass
    gamma, mass = 0.1, 0.5
    op = jump_operator(LevyMeasure.uniform(1.0, mass), gamma)
    x, h = op.grid.x_values, op.grid.price_step
    err = jump_integral(op, x * x) - gamma**2 * x**2 * mass / 3.0
    inside = x * (1.0 + gamma) <= x[-1]  # no destination past the cap
    assert inside.sum() > 150
    assert np.all(err[inside] >= -1e-9)
    assert np.all(err[inside] <= mass * h * h / 4.0 + 1e-9)


def test_jump_matrix_additive_convention():
    # identity field, atom at z=0.5 scaled by 0.1: on interior rows
    # (x + 0.05) - 1.0*(0.1*0.5) - x = 0; on the last row the destination
    # clamps to the cap and the clamped forward difference vanishes
    op = jump_operator(LevyMeasure.atoms([(0.5, 1.0)]), gamma=0.1, convention="additive")
    x = op.grid.x_values
    np.testing.assert_allclose(jump_integral(op, x), 0.0, atol=1e-12)


def test_jump_matrix_null_measure_is_zero():
    op = jump_operator(LevyMeasure.null(), gamma=0.1)
    assert op.jump_mat == [None]  # the sweep skips the jump term
    assert op.jump_bands == [None] and op.jump_band_share is None
    assert op.scheme.total_mass == 0.0
    assert op.scheme.compensator_sum == 0.0
