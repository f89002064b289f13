import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from oilopt import (
    Dynamics,
    Economics,
    LevyMeasure,
    MarketModel,
    profit_rate,
    terminal_value,
    validate_model,
)


def make_model(u_max=50000.0, fixed_cost=5.0, mu=(55.0, 35.0), generator=None,
               measure=None, **kw):
    if generator is None:
        generator = np.array([[-0.01, 0.01], [0.15, -0.15]])
    M = len(mu)
    dyn = Dynamics(
        kappa=kw.get("kappa", 0.01),
        mu=mu,
        sigma=kw.get("sigma", (0.2, 0.3)[:M]),
        jump_scale=kw.get("jump_scale", (0.1,) * M),
        discount_rate=kw.get("discount_rate", 0.05),
    )
    eco = Economics(
        fixed_cost=fixed_cost,
        marginal_cost=kw.get("marginal_cost", 20.0),
        reserve_slope=kw.get("reserve_slope", 0.0),
        reserve_offset=kw.get("reserve_offset", 1.0),
        u_max=u_max,
        reserve_capacity=kw.get("reserve_capacity", 10.0),
        horizon=kw.get("horizon", 10.0),
        terminal_offset=kw.get("terminal_offset", 20.0),
    )
    return MarketModel(
        generator=np.asarray(generator, dtype=float),
        dynamics=dyn,
        economics=eco,
        measure=measure if measure is not None else LevyMeasure.uniform(1.0, 0.5),
    )


class TestProfitRate:
    def test_worked_example(self):
        # price 30, one unit extracted: 30 - (5 + 20*1*(0*y + 1)) = 5
        model = make_model()
        assert profit_rate(model, 0.0, 30.0, 4.0, 1.0) == pytest.approx(5.0)

    def test_zero_rate_pays_fixed_cost(self):
        model = make_model()
        assert profit_rate(model, 0.0, 30.0, 4.0, 0.0) == pytest.approx(-5.0)

    def test_reserve_dependent_markup(self):
        model = make_model(reserve_slope=0.5, reserve_offset=2.0)
        # cost = 5 + 20*u*(0.5*4 + 2) = 5 + 80u
        assert profit_rate(model, 0.0, 100.0, 4.0, 1.0) == pytest.approx(100.0 - 85.0)

    def test_rejects_rate_outside_bounds(self):
        model = make_model(u_max=10.0)
        with pytest.raises(ValueError):
            profit_rate(model, 0.0, 30.0, 4.0, 11.0)
        with pytest.raises(ValueError):
            profit_rate(model, 0.0, 30.0, 4.0, -1.0)

    def test_rejects_reserve_outside_bounds(self):
        model = make_model()
        with pytest.raises(ValueError):
            profit_rate(model, 0.0, 30.0, 11.0, 1.0)

    @given(
        u1=st.floats(0.0, 1000.0),
        u2=st.floats(0.0, 1000.0),
        w=st.floats(0.0, 1.0),
    )
    def test_affine_in_rate(self, u1, u2, w):
        """The running profit must stay affine in u (this is what makes the
        optimal control bang-bang)."""
        model = make_model(u_max=1000.0)
        x, y = 47.0, 3.5
        mix = w * u1 + (1 - w) * u2
        lhs = profit_rate(model, 0.0, x, y, mix)
        rhs = w * profit_rate(model, 0.0, x, y, u1) + (1 - w) * profit_rate(
            model, 0.0, x, y, u2
        )
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestTerminalValue:
    def test_worked_example(self):
        model = make_model()
        # (10 - 4) * (30 - 20) = 60
        assert terminal_value(model, 30.0, 4.0) == pytest.approx(60.0)

    def test_empty_reserve_settles_full_capacity(self):
        model = make_model()
        assert terminal_value(model, 30.0, 0.0) == pytest.approx(100.0)

    def test_full_reserve_settles_zero(self):
        model = make_model()
        assert terminal_value(model, 30.0, 10.0) == 0.0

    def test_vectorized_over_grid(self):
        model = make_model()
        x = np.array([0.0, 20.0, 50.0])
        y = np.array([0.0, 10.0])
        out = terminal_value(model, x[:, None], y[None, :])
        assert out.shape == (3, 2)
        assert out[1, 0] == 0.0  # price == terminal offset
        assert out[2, 1] == 0.0  # nothing left to settle


class TestDrift:
    """kappa = 0.01, mu = 55 and gamma = 0.1 at x = 30 with compensator 0.4:
    mean reversion 0.01 * 25 = 0.25."""

    def test_proportional_jumps_scale_the_compensator_with_x(self):
        model = make_model(mu=(55.0,), generator=[[0.0]])
        # 0.25 - 0.1 * 30 * 0.4 = 0.25 - 1.2
        assert model.drift(30.0, 55.0, 0.1, 0.4) == pytest.approx(-0.95, abs=1e-15)

    def test_additive_jumps_shift_by_a_constant(self):
        model = dataclasses.replace(make_model(mu=(55.0,), generator=[[0.0]]),
                                    jump_convention="additive")
        # 0.25 - 0.1 * 0.4
        assert model.drift(30.0, 55.0, 0.1, 0.4) == pytest.approx(0.21, abs=1e-15)
        x = np.array([30.0, 55.0, 80.0])
        np.testing.assert_allclose(model.drift(x, 55.0, 0.1, 0.4), [0.21, -0.04, -0.29],
                                   atol=1e-15)

    @pytest.mark.parametrize("convention", ["proportional", "additive"])
    def test_zero_compensator_leaves_the_mean_reversion(self, convention):
        model = dataclasses.replace(make_model(), jump_convention=convention)
        x = np.linspace(0.0, 100.0, 201)
        assert np.array_equal(model.drift(x, 55.0, 0.1, 0.0), 0.01 * (55.0 - x))


class TestLevyMeasure:
    def test_null_measure(self):
        m = LevyMeasure.null()
        assert m == LevyMeasure.atoms([])  # the measure with no atoms
        assert m.total_mass == 0.0
        assert m.compensator_drift() == 0.0

    @pytest.mark.parametrize("measure", [
        LevyMeasure.null(),
        LevyMeasure.atoms([(1.0, 3.0), (-2.0, 1.0)]),
        LevyMeasure.uniform(1.0, 0.5),
        LevyMeasure.double_exponential(2.0, half_width=3.0, total_mass=0.5),
        LevyMeasure.from_density(lambda z: np.exp(-np.abs(z)), 1.0, total_mass=0.5),
    ], ids=["null", "atoms", "uniform", "double-exponential", "from-density"])
    def test_an_equal_copy_draws_the_same_jumps(self, measure):
        """Every field a draw reads is compared: a copy equal to the measure
        draws the same jumps from the same seed (the null measure, none)."""
        copy = dataclasses.replace(measure)
        assert copy == measure
        n = 3 if measure.total_mass > 0 else 0
        assert np.array_equal(copy.sample_jumps(np.random.default_rng(1), n),
                              measure.sample_jumps(np.random.default_rng(1), n))

    def test_uniform_mass_and_density(self):
        m = LevyMeasure.uniform(half_width=1.0, total_mass=0.5)
        assert m.total_mass == 0.5
        assert m.density(0.0) == pytest.approx(0.25)
        assert m.density(1.5) == 0.0

    def test_uniform_compensator_is_zero(self):
        m = LevyMeasure.uniform(half_width=1.0, total_mass=2.0)
        assert abs(m.compensator_drift()) < 1e-12

    def test_atom_compensator_counts_only_small_jumps(self):
        m = LevyMeasure.atoms([(0.5, 1.0), (2.0, 3.0), (-0.25, 2.0)])
        # |z| < 1 strictly: 0.5*1 + (-0.25)*2 = 0
        assert m.compensator_drift() == pytest.approx(0.0)
        assert m.total_mass == pytest.approx(6.0)

    def test_double_exponential_mass(self):
        m = LevyMeasure.double_exponential(decay=2.0, half_width=5.0, total_mass=1.5)
        assert m.total_mass == 1.5
        # integrate the density numerically as a cross-check
        z = np.linspace(-5, 5, 200001)
        mass = np.trapezoid(m.density(z), z)
        assert mass == pytest.approx(1.5, rel=1e-6)

    def test_from_density_normalizes(self):
        m = LevyMeasure.from_density(lambda z: 1.0 + 0.0 * np.asarray(z), 2.0,
                                     total_mass=3.0)
        assert m.total_mass == pytest.approx(3.0)
        assert m.density(0.0) == pytest.approx(0.75)

    @pytest.mark.parametrize("measure", [
        LevyMeasure.uniform(1.0, 0.5),
        LevyMeasure.uniform(0.3, 0.5),
        LevyMeasure.double_exponential(2.0, 5.0, 1.0),
        LevyMeasure.double_exponential(3.0, 0.5, 1.0),
    ], ids=["uniform-1", "uniform-0.3", "de-2-5", "de-3-0.5"])
    def test_even_density_compensator_is_exactly_zero(self, measure):
        """The Monte Carlo drift of a symmetric measure carries no rounding."""
        assert measure.compensator_drift() == 0.0

    @pytest.mark.parametrize("density, w", [
        (lambda z: 1.0 + np.asarray(z), 1.0),
        (lambda z: np.exp(0.7 * np.asarray(z)), 0.8),
    ], ids=["linear", "exponential"])
    def test_from_density_mass_and_drift_match_adaptive_quadrature(self, density, w):
        m = LevyMeasure.from_density(density, w)
        mass, _ = quad(lambda z: float(density(z)), -w, w, limit=200)
        drift, _ = quad(lambda z: z * float(density(z)), -w, w, limit=200)
        assert m.total_mass == pytest.approx(mass, rel=1e-10)
        assert m.compensator_drift() == pytest.approx(drift, rel=1e-10)

    def test_from_density_accepts_a_constant(self):
        """A density that returns one number for any z is still a measure."""
        m = LevyMeasure.from_density(lambda z: 2.0, 0.5)
        assert m.total_mass == pytest.approx(2.0, rel=1e-12)
        assert m.compensator_drift() == 0.0

    def test_rejection_envelope_evaluated_once(self):
        """The flat envelope is the density's maximum on 4,001 points, found
        on the first draw and reused after it."""
        sizes = []

        def dens(z):
            z = np.asarray(z, dtype=float)
            sizes.append(z.size)
            return np.exp(-np.abs(z))

        m = LevyMeasure.from_density(dens, 1.0, total_mass=0.5)
        rng = np.random.default_rng(0)
        for _ in range(3):
            s = m.sample_jumps(rng, 50)
            assert s.size == 50 and np.all(np.abs(s) <= 1.0)
        assert sizes.count(4001) == 1

    def test_sampling_double_exponential_matches_cdf(self):
        m = LevyMeasure.double_exponential(decay=2.0, half_width=5.0, total_mass=1.0)
        rng = np.random.default_rng(0)
        s = m.sample_jumps(rng, 200000)
        assert abs(np.mean(s)) < 0.01  # symmetric
        # P(|Z| <= 0.5) for the truncated double exponential
        lam, w = 2.0, 5.0
        p = (1 - math.exp(-lam * 0.5)) / (1 - math.exp(-lam * w))
        assert np.mean(np.abs(s) <= 0.5) == pytest.approx(p, abs=0.01)

    def test_sampling_atoms(self):
        m = LevyMeasure.atoms([(1.0, 3.0), (-2.0, 1.0)])
        rng = np.random.default_rng(1)
        s = m.sample_jumps(rng, 40000)
        assert set(np.unique(s)) == {1.0, -2.0}
        assert np.mean(s == 1.0) == pytest.approx(0.75, abs=0.01)

    def test_zero_mass_sampling_rejected(self):
        with pytest.raises(ValueError):
            LevyMeasure.null().sample_jumps(np.random.default_rng(0), 5)


class TestValidation:
    def test_reference_model_is_clean(self):
        assert validate_model(make_model()).ok

    def test_bad_generator_rows(self):
        model = make_model(generator=[[-0.01, 0.02], [0.15, -0.15]])
        report = validate_model(model)
        assert not report.ok
        assert any("sum to zero" in v for v in report.violations)

    def test_negative_off_diagonal(self):
        model = make_model(generator=[[0.01, -0.01], [0.15, -0.15]])
        assert any("off-diagonal" in v for v in validate_model(model).violations)

    def test_length_mismatch(self):
        model = make_model(mu=(55.0, 35.0, 45.0))  # generator stays 2x2
        report = validate_model(model)
        assert any("mu" in v for v in report.violations)

    def test_multiple_violations_collected(self):
        dyn = Dynamics(kappa=-1.0, mu=(55.0,), sigma=(-0.2,), jump_scale=(0.1,),
                       discount_rate=0.0)
        eco = Economics(fixed_cost=-5.0, marginal_cost=0.0, reserve_slope=0.0,
                        reserve_offset=1.0, u_max=-1.0, reserve_capacity=0.0,
                        horizon=0.0, terminal_offset=20.0)
        model = MarketModel(generator=np.array([[0.0]]), dynamics=dyn, economics=eco,
                            measure=LevyMeasure.null())
        report = validate_model(model)
        assert len(report.violations) >= 7

    def test_single_regime_allowed(self):
        model = make_model(mu=(55.0,), sigma=(0.2,), jump_scale=(0.1,),
                           generator=[[0.0]])
        assert validate_model(model).ok
