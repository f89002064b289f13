import dataclasses
import math
import multiprocessing
import os
import signal

import numpy as np
import pytest
from conftest import traced_peak

from oilopt import (
    Dynamics,
    Economics,
    GridField,
    LevyMeasure,
    MarketModel,
    SolverConfig,
    analytic_oracle,
    build_grid,
    estimate_value,
    extract_policy,
    profit_rate,
    simulate_path,
    simulate_regime_chain,
    solve,
    switching_function,
)
from oilopt import simulate, solver
from oilopt.policy import bang_bang_policy


def no_action_model(horizon=1.0, sigma=0.2):
    dyn = Dynamics(kappa=0.01, mu=(55.0,), sigma=(sigma,), jump_scale=(0.0,),
                   discount_rate=0.05)
    eco = Economics(fixed_cost=0.0, marginal_cost=20.0, reserve_slope=0.0,
                    reserve_offset=1.0, u_max=0.0, reserve_capacity=10.0,
                    horizon=horizon, terminal_offset=20.0)
    return MarketModel(generator=np.array([[0.0]]), dynamics=dyn, economics=eco,
                       measure=LevyMeasure.null())


def jumpy_model(horizon=2.0, u_max=100.0, measure=None, jump_scale=0.1):
    dyn = Dynamics(kappa=0.01, mu=(55.0, 35.0), sigma=(0.2, 0.3),
                   jump_scale=(jump_scale, jump_scale), discount_rate=0.05)
    eco = Economics(fixed_cost=5.0, marginal_cost=20.0, reserve_slope=0.0,
                    reserve_offset=1.0, u_max=u_max, reserve_capacity=10.0,
                    horizon=horizon, terminal_offset=20.0)
    return MarketModel(generator=np.array([[-0.01, 0.01], [0.15, -0.15]]),
                       dynamics=dyn, economics=eco,
                       measure=measure or LevyMeasure.uniform(1.0, 0.5))


def zero_policy(t, x, y, regime):
    return np.zeros(np.shape(x))


def full_policy(rate):
    return lambda t, x, y, regime: np.full(np.shape(x), rate)


class TestRegimeChain:
    def test_holding_times_match_rates(self):
        Q = np.array([[-2.0, 2.0], [1.0, -1.0]])
        rng = np.random.default_rng(0)
        first_holds = []
        for _ in range(4000):
            times, states = simulate_regime_chain(Q, 0, 50.0, rng)
            if len(times) > 1:
                first_holds.append(times[1] - times[0])
        assert np.mean(first_holds) == pytest.approx(0.5, rel=0.05)

    def test_absorbing_state(self):
        Q = np.array([[0.0]])
        times, states = simulate_regime_chain(Q, 0, 10.0, np.random.default_rng(1))
        assert times.tolist() == [0.0]
        assert states.tolist() == [0]

    def test_states_alternate_for_two_regimes(self):
        Q = np.array([[-5.0, 5.0], [5.0, -5.0]])
        times, states = simulate_regime_chain(Q, 1, 10.0, np.random.default_rng(2))
        assert states[0] == 1
        assert all(states[i] != states[i + 1] for i in range(len(states) - 1))

    def test_bad_start_regime(self):
        with pytest.raises(ValueError):
            simulate_regime_chain(np.array([[0.0]]), 3, 1.0, np.random.default_rng(0))


class TestSinglePath:
    def test_deterministic_limit_tracks_the_ode(self):
        """sigma = 0, no jumps: the Euler path must follow the mean-reversion
        ODE x(t) = mu + (x0 - mu) e^(-kappa t) up to O(dt)."""
        model = no_action_model(sigma=0.0)
        rec = simulate_path(model, zero_policy, (0.0, 50.0, 4.0, 0), 1e-3, 7)
        exact = 55.0 + (50.0 - 55.0) * np.exp(-0.01 * rec.times)
        assert np.max(np.abs(rec.x - exact)) < 1e-5

    def test_record_is_self_consistent(self):
        model = jumpy_model()
        rec = simulate_path(model, full_policy(2.0), (0.0, 50.0, 4.0, 0), 1e-3, 3)
        assert len(rec.times) == len(rec.x) == len(rec.y) == len(rec.u)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(2.0)
        assert rec.u[-1] == 0.0  # no step after the horizon
        # running profit accumulates monotonically in time index, and the
        # total is running + discounted settlement
        assert rec.total_payoff == pytest.approx(
            rec.discounted_profit[-1] + rec.terminal_contribution
        )

    def test_reserve_never_negative_and_rate_clamped(self):
        model = jumpy_model(u_max=50000.0)
        rec = simulate_path(model, full_policy(50000.0), (0.0, 50.0, 4.0, 0), 1e-3, 5)
        assert np.min(rec.y) == 0.0
        assert np.all(rec.y >= 0.0)
        # the first step may extract at most y/dt
        assert rec.u[0] == pytest.approx(4.0 / 1e-3)
        assert np.all(rec.u <= 50000.0 / 1.0 + 4000.0)

    def test_price_clamped_at_zero(self):
        # proportional jump with z = -20 and scale 1 flips the price negative
        measure = LevyMeasure.atoms([(-20.0, 5.0)])
        model = jumpy_model(measure=measure, jump_scale=1.0)
        rec = simulate_path(model, zero_policy, (0.0, 50.0, 4.0, 0), 1e-2, 11)
        assert rec.n_jumps > 0
        assert rec.clamp_count > 0
        assert np.min(rec.x) >= 0.0

    def test_same_stream_reproduces(self):
        model = jumpy_model()
        a = simulate_path(model, zero_policy, (0.0, 50.0, 4.0, 0), 1e-2, 13)
        b = simulate_path(model, zero_policy, (0.0, 50.0, 4.0, 0), 1e-2, 13)
        assert a.total_payoff == b.total_payoff
        assert np.array_equal(a.x, b.x)

    def test_start_validation(self):
        model = jumpy_model()
        with pytest.raises(ValueError):
            simulate_path(model, zero_policy, (0.0, 50.0, 4.0, 0), 0.0, 1)
        with pytest.raises(ValueError):
            simulate_path(model, zero_policy, (0.0, 50.0, 40.0, 0), 1e-2, 1)
        with pytest.raises(ValueError):
            simulate_path(model, zero_policy, (5.0, 50.0, 4.0, 0), 1e-2, 1)  # s >= T
        with pytest.raises(ValueError):
            simulate_path(model, zero_policy, (0.0, 50.0, 4.0, 9), 1e-2, 1)

    @pytest.mark.parametrize("start, dt, message", [
        ((0.0, math.nan, 4.0, 0), 1e-2, "start price state nan must be nonnegative and finite"),
        ((0.0, math.inf, 4.0, 0), 1e-2, "start price state inf must be nonnegative and finite"),
        ((0.0, 50.0, 4.0, 0), math.nan, "dt must be positive, got nan"),
        ((0.0, 50.0, 4.0, 0), math.inf, "dt must be positive and finite, got inf"),
    ])
    def test_non_finite_start_or_step_is_refused(self, start, dt, message):
        with pytest.raises(ValueError) as info:
            simulate_path(jumpy_model(), zero_policy, start, dt, 1)
        assert str(info.value) == message


class TestEstimate:
    def test_matches_closed_form(self):
        model = no_action_model()
        est = estimate_value(model, zero_policy, (0.0, 50.0, 4.0, 0),
                             n_paths=4000, dt=1e-3, seed=42)
        exact = analytic_oracle(model, 0.0, 50.0, 4.0)
        assert abs(est.mean - exact) < 4 * est.std_error + 0.01

    def test_reproducible_for_fixed_seed(self):
        model = jumpy_model()
        kw = dict(n_paths=200, dt=1e-2, seed=5)
        a = estimate_value(model, zero_policy, (0.0, 50.0, 4.0, 0), **kw)
        b = estimate_value(model, zero_policy, (0.0, 50.0, 4.0, 0), **kw)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_chunking_does_not_change_the_answer(self, monkeypatch):
        model = jumpy_model()
        kw = dict(n_paths=100, dt=1e-2, seed=5)
        monkeypatch.setattr(simulate, "BATCH_PATHS", 7)
        a = estimate_value(model, zero_policy, (0.0, 50.0, 4.0, 0), **kw)
        monkeypatch.setattr(simulate, "BATCH_PATHS", 512)
        b = estimate_value(model, zero_policy, (0.0, 50.0, 4.0, 0), **kw)
        assert a.mean == b.mean

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_recorded_paths_are_the_estimates_first_paths(self, antithetic, monkeypatch):
        """record=N returns the first N paths of the estimate's own batches
        (the +normals member of an antithetic pair), bit for bit the paths
        simulate_path replays from the same streams, also across batches."""
        monkeypatch.setattr(simulate, "BATCH_PATHS", 2)
        model = fast_switching(jumpy_model())
        start = (0.0, 50.0, 4.0, 0)
        kw = dict(n_paths=10, dt=1e-2, seed=21, antithetic=antithetic)
        est = estimate_value(model, threshold_policy, start, record=3, **kw)
        assert est.mean == estimate_value(model, threshold_policy, start, **kw).mean
        streams = np.random.SeedSequence(21).spawn(3)
        assert len(est.paths) == 3
        for rec, stream in zip(est.paths, streams):
            replay = simulate_path(model, threshold_policy, start, 1e-2, stream)
            for f in dataclasses.fields(replay):
                assert np.array_equal(getattr(rec, f.name), getattr(replay, f.name)), f.name

    def test_record_limited_to_the_simulated_streams(self):
        model = jumpy_model()
        start = (0.0, 50.0, 4.0, 0)
        with pytest.raises(ValueError, match="cannot record 6 paths: 5 streams"):
            estimate_value(model, zero_policy, start, n_paths=10, dt=1e-2, seed=0,
                           antithetic=True, record=6)
        est = estimate_value(model, zero_policy, start, n_paths=10, dt=1e-2, seed=0,
                             antithetic=True, record=5)
        assert len(est.paths) == 5

    def test_two_path_estimate_equals_recorded_paths(self):
        """The estimator must price exactly the paths simulate_path replays
        from the same spawned streams."""
        model = jumpy_model()
        start = (0.0, 50.0, 4.0, 0)
        est = estimate_value(model, zero_policy, start, n_paths=2, dt=1e-2, seed=21)
        streams = np.random.SeedSequence(21).spawn(2)
        payoffs = [simulate_path(model, zero_policy, start, 1e-2, s).total_payoff
                   for s in streams]
        assert est.mean == pytest.approx(float(np.mean(payoffs)), abs=1e-12)

    def test_antithetic_reduces_error_here(self):
        model = no_action_model()
        start = (0.0, 50.0, 4.0, 0)
        plain = estimate_value(model, zero_policy, start, n_paths=2000, dt=1e-2, seed=9)
        anti = estimate_value(model, zero_policy, start, n_paths=2000, dt=1e-2,
                              seed=9, antithetic=True)
        # payoff is linear in the driving noise, so pairing cancels nearly all of it
        assert anti.std_error < 0.05 * plain.std_error

    def test_poisson_jump_rate(self):
        model = jumpy_model(horizon=2.0)  # Gamma = 0.5, window 2 -> mean 1 jump
        est = estimate_value(model, zero_policy, (0.0, 50.0, 4.0, 0),
                             n_paths=4000, dt=1e-2, seed=3)
        assert est.diagnostics["mean_jumps_per_path"] == pytest.approx(1.0, abs=0.06)

    def test_argument_validation(self):
        model = jumpy_model()
        start = (0.0, 50.0, 4.0, 0)
        with pytest.raises(ValueError):
            estimate_value(model, zero_policy, start, n_paths=1, dt=1e-2, seed=0)
        with pytest.raises(ValueError):
            estimate_value(model, zero_policy, start, n_paths=11, dt=1e-2, seed=0,
                           antithetic=True)

    @pytest.mark.parametrize("regime", [1.7, -0.5, True, np.True_, math.nan])
    def test_non_integer_start_regime_is_refused(self, regime):
        """int() read 1.7 and True as regime 1 and -0.5 as regime 0."""
        model = jumpy_model()
        start = (0.0, 50.0, 4.0, regime)
        with pytest.raises(ValueError, match="must be an integer"):
            simulate.check_record(model, start, 10, 0.01, False)
        with pytest.raises(ValueError, match="must be an integer"):
            estimate_value(model, zero_policy, start, n_paths=10, dt=1e-2, seed=0)

    @pytest.mark.parametrize("regime", [1, 1.0, np.int64(1)])
    def test_integral_start_regime_is_read_as_that_regime(self, regime):
        model = jumpy_model()
        assert simulate.check_record(model, (0.0, 50.0, 4.0, regime), 10, 0.01, False) == 10
        kw = dict(n_paths=10, dt=1e-2, seed=0)
        assert (estimate_value(model, zero_policy, (0.0, 50.0, 4.0, regime), **kw).mean
                == estimate_value(model, zero_policy, (0.0, 50.0, 4.0, 1), **kw).mean)


def threshold_policy(t, x, y, regime):
    return np.where(x > 45.0 + 10.0 * regime, 3.0, 0.0)


def fast_switching(model):
    """The same model with regime switches every fraction of a year."""
    return dataclasses.replace(model, generator=np.array([[-3.0, 3.0], [2.0, -2.0]]))


def grid_policy():
    g = build_grid(2.0, 100.0, 10.0, 0.1, 0.5, 0.5, 2)
    return GridField(g, np.random.default_rng(0).uniform(0.0, 5.0, g.shape))


PIN_START = (0.0, 50.0, 4.0, 0)
PIN_KW = dict(n_paths=64, dt=1e-2, seed=5)
# (model, policy, extra kwargs) -> (mean, SE, mean jumps, paths clamped, clamps),
# captured before the paths were stepped in one lockstep batch; every case
# runs 200 steps
PINNED_ESTIMATES = {
    "plain": (lambda: (jumpy_model(), full_policy(2.0), {}),
              (370.91211866249114, 3.6472862326126876, 0.96875, 0, 0)),
    "antithetic": (lambda: (jumpy_model(), full_policy(2.0), {"antithetic": True}),
                   (368.84493279824994, 5.541477946333237, 0.84375, 0, 0)),
    "additive": (lambda: (dataclasses.replace(jumpy_model(), jump_convention="additive"),
                          full_policy(2.0), {}),
                 (376.48031795185034, 0.42805254614794386, 0.96875, 0, 0)),
    "atoms": (lambda: (jumpy_model(measure=LevyMeasure.atoms([(-20.0, 0.1), (0.3, 0.5)])),
                       full_policy(2.0), {}),
              (250.59220111150836, 29.5819396562085, 1.140625, 14, 55)),
    "callable": (lambda: (fast_switching(jumpy_model()), threshold_policy, {}),
                 (312.1610946509451, 8.333641699570643, 1.0, 0, 0)),
    "gridfield": (lambda: (fast_switching(jumpy_model()), grid_policy(), {}),
                  (376.0818482991003, 3.6391369860317164, 1.0, 0, 0)),
}


@pytest.fixture(params=["default", "block7"])
def normal_block(request, monkeypatch):
    """Run with the shipped normals block, and with blocks of 7 steps and
    transpose tiles of 3 paths, so block and tile edges fall mid-run."""
    if request.param == "block7":
        monkeypatch.setattr(simulate, "NORMAL_BLOCK", 7)
        monkeypatch.setattr(simulate, "_TILE", 3)
    return request.param


class TestPinnedNumbers:
    @pytest.mark.parametrize("case", sorted(PINNED_ESTIMATES))
    def test_estimate_is_bit_identical(self, case, normal_block):
        make, pinned = PINNED_ESTIMATES[case]
        model, policy, extra = make()
        est = estimate_value(model, policy, PIN_START, **PIN_KW, **extra)
        d = est.diagnostics
        got = (est.mean, est.std_error, d["mean_jumps_per_path"],
               d["paths_with_price_clamp"], d["total_price_clamps"])
        assert got == pinned
        assert d["n_steps"] == 200

    def test_antithetic_clamps_counted_on_both_halves(self, normal_block):
        """The negated-normals member of a pair clamps on its own: of the 9
        clamps on 4 of these 64 paths, 2 fall on the minus half."""
        model = jumpy_model(measure=LevyMeasure.atoms([(-9.7, 0.3), (0.3, 0.5)]))
        est = estimate_value(model, full_policy(2.0), PIN_START, **PIN_KW, antithetic=True)
        d = est.diagnostics
        assert (d["total_price_clamps"], d["paths_with_price_clamp"]) == (9, 4)

    def test_recorded_path_is_bit_identical(self, normal_block):
        rec = simulate_path(fast_switching(jumpy_model()), threshold_policy, PIN_START, 1e-2, 7)
        got = (rec.total_payoff, rec.x[-1], rec.y[-1], int(rec.regime.sum()), rec.n_jumps,
               rec.clamp_count, rec.discounted_profit[-1])
        assert got == (216.59193941014718, 41.56313453109743, 1.6300000000000125, 122, 3, 0,
                       53.28377315876982)

    @pytest.mark.parametrize("policy", [grid_policy(), threshold_policy],
                             ids=["gridfield", "callable"])
    @pytest.mark.parametrize("y0", [-0.0, 0.0], ids=["minus_zero", "plus_zero"])
    def test_empty_start_reserve_keeps_its_signed_zeros(self, policy, y0, normal_block):
        """From y = -0.0 the first applied rate is clip(min(u, -0.0), 0, u_max)
        = -0.0 and the reserve then steps to +0.0; from y = +0.0 no zero is
        negative. paths.csv prints the sign, so the bits are pinned."""
        rec = simulate_path(fast_switching(jumpy_model()), policy, (0.0, 50.0, y0, 0), 1e-2, 7)
        negative = [0] if math.copysign(1.0, y0) < 0 else []
        assert np.flatnonzero(np.signbit(rec.u)).tolist() == negative
        assert np.flatnonzero(np.signbit(rec.y)).tolist() == negative
        assert not rec.u.any() and not rec.y.any()
        assert (rec.total_payoff, rec.discounted_profit[-1], rec.terminal_contribution,
                rec.n_jumps) == (185.5926722795939, -9.51863745920852, 195.11130973880242, 3)


class TestBatch:
    def test_diagnostics_report_the_simulated_step_count(self):
        """A start within dt/2 of the horizon still takes the stepper's one step."""
        model = jumpy_model(horizon=2.0)
        start = (2.0 - 0.004, 50.0, 4.0, 0)
        est = estimate_value(model, zero_policy, start, n_paths=4, dt=1e-2, seed=1)
        rec = simulate_path(model, zero_policy, start, 1e-2, 1)
        assert est.diagnostics["n_steps"] == len(rec.times) - 1 == 1

    def test_timings_reported(self):
        est = estimate_value(jumpy_model(), zero_policy, PIN_START, **PIN_KW)
        assert est.diagnostics["draw_s"] > 0.0 and est.diagnostics["step_s"] > 0.0
        assert est.diagnostics["workers"] == 1  # 64 x 200 path-steps stay in process

    def test_memory_is_bounded_by_the_normals_block(self, monkeypatch):
        """Peak traced memory is O(paths x NORMAL_BLOCK), not O(paths x steps):
        dense per-path arrays over 5,000 steps would take ~43 MB here. One
        process steps the whole batch: tracemalloc sees no forked worker."""
        monkeypatch.setattr(simulate, "PATH_WORKERS", 1)
        n_paths, n_steps = 2000, 5000
        block_bytes = n_paths * simulate.NORMAL_BLOCK * 8
        # the block, and as much again for generators, events and temporaries
        bound = 2 * block_bytes
        peak = traced_peak(lambda: estimate_value(jumpy_model(horizon=2.0), zero_policy,
                                                  PIN_START, n_paths=n_paths,
                                                  dt=2.0 / n_steps, seed=1))
        assert peak < bound, f"traced peak {peak / 1e6:.1f} MB"


class PolicyFailure(Exception):
    pass


def fails_on_four_paths(t, x, y, regime):
    """Raises only on a 4-path batch: of 9 streams split in two, the worker's."""
    if np.size(x) == 4:
        raise PolicyFailure(f"no rate for the 4 paths at t={t}")
    return threshold_policy(t, x, y, regime)


def dies_on_four_paths(t, x, y, regime):
    if np.size(x) == 4:
        os._exit(3)
    return threshold_policy(t, x, y, regime)


def assert_same_report(a, b):
    """Equal reports, the cost counters (processes, timings and policy
    reads) aside, with every recorded path equal field by field, bit for bit."""
    for f in dataclasses.fields(a):
        if f.name not in ("diagnostics", "paths"):
            assert getattr(a, f.name) == getattr(b, f.name), f.name
    skip = {"workers", "draw_s", "step_s", "policy_lookup_steps"}
    assert ({k: v for k, v in a.diagnostics.items() if k not in skip}
            == {k: v for k, v in b.diagnostics.items() if k not in skip})
    assert len(a.paths) == len(b.paths)
    for pa, pb in zip(a.paths, b.paths):
        for f in dataclasses.fields(pa):  # bytes, so a zero's sign counts too
            assert (np.asarray(getattr(pa, f.name)).tobytes()
                    == np.asarray(getattr(pb, f.name)).tobytes()), f.name


def assert_same_estimate(split, single):
    """assert_same_report, with the split on two processes and the other on one."""
    assert (split.diagnostics["workers"], single.diagnostics["workers"]) == (2, 1)
    assert_same_report(split, single)


@pytest.fixture
def two_processes(monkeypatch):
    """Split every estimate over two processes; the returned function runs
    estimate_value in one process instead."""
    monkeypatch.setattr(simulate, "PATH_WORKERS", 2)
    monkeypatch.setattr(simulate, "SPLIT_MIN_PATH_STEPS", 0)

    def in_one_process(*args, **kwargs):
        monkeypatch.setattr(simulate, "PATH_WORKERS", 1)
        try:
            return estimate_value(*args, **kwargs)
        finally:
            monkeypatch.setattr(simulate, "PATH_WORKERS", 2)

    return in_one_process


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
class TestTwoProcesses:
    @pytest.mark.parametrize("case", sorted(PINNED_ESTIMATES))
    def test_split_estimate_is_bit_identical(self, case, two_processes):
        """Every pinned case, every stream recorded: the worker's half of the
        paths comes back in stream order."""
        make, pinned = PINNED_ESTIMATES[case]
        model, policy, extra = make()
        record = 32 if extra.get("antithetic") else 64
        split = estimate_value(model, policy, PIN_START, **PIN_KW, **extra, record=record)
        d = split.diagnostics
        assert (split.mean, split.std_error, d["mean_jumps_per_path"],
                d["paths_with_price_clamp"], d["total_price_clamps"]) == pinned
        single = two_processes(model, policy, PIN_START, **PIN_KW, **extra, record=record)
        assert_same_estimate(split, single)

    @pytest.mark.parametrize("n_paths, antithetic, record", [
        (9, False, 6),  # odd stream count: 5 streams here, 4 in the worker
        (14, True, 5),  # 7 antithetic streams, record past the first 4
        (26, True, 13),
    ])
    def test_odd_counts_antithetic_pairs_and_records_past_the_first_half(
            self, two_processes, monkeypatch, n_paths, antithetic, record):
        monkeypatch.setattr(simulate, "BATCH_PATHS", 3)  # several batches per process
        model = fast_switching(jumpy_model(measure=LevyMeasure.atoms([(-9.7, 0.3), (0.3, 0.5)])))
        kw = dict(n_paths=n_paths, dt=1e-2, seed=11, antithetic=antithetic, record=record)
        split = estimate_value(model, threshold_policy, PIN_START, **kw)
        assert_same_estimate(split, two_processes(model, threshold_policy, PIN_START, **kw))
        assert len(split.paths) == record

    def test_worker_exception_reraises_in_the_caller(self, two_processes):
        model = jumpy_model()
        kw = dict(n_paths=9, dt=1e-2, seed=3)
        two_processes(model, fails_on_four_paths, PIN_START, **kw)  # one 9-path batch
        with pytest.raises(PolicyFailure, match=r"no rate for the 4 paths at t=0\.0"):
            estimate_value(model, fails_on_four_paths, PIN_START, **kw)
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_raises_instead_of_hanging(self, two_processes):
        with pytest.raises(RuntimeError, match=r"worker process died \(exit code 3\)"):
            estimate_value(jumpy_model(), dies_on_four_paths, PIN_START, n_paths=9, dt=1e-2,
                           seed=3)
        assert multiprocessing.active_children() == []

    def test_caller_exception_stops_and_reaps_the_worker(self, two_processes):
        """The caller's half (5 paths) raises at once. The worker's 4 recorded
        paths (about 320 kB) overfill the pipe, so it must be stopped, not
        waited for; the alarm bounds the wait if it is not."""
        def fails_on_five_paths(t, x, y, regime):
            if np.size(x) == 5:
                raise PolicyFailure("five")
            return threshold_policy(t, x, y, regime)

        def alarm(signum, frame):
            raise TimeoutError("the caller waited for a worker it should have stopped")

        previous = signal.signal(signal.SIGALRM, alarm)
        signal.alarm(30)
        try:
            with pytest.raises(PolicyFailure, match="five"):
                estimate_value(jumpy_model(), fails_on_five_paths, PIN_START, n_paths=9,
                               dt=1e-3, seed=3, record=9)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_split_after_a_threaded_jacobi_solve(self, two_processes, monkeypatch):
        """The sweep thread is alive when the worker forks; the worker must
        still finish, with the one-process bits."""
        monkeypatch.setattr(solver, "SWEEP_WORKERS", 2)
        model = jumpy_model(horizon=1.0)
        grid = build_grid(1.0, 100.0, 10.0, 0.1, 0.5, 0.5, 2)
        field, report = solve(model, grid, SolverConfig(sweep="jacobi"))
        policy = extract_policy(switching_function(field, report.operator), model)
        kw = dict(n_paths=40, dt=1e-2, seed=8, record=30)
        split = estimate_value(model, policy, PIN_START, **kw)
        assert_same_estimate(split, two_processes(model, policy, PIN_START, **kw))


def grid_read(policy):
    """A plain callable reading `policy` at Grid4D.nearest_indices' node,
    which the simulator reads at every step."""
    g = policy.grid
    return lambda t, x, y, regime: policy.values[(regime, *g.nearest_indices(t, x, y))]


EMPTYING_START = (0.0, 50.0, 0.5, 0)


def emptying_grid_policy():
    """grid_policy() at u_max = 100 on its first time slice: from
    EMPTYING_START at dt = 0.01, every path empties its reserve in step 0."""
    policy = grid_policy()
    policy.values[:, 0] = 100.0
    return policy


SKIP_CASES = {"empty_after_step_0": (EMPTYING_START, emptying_grid_policy),
              "reserve_kept": (PIN_START, grid_policy)}


class TestEmptyReserves:
    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("case", sorted(SKIP_CASES))
    def test_skipped_policy_reads_move_no_bit(self, case, antithetic, processes, normal_block,
                                              monkeypatch):
        """A grid policy stops being read once every reserve is empty; the
        same grid read through a callable is read at every step. Both give
        the same estimate, clamps and recorded paths."""
        if processes == 2:
            if "fork" not in multiprocessing.get_all_start_methods():
                pytest.skip("needs the fork start method")
            monkeypatch.setattr(simulate, "PATH_WORKERS", 2)
            monkeypatch.setattr(simulate, "SPLIT_MIN_PATH_STEPS", 0)
        monkeypatch.setattr(simulate, "BATCH_PATHS", 16)
        start, make = SKIP_CASES[case]
        policy = make()
        model = fast_switching(jumpy_model(measure=LevyMeasure.atoms([(-9.7, 0.3), (0.3, 0.5)])))
        kw = dict(n_paths=64, dt=1e-2, seed=5, antithetic=antithetic, record=6)
        skipping = estimate_value(model, policy, start, **kw)
        reading = estimate_value(model, grid_read(policy), start, **kw)
        assert_same_report(skipping, reading)
        assert skipping.diagnostics["workers"] == processes
        assert skipping.diagnostics["total_price_clamps"] > 0
        batches = (32 if antithetic else 64) // 16  # both halves of a split hold whole batches
        assert reading.diagnostics["policy_lookup_steps"] == 200 * batches
        lookups = skipping.diagnostics["policy_lookup_steps"]
        assert lookups == batches if case == "empty_after_step_0" else lookups > batches

    @pytest.mark.parametrize("fixed_cost", [5.0, 0.0])
    @pytest.mark.parametrize("price_kind", ["linear", "exponential"])
    @pytest.mark.parametrize("y", [0.0, -0.0], ids=["plus_zero", "minus_zero"])
    def test_empty_step_books_the_array_bits_from_scalars(self, y, price_kind, fixed_cost):
        """Once every reserve is empty, a step books profit_rate(model, t, X,
        0.0, 0.0): the bits of the call on all-zero Y and u arrays, for every
        X, non-finite ones included."""
        model = jumpy_model()
        model = dataclasses.replace(
            model, price_kind=price_kind,
            economics=dataclasses.replace(model.economics, fixed_cost=fixed_cost))
        X = np.array([0.0, -0.0, 5e-324, 50.0, 1e308, -1e308, math.inf, -math.inf, math.nan,
                      -math.nan])
        with np.errstate(over="ignore", invalid="ignore"):  # exp(1e308), inf * 0
            arrays = profit_rate(model, 0.3, X, np.full(X.size, y), np.zeros(X.size))
            scalars = profit_rate(model, 0.3, X, 0.0, 0.0)
        assert scalars.tobytes() == arrays.tobytes()

    def test_policy_lookup_steps(self, monkeypatch):
        """Summed over batches: 1 per batch where every path empties at step
        0, n_steps per batch for a callable, and in between for the pinned
        grid-policy case once its batches are small enough to empty before
        the horizon (5 of its 64 paths keep reserve to the end)."""
        def lookups(policy, start, **kw):
            est = estimate_value(fast_switching(jumpy_model()), policy, start, **PIN_KW, **kw)
            return est.diagnostics["policy_lookup_steps"]

        assert lookups(emptying_grid_policy(), EMPTYING_START) == 1
        assert lookups(threshold_policy, PIN_START) == 200
        assert lookups(grid_policy(), PIN_START) == 200
        monkeypatch.setattr(simulate, "BATCH_PATHS", 8)  # 64 streams: 8 batches
        assert lookups(emptying_grid_policy(), EMPTYING_START) == 8
        assert lookups(emptying_grid_policy(), EMPTYING_START, antithetic=True) == 4
        assert lookups(threshold_policy, PIN_START) == 1600
        assert lookups(grid_policy(), PIN_START) == 1556

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300, -0.0],
                             ids=["nan", "inf", "negative", "minus_zero"])
    def test_a_grid_policy_with_a_rate_it_cannot_apply_is_refused(self, bad):
        """A NaN rate turns every estimate that reads it into NaN, and a
        skipped read would apply 0.0 in its place; an infinite or negative
        rate is no extraction rate either. A -0.0 rate on an empty reserve
        applies -0.0 when read and +0.0 when skipped. The first bad node in
        (regime, s, x, y) order is named."""
        policy = grid_policy()
        policy.values[1, 3, 40, 7] = bad
        policy.values[1, 5, 0, 0] = bad
        message = (f"policy rate {bad!r} at node (regime, s_idx, x_idx, y_idx) = "
                   f"(1, 3, 40, 7): a grid policy needs finite rates >= 0, and no -0.0")
        with pytest.raises(ValueError) as info:
            estimate_value(jumpy_model(), policy, PIN_START, **PIN_KW)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            simulate_path(jumpy_model(), policy, PIN_START, 1e-2, 7)
        assert str(info.value) == message

    def test_bang_bang_policy_passes_the_rate_check(self):
        model = jumpy_model(horizon=1.0)
        grid = build_grid(1.0, 100.0, 10.0, 0.1, 0.5, 0.5, 2)
        field, report = solve(model, grid, SolverConfig(sweep="backward"))
        policy = bang_bang_policy(field, report.operator)
        assert set(np.unique(policy.values).tolist()) == {0.0, model.economics.u_max}
        assert simulate._policy_callable(policy)[1]


class TestAnalyticOracle:
    def test_frozen_reference_value(self):
        model = no_action_model()
        assert analytic_oracle(model, 0.0, 50.0, 4.0) == pytest.approx(
            171.50524313762247, abs=1e-12
        )

    def test_terminal_time_returns_settlement(self):
        model = no_action_model()
        assert analytic_oracle(model, 1.0, 30.0, 4.0) == pytest.approx(60.0)

    def test_requirements_listed(self):
        model = jumpy_model()
        with pytest.raises(ValueError) as err:
            analytic_oracle(model, 0.0, 50.0, 4.0)
        msg = str(err.value)
        assert "single regime" in msg and "u_max = 0" in msg

    @pytest.mark.parametrize("s", [0.0, 0.37, 1.0])
    def test_arrays_equal_the_scalar_calls_bit_for_bit(self, s):
        model = no_action_model()
        xs = np.linspace(0.0, 100.0, 41)
        ys = np.linspace(0.0, 10.0, 21)
        grid = analytic_oracle(model, s, xs[:, None], ys)
        scalar = [[analytic_oracle(model, s, float(x), float(y)) for y in ys] for x in xs]
        assert grid.shape == (41, 21)
        assert np.array_equal(grid, np.array(scalar))

    def test_array_input_raises_the_scalar_errors(self):
        xs, ys = np.linspace(0.0, 100.0, 5)[:, None], np.linspace(0.0, 10.0, 3)
        for model, s in ((jumpy_model(), 0.0), (no_action_model(), 1.5), (no_action_model(), -0.1)):
            with pytest.raises(ValueError) as scalar:
                analytic_oracle(model, s, 50.0, 4.0)
            with pytest.raises(ValueError) as array:
                analytic_oracle(model, s, xs, ys)
            assert str(array.value) == str(scalar.value)
