"""Monte Carlo cross-check: Euler paths of the controlled system.

Each path gets its own child random stream (SeedSequence spawning), so
batched or parallel evaluation cannot change any number. Per path the draw
script is fixed: regime chain first (exact exponential holding times),
then the jump count over the whole window, jump times, jump sizes, and
finally one normal per Euler step.

All paths of a batch advance together in one lockstep loop over the Euler
steps. Everything but the normals is drawn up front and kept as per-step
events: the steps where a path's regime changes, and the steps where its
jumps land (their multipliers or addends compounded per step). Each step
applies its events only to the paths that have one. Normals come last in
every path's script, so they are drawn NORMAL_BLOCK steps at a time from
the path's own generator; blocked draws reproduce one long draw bit for
bit. A block is stored step-major, so a step reads one contiguous row.
Memory is O(paths x NORMAL_BLOCK), not O(paths x steps). The first N
paths of a batch can be recorded step by step as it runs: that is how
estimate_value hands back recorded paths, and simulate_path is its
one-path case.

Each batch returns its per-stream results (samples, jump counts, clamp
counts), its timings and its recorded paths; estimate_value joins every
batch in stream order and reduces them once, a fixed-order pairwise sum
over the stream index for the mean. A large estimate runs on two processes.
The streams are cut into two contiguous halves; the calling process steps
the first and one worker, forked for the call and reaped before it returns,
steps the second, each as a list of batches. The process count moves no
bit. Threads would not help: the per-path draws are Generator calls that
hold the GIL.

The applied extraction rate is min(policy rate, Y/dt): a step may not
extract more than the remaining reserve, which keeps the booked revenue
consistent with the admissibility constraint Y >= 0. The recorded u is the
applied rate.

A path with an empty reserve has no decision left: for a rate u >= 0,
clip(min(u, 0/dt), 0, u_max) is +0.0 (for u = -0.0 it is -0.0). A GridField
policy's rates are checked once to be finite, >= 0 and not -0.0, so after
the first step that ends with every reserve of the batch empty, each step
applies +0.0 without reading the policy and leaves Y as it is. The payoff
still books profit_rate, called with the scalars y = u = 0.0, which gives
the bits of the call on the all-+0.0 Y and u arrays. A callable policy is
read at every step, since min(NaN, 0.0) is NaN. Where every path extracts
its whole reserve in the first step, as at reference.yaml's start, that
leaves one policy read per batch; a start that extracts later reads the
policy until its last reserve is empty.
"""

from __future__ import annotations

import math
import numbers
import operator
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from .grid import GridField
from .model import MarketModel, profit_rate, terminal_value
from .solver import SWEEP_WORKERS

NORMAL_BLOCK = 512  # Euler steps per block of drawn normals
BATCH_PATHS = 10_000  # streams stepped together in one batch
PATH_WORKERS = SWEEP_WORKERS  # processes per estimate, the caller included
# path-steps (streams x Euler steps) below which an estimate stays in process:
# forking costs about 25 ms, and 1,000 streams x 200 steps broke even
SPLIT_MIN_PATH_STEPS = 200_000
_TILE = 256  # paths per transposed copy when a block is filled


def simulate_regime_chain(generator: np.ndarray, start_regime: int, horizon: float,
                          rng: np.random.Generator, t0: float = 0.0):
    """Exact jump-chain simulation on [t0, horizon].

    Returns (times, states): times[0] = t0 with states[0] = start_regime,
    later entries are the switch instants and the regimes entered there.
    """
    Q = np.asarray(generator, dtype=float)
    M = Q.shape[0]
    if not (0 <= start_regime < M):
        raise ValueError(f"start regime {start_regime} out of range for {M} regimes")
    times = [float(t0)]
    states = [int(start_regime)]
    t, i = float(t0), int(start_regime)
    while True:
        rate = -Q[i, i]
        if rate <= 0.0:
            break
        t = t + rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        probs = Q[i].copy()
        probs[i] = 0.0
        probs = probs / rate
        i = int(rng.choice(M, p=probs))
        times.append(t)
        states.append(i)
    return np.asarray(times), np.asarray(states, dtype=np.int64)


@dataclass
class PathRecord:
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    regime: np.ndarray
    u: np.ndarray  # applied extraction rate over [t_n, t_n+dt); 0 in the last slot
    discounted_profit: np.ndarray  # cumulative running profit, discounted to s0
    terminal_contribution: float
    total_payoff: float
    n_jumps: int
    clamp_count: int


@dataclass
class EstimateReport:
    mean: float
    std_error: float
    n_paths: int
    seed: int | None
    antithetic: bool
    dt: float
    diagnostics: dict
    paths: list = field(default_factory=list)  # recorded PathRecords


def _policy_callable(policy):
    """(rate function, skip_empty). skip_empty holds for a GridField, whose
    rates are checked here to be finite, >= 0 and not -0.0: an empty reserve
    then applies +0.0 whatever its node holds, as a read would. A callable is
    read at every step."""
    if isinstance(policy, GridField):
        g = policy.grid
        v = policy.values
        # no field-sized temporaries: a set sign bit (a negative, -0.0, -inf
        # or -NaN) is a negative int64 view, and a NaN max fails the bound
        if not (v.view(np.int64).min() >= 0 and v.max() < math.inf):
            node = tuple(np.argwhere(np.signbit(v) | ~(v < math.inf))[0].tolist())
            raise ValueError(f"policy rate {float(v[node])!r} at node (regime, s_idx, x_idx, "
                             f"y_idx) = {node}: a grid policy needs finite rates >= 0, "
                             "and no -0.0")
        # one flat read per path: node (m, s, x, y) sits at this offset
        flat = v.reshape(-1)
        per_regime, per_time = g.n_s * g.n_x * g.n_y, g.n_x * g.n_y

        def lookup(t, x, y, regime):
            si, xi, yi = g.nearest_indices(t, x, y)  # xi is a new array, summed into in place
            xi *= g.n_y
            xi += yi
            xi += si * per_time
            xi += regime * per_regime
            return flat[xi]

        return lookup, True
    if callable(policy):
        return policy, False
    raise TypeError("policy must be a GridField or a callable (t, x, y, regime) -> u")


_NO_EVENTS = (np.empty(0, dtype=np.intp), np.empty(0))


def _draw_path_inputs(model: MarketModel, s0, i0, horizon, step_starts, dt, stream):
    """Fixed per-path draw script up to the normals, turned into step events.

    Returns (rng, switches, jumps, n_jumps). rng is left at the path's first
    normal. switches = (steps, codes): the steps at whose start the regime
    changes, and the regime entered. jumps = (steps, values): the steps the
    jumps land in, with the product of their factors 1 + gamma*z
    (proportional) or the sum of their addends gamma*z (additive),
    compounded in event order.
    """
    rng = np.random.default_rng(stream)
    times, states = simulate_regime_chain(model.generator, i0, horizon, rng, t0=s0)
    gamma_total = model.measure.total_mass
    if gamma_total > 0.0:
        n_jumps = int(rng.poisson(gamma_total * (horizon - s0)))
    else:
        n_jumps = 0
    n_steps = step_starts.size
    # switch m sets the regime of every step starting at or after times[m];
    # of several switches before one step starts, the last one counts
    at = np.searchsorted(step_starts, times[1:], side="left")
    last = np.ones(at.size, dtype=bool)
    last[:-1] = at[1:] != at[:-1]
    keep = last & (at < n_steps)
    switches = (at[keep], states[1:][keep])
    if not n_jumps:
        return rng, switches, _NO_EVENTS, 0
    jump_times = np.sort(rng.uniform(s0, horizon, size=n_jumps))
    jump_sizes = model.measure.sample_jumps(rng, n_jumps)
    ev_codes = states[np.searchsorted(times, jump_times, side="right") - 1]
    idx = np.minimum(((jump_times - s0) / dt).astype(int), n_steps - 1)
    effect = np.asarray(model.dynamics.jump_scale)[ev_codes] * jump_sizes
    if model.jump_convention == "proportional":
        effect, compound, identity = 1.0 + effect, operator.mul, 1.0
    else:
        compound, identity = operator.add, 0.0
    steps, values = [], []
    for step, v in zip(idx.tolist(), effect.tolist()):
        if not steps or steps[-1] != step:
            steps.append(step)
            values.append(identity)
        values[-1] = compound(values[-1], v)
    return rng, switches, (np.array(steps, dtype=np.intp), np.array(values)), n_jumps


def _step_events(per_path, n_steps):
    """Merge per-path (steps, values) events into (paths, values, bounds):
    step j acts on paths[bounds[j]:bounds[j+1]] with the matching values."""
    counts = [s.size for s, _ in per_path]
    steps = np.concatenate([s for s, _ in per_path])
    order = np.argsort(steps, kind="stable")
    paths = np.repeat(np.arange(len(per_path)), counts)[order]
    values = np.concatenate([v for _, v in per_path])[order]
    bounds = np.searchsorted(steps[order], np.arange(n_steps + 1)).tolist()
    return paths, values, bounds


def _draw_normals(rngs, out, antithetic):
    """Fill out (steps x paths, step-major) with every path's next normals.

    With antithetic pairing the second half of the paths gets the negated
    normals of the first half.
    """
    k = len(rngs)
    tile = np.empty((min(_TILE, k), out.shape[0]))
    for lo in range(0, k, _TILE):
        group = rngs[lo : lo + _TILE]
        for row, rng in zip(tile, group):
            rng.standard_normal(out=row)
        out[:, lo : lo + len(group)] = tile[: len(group)].T
    if antithetic:
        np.negative(out[:, :k], out=out[:, k:])


def _clock(horizon, s0, dt_target):
    """(Euler step count, step length) of a path from s0 to the horizon."""
    n_steps = max(1, int(round((horizon - s0) / dt_target)))
    return n_steps, (horizon - s0) / n_steps


def _simulate_block(model, policy, start, dt_target, streams, antithetic=False, record=0):
    """Advance all paths of one batch in lockstep; per-path streams, shared clock.

    policy is _policy_callable's (rate function, skip_empty). With
    skip_empty, the steps after the first one that ends with every reserve
    empty apply 0.0 without reading the policy.

    Returns (samples, n_jumps, clamps, draw_s, step_s, lookup_steps, paths):
    per stream, its payoff (the average of its pair when antithetic) and its
    jump count; the price clamp count of every simulated path; the seconds
    spent drawing and stepping; the steps that read the policy; and the
    first `record` paths, kept step by step, as PathRecords.
    """
    policy_fn, skip_empty = policy
    s0, x0, y0, i0 = start
    e = model.economics
    d = model.dynamics
    horizon = e.horizon
    n_steps, dt = _clock(horizon, s0, dt_target)

    t_draw = time.perf_counter()
    times = s0 + dt * np.arange(n_steps + 1)
    step_starts = times[:-1]
    rngs, switches, jumps = [], [], []
    n_jumps = np.zeros(len(streams), dtype=np.int64)
    for p, stream in enumerate(streams):
        rng, sw, jp, n_jumps[p] = _draw_path_inputs(model, s0, i0, horizon, step_starts,
                                                    dt, stream)
        rngs.append(rng)
        switches.append(sw)
        jumps.append(jp)
    if antithetic:
        switches, jumps = switches * 2, jumps * 2
    sw_paths, sw_codes, sw_bounds = _step_events(switches, n_steps)
    jp_paths, jp_values, jp_bounds = _step_events(jumps, n_steps)
    n = len(switches)
    normals = np.empty((min(NORMAL_BLOCK, n_steps), n))
    draw_s = time.perf_counter() - t_draw
    normals_s = 0.0

    mu = np.asarray(d.mu)
    sig = np.asarray(d.sigma)
    gam = np.asarray(d.jump_scale)
    r = d.discount_rate
    comp_drift = model.measure.compensator_drift()
    sqrt_dt = math.sqrt(dt)
    proportional = model.jump_convention == "proportional"

    # the regime and its parameters per path, rewritten at switch events
    alpha = np.full(n, int(i0), dtype=np.intp)
    mu_a, gam_a, sig_a = mu[alpha], gam[alpha], sig[alpha] * sqrt_dt
    X = np.full(n, float(x0))
    Y = np.full(n, float(y0))
    payoff = np.zeros(n)
    clamps = np.zeros(n, dtype=np.int64)
    rec_x, rec_y = np.empty((record, n_steps + 1)), np.empty((record, n_steps + 1))
    rec_u, rec_profit = np.zeros((record, n_steps + 1)), np.zeros((record, n_steps + 1))
    rec_codes = np.empty((record, n_steps + 1), dtype=np.int64)
    rec_x[:, 0], rec_y[:, 0] = x0, y0
    reading, lookup_steps = True, n_steps  # the policy decides while a reserve remains

    t_loop = time.perf_counter()
    for step in range(n_steps):
        row = step % NORMAL_BLOCK
        if row == 0:
            t_normals = time.perf_counter()
            _draw_normals(rngs, normals[: n_steps - step], antithetic)
            normals_s += time.perf_counter() - t_normals
        lo, hi = sw_bounds[step], sw_bounds[step + 1]
        if lo < hi:
            p, codes = sw_paths[lo:hi], sw_codes[lo:hi]
            alpha[p], mu_a[p], gam_a[p] = codes, mu[codes], gam[codes]
            sig_a[p] = sig[codes] * sqrt_dt
        t = s0 + step * dt
        disc = math.exp(-r * (t - s0))
        if reading:
            u_pol = np.asarray(policy_fn(t, X, Y, alpha), dtype=float)
            u_app = np.clip(np.minimum(u_pol, Y / dt), 0.0, e.u_max)
            profit = profit_rate(model, t, X, Y, u_app)
        else:  # every Y and u_app is +0.0: the same bits from scalars
            profit = profit_rate(model, t, X, 0.0, 0.0)
        payoff += disc * profit * dt
        dX = model.drift(X, mu_a, gam_a, comp_drift)
        dX *= dt
        X += dX
        X += sig_a * normals[row]
        lo, hi = jp_bounds[step], jp_bounds[step + 1]
        if lo < hi:
            p = jp_paths[lo:hi]
            X[p] = X[p] * jp_values[lo:hi] if proportional else X[p] + jp_values[lo:hi]
        neg = X < 0.0
        if np.any(neg):
            clamps += neg
            X[neg] = 0.0
        if reading:
            Y = np.maximum(Y - u_app * dt, 0.0)
        if record:
            rec_x[:, step + 1], rec_y[:, step + 1] = X[:record], Y[:record]
            rec_u[:, step] = u_app[:record]
            rec_profit[:, step + 1] = payoff[:record]
            rec_codes[:, step] = alpha[:record]
        if reading and skip_empty and not Y.any():  # max(0 - 0*dt, 0) = 0 from here on
            reading, lookup_steps, u_app = False, step + 1, np.zeros(n)
    step_s = time.perf_counter() - t_loop - normals_s
    draw_s += normals_s

    disc_T = math.exp(-r * (horizon - s0))
    term = disc_T * np.asarray(terminal_value(model, X, Y), dtype=float)
    total = payoff + term
    rec_codes[:, n_steps] = rec_codes[:, n_steps - 1]
    paths = [
        PathRecord(times, rec_x[p], rec_y[p], rec_codes[p], rec_u[p], rec_profit[p],
                   float(term[p]), float(total[p]), int(n_jumps[p]), int(clamps[p]))
        for p in range(record)
    ]
    k = len(streams)
    samples = 0.5 * (total[:k] + total[k:]) if antithetic else total
    return samples, n_jumps, clamps, draw_s, step_s, lookup_steps, paths


def simulate_path(model: MarketModel, policy, start, dt, seed_or_stream) -> PathRecord:
    """One fully recorded path. start = (s0, x0, y0, regime0)."""
    _validate_start(model, start, dt)
    if not isinstance(seed_or_stream, np.random.SeedSequence):
        seed_or_stream = np.random.SeedSequence(seed_or_stream)
    return _simulate_block(model, _policy_callable(policy), start, dt, [seed_or_stream],
                           record=1)[-1][0]


def check_record(model: MarketModel, start, n_paths: int, dt: float, antithetic: bool,
                 record: int = 0) -> int:
    """Check every simulation input (start node and dt, n_paths >= 2, even
    n_paths when antithetic, `record` paths within the streams) and return the
    stream count: n_paths, or n_paths // 2 with antithetic pairing."""
    _validate_start(model, start, dt)
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2 for a standard error")
    if antithetic and n_paths % 2:
        raise ValueError("antithetic estimation needs an even n_paths")
    n_streams = n_paths // 2 if antithetic else n_paths
    if not 0 <= record <= n_streams:
        raise ValueError(f"cannot record {record} paths: {n_streams} streams are simulated")
    return n_streams


def _worker_main(share, lo, hi, conn):
    """The forked worker: send back share(lo, hi), its list of batch results,
    or the exception it raised with its traceback, for the caller to raise."""
    try:
        reply = (True, share(lo, hi), None)
    except Exception as exc:
        reply = (False, exc, traceback.format_exc())
    try:
        conn.send(reply)
    except Exception:  # an exception that does not pickle
        conn.send((False, RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}"), reply[2]))
    conn.close()


def _in_two_processes(share, n):
    """share(0, h) in this process and share(h, n) in one forked worker,
    h = ceil(n / 2); both lists of batch results, in stream order.

    share, the model and the policy (any callable or a grid lookup closure)
    reach the worker by fork inheritance, so none is pickled; only the
    worker's result comes back over a pipe. Forking a process that has threads is
    safe here: the solver's sweep thread is idle between sweeps, holding no
    lock, and the worker never sweeps. The worker is reaped before this
    returns or raises; its exception is raised here, chained to its traceback.
    """
    import multiprocessing  # about 8 ms to import: only a split estimate pays it

    if "fork" not in multiprocessing.get_all_start_methods():
        return [share(0, n)]
    ctx = multiprocessing.get_context("fork")
    half = (n + 1) // 2
    reader, writer = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_worker_main, args=(share, half, n, writer), daemon=True)
    worker.start()
    writer.close()  # so a worker that dies leaves EOF on the pipe, not a hang
    answered = False
    try:
        first = share(0, half)
        try:
            ok, second, worker_tb = reader.recv()
        except EOFError:
            worker.join()
            raise RuntimeError(f"the Monte Carlo worker process died (exit code "
                               f"{worker.exitcode}) before returning its paths") from None
        answered = True
    finally:
        reader.close()
        if not answered:
            worker.terminate()
        worker.join()
    if not ok:
        raise second from RuntimeError(f"in the Monte Carlo worker process:\n{worker_tb}")
    return [first, second]


def estimate_value(model: MarketModel, policy, start, n_paths: int, dt: float,
                   seed: int, antithetic: bool = False, record: int = 0) -> EstimateReport:
    """Mean payoff under the policy with a standard error.

    Antithetic pairing shares each stream's chain and jumps between the
    +normals and -normals members and treats the pair average as one sample.
    BATCH_PATHS streams advance together as one batch; a batch holds
    O(BATCH_PATHS x NORMAL_BLOCK) normals. The first `record` streams' paths
    (their +normals member when antithetic) come back recorded in `paths`.

    With PATH_WORKERS = 2 and at least SPLIT_MIN_PATH_STEPS path-steps
    (streams x Euler steps), the streams are cut into two contiguous halves:
    this process steps the first and one forked worker the second. Smaller
    estimates, and platforms without the fork start method, stay in process.
    Every batch's results are joined in stream order and reduced here once,
    so neither the batches nor the process count move a bit.

    The diagnostics count price clamps on every simulated path, and carry
    the processes that stepped the paths (workers), the seconds spent
    drawing (draw_s) and stepping (step_s), and the Euler steps that read the
    policy (policy_lookup_steps), each summed over the batches.
    """
    n_streams = check_record(model, start, n_paths, dt, antithetic, record)
    n_steps = _clock(model.economics.horizon, start[0], dt)[0]
    streams = np.random.SeedSequence(seed).spawn(n_streams)
    rates = _policy_callable(policy)

    def share(lo, hi):  # streams[lo:hi] in BATCH_PATHS batches, recording below `record`
        return [_simulate_block(model, rates, start, dt, streams[b : min(b + BATCH_PATHS, hi)],
                                antithetic=antithetic,
                                record=max(0, min(record, hi, b + BATCH_PATHS) - b))
                for b in range(lo, hi, BATCH_PATHS)]

    if PATH_WORKERS < 2 or n_streams * n_steps < SPLIT_MIN_PATH_STEPS:
        parts = [share(0, n_streams)]
    else:
        parts = _in_two_processes(share, n_streams)
    samples, jumps, clamps, draw_s, step_s, lookup_steps, paths = zip(
        *(b for part in parts for b in part))
    samples, jumps, clamps = map(np.concatenate, (samples, jumps, clamps))
    mean = float(np.sum(samples) / samples.size)
    sd = float(np.std(samples, ddof=1))
    se = sd / math.sqrt(samples.size)
    return EstimateReport(
        mean=mean,
        std_error=se,
        n_paths=n_paths,
        seed=seed,
        antithetic=antithetic,
        dt=dt,
        diagnostics={
            "mean_jumps_per_path": float(np.mean(jumps)),
            "paths_with_price_clamp": int(np.count_nonzero(clamps)),
            "total_price_clamps": int(np.sum(clamps)),
            "n_steps": n_steps,
            "workers": len(parts),
            "draw_s": sum(draw_s),
            "step_s": sum(step_s),
            "policy_lookup_steps": sum(lookup_steps),
        },
        paths=[rec for batch in paths for rec in batch],
    )


def _validate_start(model, start, dt):
    s0, x0, y0, i0 = start
    e = model.economics
    if not (0 < dt < math.inf):
        raise ValueError(f"dt must be positive{' and finite' if dt > 0 else ''}, got {dt}")
    if not (0.0 <= s0 < e.horizon):
        raise ValueError(f"start time {s0} outside [0, {e.horizon})")
    if not (0 <= x0 < math.inf):
        raise ValueError(f"start price state {x0} must be nonnegative and finite")
    if not (0.0 <= y0 <= e.reserve_capacity):
        raise ValueError(f"start reserve {y0} outside [0, {e.reserve_capacity}]")
    # int() would read 1.7 as regime 1 and True as regime 1
    if isinstance(i0, bool) or not isinstance(i0, numbers.Real) or not float(i0).is_integer():
        raise ValueError(f"start regime {i0!r} must be an integer")
    if not (0 <= int(i0) < model.n_regimes):
        raise ValueError(f"start regime {i0} out of range")


def analytic_oracle(model: MarketModel, s: float, x, y):
    """Closed-form value for the restricted no-action configuration.

    Requires a single regime, no jumps, u_max = 0, the linear price map and
    zero fixed cost, where the value is the discounted expected settlement:

        e^{-r(T-s)} (K - y) (mu + (x - mu) e^{-kappa(T-s)} - m_T).

    x and y may be arrays that broadcast: one call prices a time slice. s
    stays scalar because math.exp keeps each value's bits; np.exp does not.
    """
    e, d = model.economics, model.dynamics
    problems = []
    if model.n_regimes != 1:
        problems.append("a single regime")
    if model.measure.total_mass != 0.0:
        problems.append("a zero-mass jump measure")
    if e.u_max != 0.0:
        problems.append("u_max = 0")
    if model.price_kind != "linear":
        problems.append("the linear price map")
    if e.fixed_cost != 0.0:
        problems.append("zero fixed cost")
    if problems:
        raise ValueError("analytic oracle requires " + ", ".join(problems))
    if not (0.0 <= s <= e.horizon):
        raise ValueError(f"time {s} outside [0, {e.horizon}]")
    tau = e.horizon - s
    r, kappa, mu = d.discount_rate, d.kappa, d.mu[0]
    return math.exp(-r * tau) * (e.reserve_capacity - y) * (
        mu + (x - mu) * math.exp(-kappa * tau) - e.terminal_offset
    )
