"""Fixed-point solver for the discounted extraction control problem.

The value function satisfies, node by node,

    r V = D_s V + sup_u [ 0.5 sigma_i^2 D_xx V + kappa (mu_i - x) D_x V
                          - u D_y V + I V + L(t,x,y,u) + Q V ]

with the terminal slice pinned to the settlement payoff. Discretizing on
the tensor grid and collecting the center node's coefficients gives a
per-node balance equation

    (1 + c(x,i;u)) V0 = RHS'(u)                 for the maximizing u,

where RHS' gathers the time neighbor (weight 1/(rk)), the price neighbors
(weights a and b, which carry the diffusion and the total drift: the mean
reversion less the small-jump compensator of I), the reserve neighbor
(weight u/(rl) at y - l), the jump destinations (weights c_j/r), the other
regimes (weights q_ij/r), and the running profit L/r.

The sweep iterated here solves each node's balance for its own value with
all neighbor values frozen from the previous iterate:

    V0_new = max_u RHS'(u) / (1 + c(u)).

This has exactly the same fixed points as the textbook operator statement
(moving the center term across the equation is an identity whenever
1 + c(u) > 0, which holds for every u >= 0), but unlike the literal
statement every weight in the update is nonnegative, so the sweep is
monotone, and the update is a strict sup-norm contraction on constants with
factor |sum c_j - Gamma| / r. The paper-faithful stencil is monotone only
for u_max = 0: its price weights are checked positive when the operator is
built, and control_terms refuses every extracting control, since the
paper's forward reserve difference would put the weight -u/(rl) on
V(y + l). Both RHS'(u) and 1 + c(u) are affine in u, so the per-node
maximum over a control interval is attained at an endpoint: evaluating u in
{0, u_max} is exact (bang-bang). One implementation of this update and its
empty-reserve rule (u = 0 at y = 0), DiscreteOperator._best_candidate,
serves the sweep, the backward reserve scan, dense control scans and
pinned-control checks (the last two through sweep(controls=...)); one
method, reserve_neighbor, reads y - l for the sweep and the switching field.

Two sweep orders are provided. "jacobi" updates every node from the
previous full-grid iterate (deterministic, trivially parallel: the update
is a pure function of the frozen iterate, so any worker partition gives
bit-identical results; see sweep for its two threads). The operator is the
same on every time slice and slice t's update reads only slices t and
t + 1, so where the iterate's leading slices are bitwise copies of slice 0
(the terminal payoff broadcast to every slice, and what the first sweeps
leave of it) their updates are copies too: sweep computes one of them and
copies its bits. BLAS threading is
left alone: the jump term is a few small products over row bands (see
_jump_bands), and on the 2x-refined reference grid OpenBLAS's thread count
(1, 2 or unset) moved no bit of a backward solve, where the dense 401-wide
product summed differently per thread count. "backward" walks time slices
from the horizon down, running the same per-node update as an inner fixed
point on each slice until it settles before stepping back. Within a pass
it updates the regimes in turn and scans the reserve axis upward, each
node reading the neighbor value just written (Gauss-Seidel in y): the
stencil reads only y - l, so the slice's reserve coupling is
lower-triangular and one ascending scan solves it exactly, and the passes
per slice do not grow with the reserve grid. Each slice's inner iteration
starts from the cubic in time through the four converged slices above it
(lower orders next to the horizon; see _warm_start), which roughly halves
the passes per slice against a copy of the slice above. It reaches the
same fixed point and is much faster when the horizon carries many slices.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError, MonotonicityError, NumericalError
from .grid import Grid4D, GridField
from .model import MarketModel, profit_rate, terminal_value, validate_model
from .quadrature import ContractionReport, build_quadrature, check_contraction

# bytes per block-sized array of a full sweep: 10 time slices of reference.yaml
SWEEP_BLOCK_BYTES = 10 * 201 * 21 * 8
_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
SWEEP_WORKERS = min(2, len(_CPUS))  # threads per full sweep, the caller included
# rows per band of a jump product (see _jump_bands). On reference.yaml 16 to
# 64 rows kept the dense product's bits; 16 and 24 ran twice as slow as 32,
# and 32 to 64 about equally fast (32 does the fewest multiply-adds)
_JUMP_BAND_ROWS = 32


def sweep_block(grid: Grid4D) -> int:
    """Time slices per task of a full sweep on `grid`: as many as keep one
    block-sized array within SWEEP_BLOCK_BYTES, and at least one."""
    return max(1, SWEEP_BLOCK_BYTES // (grid.n_x * grid.n_y * 8))


@functools.cache
def _worker(pid: int) -> ThreadPoolExecutor:
    """Process `pid`'s sweep thread, started by its first threaded sweep (a
    forked child inherits the executor object, not its thread)."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="oilopt-sweep")


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-6
    max_iterations: int = 20000
    mode: str = "upwind"  # or "paper_faithful" stencil choice
    sweep: str = "jacobi"  # or "backward"
    xi: float = 0.01  # quadrature node spacing
    truncation: float = 5.0  # quadrature half-width cap

    def __post_init__(self):
        if not (0 < self.tolerance < math.inf):
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if self.mode not in ("upwind", "paper_faithful"):
            raise ConfigError(f"mode must be 'upwind' or 'paper_faithful', got {self.mode!r}")
        if self.sweep not in ("jacobi", "backward"):
            raise ConfigError(f"sweep must be 'jacobi' or 'backward', got {self.sweep!r}")


@dataclass
class ConvergenceReport:
    iterations: int
    final_residual: float
    residuals: list = field(default_factory=list)
    mode: str = "upwind"
    sweep: str = "jacobi"
    contraction: ContractionReport | None = None
    wall_time: float = 0.0
    operator: DiscreteOperator | None = None  # the operator the solve iterated
    # backward only: (passes, last inner change) per time slice, slice 0 first
    slices: list = field(default_factory=list)
    balance: tuple | None = None  # backward only: dpp_residual of the returned field
    jump_band_share: float | None = None  # the operator's, kept when the operator is dropped
    slice_updates: int = 0  # (regime, slice) updates of the jacobi sweeps or backward passes


class DiscreteOperator:
    """Precomputed sweep machinery for one (model, grid, config) triple.

    It holds each term of the sweep once, in the form the sweep applies it.
    Per regime, as (n_x, n_y) planes constant along the reserve axis: the
    price-neighbor weights a_plane and b_plane, so that every product of a
    block runs over contiguous rows. Per regime and price node: the
    u-independent part of the center coefficient, center_base. Per regime:
    the jump matrix's row bands over their nonzero columns (jump_bands); the
    dense matrix is built only to cut them, and jump_mat builds it again on
    first read. Per control: the running profit over r and the planes
    1 + c(u) (see control_terms).
    """

    def __init__(self, model: MarketModel, grid: Grid4D, cfg: SolverConfig):
        report = validate_model(model)
        if not report.ok:
            raise ConfigError("model validation failed: " + "; ".join(report.violations))
        if grid.n_regimes != model.n_regimes:
            raise ConfigError(
                f"grid carries {grid.n_regimes} regimes but model has {model.n_regimes}"
            )
        e = model.economics  # the settlement and the Monte Carlo read T and K from the model
        for name, span, want in (("horizon", grid.horizon, e.horizon),
                                 ("reserve capacity", grid.reserve_capacity, e.reserve_capacity)):
            if abs(span - want) > 1e-9 * max(1.0, abs(want)):
                raise ConfigError(f"grid {name} {span} differs from the model's {want}")
        self.model = model
        self.grid = grid
        self.cfg = cfg
        self.scheme = build_quadrature(model.measure, cfg.xi, cfg.truncation)
        self.r = model.dynamics.discount_rate
        self.contraction = check_contraction(self.scheme, self.r)
        self.contraction.require()
        self._build_coefficients()
        self.jump_bands = [None if P is None else _jump_bands(P)
                           for P in map(self._build_jump_matrix, range(grid.n_regimes))]
        # np.unique would import numpy.ma, which nothing else reads
        self.controls = np.array(sorted({0.0, float(model.economics.u_max)}))
        self.slice_updates = 0  # (regime, slice) updates computed by sweep
        self._terms = {}
        for u in self.controls:
            self.control_terms(u)  # a refused endpoint fails the build
        x, y = grid.x_values[:, None], grid.y_values[None, :]
        self.terminal = np.broadcast_to(
            np.asarray(terminal_value(model, x, y)), (grid.n_regimes, grid.n_x, grid.n_y)
        ).copy()

    def _build_coefficients(self):
        """Node weights of the balance equation: the price-neighbor weights a
        and b as the (M, n_x, n_y) planes the sweep applies, and the
        u-independent center coefficient center_base, (M, n_x), from which
        control_terms builds 1 + c(u). The paper-faithful stencil puts the
        total drift (MarketModel.drift, compensator included) on the forward price
        difference, so its up weight a turns negative where that drift is
        negative enough; the upwind stencil splits it by sign and is signed
        correctly on any grid and for any jump measure.
        """
        model, g = self.model, self.grid
        d = model.dynamics
        r, k, h = self.r, g.time_step, g.price_step
        x = g.x_values
        sig = np.asarray(d.sigma)[:, None]
        drift = model.drift(x, np.asarray(d.mu)[:, None], np.asarray(d.jump_scale)[:, None],
                            self.scheme.compensator_sum)
        diff = sig * sig / (2.0 * r * h * h)
        if self.cfg.mode == "paper_faithful":
            a = diff + drift / (r * h)
            b = np.broadcast_to(diff, (g.n_regimes, g.n_x))
            drift_center = drift / (r * h)
            bad = np.flatnonzero((a <= 0.0) | (b <= 0.0))
            if bad.size:
                m, i = divmod(int(bad[0]), g.n_x)
                if b[m, i] <= 0.0:
                    detail = "diffusion must be positive for the paper-faithful stencil"
                else:
                    bound = sig[m, 0] * sig[m, 0] / (2.0 * -drift[m, i])
                    detail = (
                        f"restore positivity with a finer price step h < "
                        f"sigma^2/(2*(-drift)) = {bound:.6g}, drift = kappa*(mu-x) - "
                        f"compensator = {drift[m, i]:.6g}"
                    )
                raise MonotonicityError(
                    f"paper-faithful coefficient check failed at x={x[i]:.6g}, regime {m}: "
                    f"a={a[m, i]:.6g}, b={b[m, i]:.6g}; {detail}"
                )
        else:
            a = diff + np.maximum(drift, 0.0) / (r * h)
            b = diff + np.maximum(-drift, 0.0) / (r * h)
            drift_center = np.abs(drift) / (r * h)
        Q = model.generator
        q_off = (Q.sum(axis=1) - np.diag(Q))[:, None]
        self.a_plane, self.b_plane = self._plane(a), self._plane(b)
        self.center_base = (
            1.0 / (r * k)
            + sig * sig / (r * h * h)
            + drift_center
            + self.scheme.total_mass / r
            + q_off / r
        )

    def _plane(self, w):
        """The (M, n_x) node weights `w` repeated along the reserve axis, a new
        (M, n_x, n_y) array."""
        return np.repeat(w[..., None], self.grid.n_y, axis=-1)

    def _build_jump_matrix(self, m: int):
        """Row x_i of the matrix carries sum_j c_j split linearly onto the
        grid nodes bracketing the jump destination of x_i (clamped)."""
        if self.scheme.c_nodes.size == 0:
            return None
        g = self.grid
        x = g.x_values
        gamma = self.model.dynamics.jump_scale[m]
        P = np.zeros((g.n_x, g.n_x))
        rows = np.arange(g.n_x)
        for z, w in zip(self.scheme.c_nodes, self.scheme.c_weights):
            if self.model.jump_convention == "proportional":
                dest = x + gamma * x * z
            else:
                dest = x + gamma * z
            pos = np.clip(dest / g.price_step, 0.0, g.n_x - 1.0)
            lo = pos.astype(int)
            hi = np.minimum(lo + 1, g.n_x - 1)
            frac = pos - lo
            np.add.at(P, (rows, lo), w * (1.0 - frac))
            np.add.at(P, (rows, hi), w * frac)
        return P

    @functools.cached_property
    def jump_mat(self):
        """The dense jump matrix per regime (None without a jump term), built
        on first read; the sweep reads only jump_bands."""
        return [self._build_jump_matrix(m) for m in range(self.grid.n_regimes)]

    def control_terms(self, u):
        """(running profit / r, 1 + c(u)) for one control, shapes (n_x, n_y)
        and (M, n_x, n_y): 1 + c(u) is a plane per regime, constant along y,
        so the sweep divides each block by whole contiguous planes.

        The cost family is time-independent, so one profit slab per control
        serves every time slice. Terms are built on first use and cached;
        sweep builds them for its controls before any thread starts. The
        paper-faithful stencil refuses u > 0 with a MonotonicityError.
        """
        u = float(u)
        terms = self._terms.get(u)
        if terms is None:
            g = self.grid
            if self.cfg.mode == "paper_faithful" and u > 0.0:
                raise MonotonicityError(
                    f"paper-faithful reserve stencil puts the weight -u/(rl) = "
                    f"{-u / (self.r * g.reserve_step):.6g} on V(y + l) at u={u:.6g}; it is "
                    "monotone only for u_max = 0"
                )
            den = self._plane(1.0 + self.center_base + u / (self.r * g.reserve_step))
            profit = np.asarray(
                profit_rate(self.model, 0.0, g.x_values[:, None], g.y_values[None, :], u)
            )
            terms = self._terms[u] = (profit / self.r, den)
        return terms

    @property
    def jump_band_share(self):
        """The banded jump products' multiply-adds over the dense products'
        (None without a jump term)."""
        banded = [bands for bands in self.jump_bands if bands is not None]
        if not banded:
            return None
        return sum((r1 - r0) * (c1 - c0) for bands in banded
                   for r0, r1, c0, c1, _ in bands) / (len(banded) * self.grid.n_x ** 2)

    # -- sweep building blocks ------------------------------------------------

    def reserve_neighbor(self, block, scale=1.0):
        """The stencil's reserve-neighbor read of `block` at y - l, clamped at
        y = 0, times `scale` (x * 1.0 is x for every x but a signaling NaN):
        a new C-ordered array for any layout of `block`. One flat shift by a
        node fills every y >= 1 in one contiguous run, and the y = 0 column
        is then written over what the shift put there. The sweep's
        extracting candidates and the switching field use it."""
        out = np.empty(block.shape, block.dtype)
        np.multiply(block.reshape(-1)[:-1], scale, out=out.reshape(-1)[1:])
        np.multiply(block[..., 0], scale, out=out[..., 0])
        return out

    def _base_block(self, V, m, lo, hi):
        """u-independent part of RHS' for regime m on time slices [lo, hi).

        The weights are whole (n_x, n_y) planes, so every product runs over
        contiguous rows; one block-sized buffer holds each term in turn.
        """
        g = self.grid
        r, k = self.r, g.time_step
        Vt = V[m, lo:hi]
        a, b = self.a_plane[m], self.b_plane[m]
        base = V[m, lo + 1 : hi + 1] / (r * k)
        term = np.empty_like(base)
        # the price neighbors, clamped at the faces: every a term before the b terms
        np.multiply(a[:-1], Vt[..., 1:, :], out=term[..., :-1, :])
        np.multiply(a[-1], Vt[..., -1, :], out=term[..., -1, :])
        base += term
        np.multiply(b[1:], Vt[..., :-1, :], out=term[..., 1:, :])
        np.multiply(b[0], Vt[..., 0, :], out=term[..., 0, :])
        base += term
        if self.jump_bands[m] is not None:
            for r0, r1, c0, c1, band in self.jump_bands[m]:
                np.matmul(band, Vt[:, c0:c1], out=term[:, r0:r1])
            base += np.divide(term, r, out=term)
        Q = self.model.generator
        for j in range(g.n_regimes):
            if j != m and Q[m, j] != 0.0:
                base += np.multiply(V[j, lo:hi], Q[m, j] / r, out=term)
        return base

    def _best_candidate(self, V, m, lo, hi, controls=None, scan=False):
        """max over controls of RHS'(u)/(1+c(u)); the y=0 face takes u=0 for
        any control list, since extraction needs reserve: the u = 0
        candidate's column if u = 0 comes first, else that quotient taken
        before the base block moves. Every extracting candidate and the
        scan's row 0 take this face.

        An extracting candidate reads its reserve neighbor from V as given
        (scan=False: the frozen read of a sweep) or, with scan=True, from the
        value this call has just produced there, walking y upward from rows
        seeded with the u = 0 candidate (-inf without u = 0): the y - l read
        makes the slice's reserve coupling triangular, solved in one pass.

        The last control's numerator is summed in place on the base block, so
        the endpoint pair holds three block-sized arrays: the base block, the
        best so far and one candidate. A longer frozen list holds four, the
        fourth being the numerator of a control before the last: each
        control's numerator and candidate are released before the next
        control's are made.
        """
        g = self.grid
        r, l = self.r, g.reserve_step
        controls = self.controls if controls is None else controls
        base = self._base_block(V, m, lo, hi)
        p0, d0 = self.control_terms(0.0)
        face = None if float(controls[0]) == 0.0 else (base[..., 0] + p0[:, 0]) / d0[m, :, 0]
        best = None
        terms = []  # scan: (RHS' without the reserve term, its weight, 1+c) per u > 0
        for i, u in enumerate(controls):
            num = cand = None  # the last control's arrays go before the next ones are made
            u = float(u)
            profit, den = self.control_terms(u)
            num = np.add(base, profit, out=base if i == len(controls) - 1 else None)
            if u == 0.0:
                num /= den[m]
                best = num if best is None else np.maximum(best, num, out=best)
                face = best[..., 0] if face is None else face
                continue
            alpha = u / (r * l)
            if scan:
                terms.append((num.transpose(2, 0, 1).copy(), alpha, den[m, :, 0].copy()))
                continue
            cand = self.reserve_neighbor(V[m, lo:hi], alpha)
            cand += num
            cand /= den[m]
            cand[..., 0] = face  # extraction is not admissible on an empty reserve
            best = cand if best is None else np.maximum(best, cand, out=best)
        if not terms:
            return best
        # one contiguous price row per reserve node, walked upward from the face
        rows = np.empty((g.n_y, hi - lo, g.n_x))
        rows[...] = -np.inf if best is None else best.transpose(2, 0, 1)
        rows[0] = face
        prev = rows[0]
        cand = np.empty_like(rows[0])
        for y in range(1, g.n_y):
            w = rows[y]
            for num, alpha, den in terms:
                np.multiply(prev, alpha, out=cand)
                np.add(num[y], cand, out=cand)
                np.divide(cand, den, out=cand)
                np.maximum(w, cand, out=w)
            prev = w
        return rows.transpose(1, 2, 0)

    # -- public operations -----------------------------------------------------

    def sweep(self, values: np.ndarray, controls=None, out=None, change=False):
        """One full-grid update; pure function of the input field.

        `controls` replaces the endpoint pair {0, u_max}: a dense list scans
        the interval, one control pins it. The output's terminal slice is
        the settlement payoff no matter what the input carries there: the
        terminal condition is part of the operator, not of the iterate.

        Returns the update, written to `out` (new if None), or with
        `change=True` (largest |update - values|, its first node in C order
        as (regime, s_idx, x_idx, y_idx)), a NaN winning; without `out` the
        update is then dropped block by block.

        When slices 0..j of `values` hold the same bits in every regime
        (_leading_copies), slices 0..r of the update, r = max(j - 1, 0), read
        only those copies through the same per-slice arithmetic, so they
        hold the same bits too. Only the tasks from the block holding r
        onward run, and the slices below that block take a copy of slice r;
        a largest change found at a slice up to r is reported at slice 0,
        the first of its copies in C order. The count of (regime, slice)
        updates computed is added to slice_updates.

        The tasks, one per (regime, sweep_block(grid) time slices), each write
        only their own slab, so no bit depends on the blocks or on the
        threads: the calling thread runs the even tasks and, with
        SWEEP_WORKERS = 2, one pool worker the odd ones (numpy's ufuncs and
        matmul release the GIL). A task holds three block-sized arrays for the
        endpoint pair, four for a longer list (see _best_candidate), and
        none once done, so the byte budget bounds them on any grid:
        regime-sized blocks (3.4 MB on reference.yaml) made the allocator
        re-fault its heap every regime, and 10-slice blocks (1.3 MB) raised
        the 2x-refined verify's peak RSS by 13 MiB.

        Raises ValueError before any task runs if `controls` is empty, or if
        `out` shares memory with `values`, which tasks read as others write.
        """
        g = self.grid
        n = g.n_s - 1
        if out is not None and np.shares_memory(out, values):
            raise ValueError("sweep's `out` shares memory with `values`; the update "
                             "reads the frozen input while it writes")
        if controls is not None and len(controls) == 0:
            raise ValueError("sweep's control list is empty; the update is a max over controls")
        if out is None and not change:
            out = np.empty_like(values)
        for u in self.controls if controls is None else controls:
            self.control_terms(u)  # a bad control raises here; no thread writes the cache
        block = sweep_block(g)
        r = max(_leading_copies(values) - 1, 0)
        first = r - r % block  # the block holding r: the edges are the full sweep's from there
        edges = [*range(first, n, block), n]
        # the terminal slice is a task of its own, listed after every block so
        # that the even and the odd tasks differ by one block at most
        tasks = [(m, lo, hi) for m in range(g.n_regimes) for lo, hi in zip(edges, edges[1:])]
        tasks += [(m, n, n + 1) for m in range(g.n_regimes)]

        def run(part):  # per task: its slab of `out`, its largest change and first node
            found = []
            for m, lo, hi in part:
                new = self.terminal[m, None] if lo == n else self._best_candidate(
                    values, m, lo, hi, controls)
                if out is not None:
                    out[m, lo:hi] = new
                if change:
                    c, (t, x, y) = _largest_change(new, values[m, lo:hi], None if lo == n else new)
                    found.append((c, (m, 0 if lo + t <= r else lo + t, x, y)))
                del new  # released before the next block is computed
            return found

        if SWEEP_WORKERS < 2 or len(tasks) < 2:
            found = run(tasks)
        else:
            odd = _worker(os.getpid()).submit(run, tasks[1::2])
            try:
                found = run(tasks[0::2])
            finally:
                wait([odd])  # the worker finishes before anything propagates
            found += odd.result()
        self.slice_updates += g.n_regimes * (n - first)
        if out is not None and first:
            # from a copy: an overlapping source would be buffered at the size of the target
            out[:, :first] = out[:, r, None].copy()
        if not change:
            return out
        # a NaN first, then the largest change; ties go to the first node in C order
        return min(found, key=lambda f: (0, f[1]) if math.isnan(f[0]) else (1, -f[0], f[1]))

    def initial_guess(self) -> np.ndarray:
        """Terminal payoff broadcast across all time slices."""
        return np.broadcast_to(self.terminal[:, None], self.grid.shape).copy()


def _jump_bands(P):
    """P's rows cut into consecutive bands of at most _JUMP_BAND_ROWS rows, as
    (r0, r1, c0, c1, P[r0:r1, c0:c1] contiguous), [c0, c1) the smallest
    column range holding every nonzero of rows [r0, r1).

    A band's product drops only exact zeros at the ends of each row, and
    BLAS sums the rest in order: the dense product's bits wherever that sums
    a row in one pass (201 columns), one answer where it split the sum per
    thread count (401). When P has two rows or more, so does every band: a
    one-row product goes to gemv, which sums in another order.
    """
    n = P.shape[0]
    bands = []
    for rows in np.array_split(np.arange(n), -(-n // _JUMP_BAND_ROWS)):
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        cols = np.flatnonzero(P[r0:r1].any(axis=0))
        c0, c1 = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (r0, r0)
        bands.append((r0, r1, c0, c1, np.ascontiguousarray(P[r0:r1, c0:c1])))
    return bands


def _leading_copies(V):
    """The number of time slices after slice 0 of V whose bits equal slice
    0's in every regime. Compared as integers, -0.0 and +0.0 differ and a
    NaN matches only its own bits. The runs compared double in length, so
    a field without copies pays one slice and the cost stays O(j)."""
    bits = V.view(f"i{V.itemsize}")
    j, n = 0, V.shape[1] - 1
    while j < n:
        same = (bits[:, j + 1 : 2 * j + 2] == bits[:, :1]).all(axis=(0, 2, 3))
        if not same.all():
            return j + int(np.argmin(same))
        j += same.size
    return j


def _largest_change(new, old, out=None):
    """(largest |new - old|, its first index in C order), a NaN ranking first
    as np.argmax ranks it; the difference is written to `out` if given."""
    diff = np.subtract(new, old, out=out)
    idx = np.unravel_index(int(np.argmax(np.abs(diff, out=diff))), diff.shape)
    return float(diff[idx]), tuple(map(int, idx))


def _non_finite(context, m, t, xi, yi):
    """The error for a non-finite value at node (regime, s_idx, x_idx, y_idx)."""
    return NumericalError(
        f"non-finite value during {context} at regime {m}, time index {t}, "
        f"price index {xi}, reserve index {yi}"
    )


def solve(model: MarketModel, grid: Grid4D, cfg: SolverConfig | None = None):
    """Iterate the sweep to the fixed point from the terminal-payoff guess.

    Returns (GridField, ConvergenceReport). Raises ContractionError before
    iterating if the quadrature mass check fails, MonotonicityError if the
    paper-faithful coefficient signs are wrong or u_max > 0, NumericalError at the first
    sweep or pass whose change is not finite (naming its largest change's
    node, a NaN first), and ConvergenceError (with the residual history
    attached) if the iteration cap is reached.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    op = DiscreteOperator(model, grid, cfg)
    residuals, slices, balance = [], [], None
    if cfg.sweep == "backward":
        result = GridField(grid, op.initial_guess())
        iterations = _solve_backward(op, result.values, cfg, slices)
        updates = iterations * grid.n_regimes  # a pass updates one slice of every regime
        balance = dpp_residual(result, op)  # the closing residual
        residuals.append(balance[0])
    else:
        iterations, V = _solve_jacobi(op, op.initial_guess(), cfg, residuals)
        updates = op.slice_updates
        result = GridField(grid, V)
    report = ConvergenceReport(
        iterations=iterations, final_residual=residuals[-1] if residuals else 0.0,
        residuals=residuals, mode=cfg.mode, sweep=cfg.sweep, contraction=op.contraction,
        wall_time=time.perf_counter() - t0, operator=op, slices=slices, balance=balance,
        jump_band_share=op.jump_band_share, slice_updates=updates,
    )
    return result, report


def _solve_jacobi(op, V, cfg, residuals):
    """Returns (sweeps, the last iterate). A new array per sweep, not two
    swapped ones: freeing the last keeps glibc's adaptive mmap and trim
    thresholds above the block temporaries, which otherwise fault anew."""
    for it in range(1, cfg.max_iterations + 1):
        Vn = np.empty_like(V)
        res, node = op.sweep(V, out=Vn, change=True)
        if not math.isfinite(res):  # V is finite, so a non-finite update shows here
            raise _non_finite(f"jacobi sweep {it}", *node)
        residuals.append(res)
        V = Vn
        if res < cfg.tolerance:
            return it, V
    raise ConvergenceError(
        f"no convergence after {cfg.max_iterations} sweeps; last residual {residuals[-1]:.6g}",
        residual_history=residuals,
    )


def _solve_backward(op, V, cfg, slices):
    """Backward time marching with an inner fixed point per slice.

    Each inner pass updates the regimes in turn, every one from its base
    block read off the current iterate and a reserve scan (see
    _best_candidate), so only the price, jump and regime couplings are left
    to the fixed point. Each slice starts from _warm_start's extrapolation
    of the slices above it; only the start moves, not the update or the
    stopping rule, so a better start saves passes and nothing else. The
    inner tolerance is tightened by r*k relative to the outer one so the
    per-slice solve error stays below the outer tolerance after
    accumulating across slices (the time-neighbor weight is < 1/(1+rk) per
    slice).
    """
    g = op.grid
    inner_tol = cfg.tolerance * op.r * g.time_step * 0.5
    total_inner = 0
    budget = cfg.max_iterations * max(1, g.n_s - 1)
    W = V  # operate in place, slice by slice
    for t in range(g.n_s - 2, -1, -1):
        _warm_start(W, t)
        passes = 0
        while True:
            prev = W[:, t].copy()
            for m in range(g.n_regimes):
                W[m, t : t + 1] = op._best_candidate(W, m, t, t + 1, scan=True)
            total_inner += 1
            passes += 1
            change, (m, xi, yi) = _largest_change(W[:, t], prev, out=prev)  # a NaN first
            if not math.isfinite(change):
                raise _non_finite(f"backward slice {t} pass {passes}", m, t, xi, yi)
            if change < inner_tol:
                break
            if total_inner > budget:
                raise ConvergenceError(
                    f"backward sweep exceeded {budget} inner iterations at slice {t}; "
                    f"last inner change {change:.6g}"
                )
        slices.append((passes, change))
    slices.reverse()
    return total_inner


# the polynomial in time through the n converged slices above, evaluated one
# step further down: coefficients of W[t + 1], ..., W[t + n], nearest first
_EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))


def _warm_start(W, t):
    """Write slice t's inner start in place: the cubic through the four
    converged slices above it, or the lower order that the slices up to the
    horizon allow (copy, linear, quadratic). The terms are summed nearest
    first, in a fixed order, so the start's bits do not vary."""
    coef = _EXTRAPOLATION[min(len(_EXTRAPOLATION), W.shape[1] - 1 - t) - 1]
    start = np.multiply(W[:, t + 1], coef[0], out=W[:, t])
    for j, c in enumerate(coef[1:], start=2):
        start += c * W[:, t + j]


def dpp_residual(field: GridField, op: DiscreteOperator):
    """Max one-step recursion mismatch over every node of the grid.

    The mismatch at a node is |V0 - max_u RHS'(u)/(1+c(u))|: the node's
    value against the best of one-step profit plus discounted continuation.
    Terminal nodes are pinned by construction and contribute zero. Returns
    (worst mismatch, {"node": (regime, s_idx, x_idx, y_idx), "nodes": count}).
    """
    worst, node = op.sweep(field.values, change=True)
    return worst, {"node": node, "nodes": int(field.values.size)}
