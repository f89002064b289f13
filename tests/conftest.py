"""Shared test plumbing: the acceptance-criteria result board, the traced
peak of one call, the checks that no forked child and no descriptor is
left, the switch that puts every jacobi solve and residual sweep on a given
number of processes, and the reference
forms the solver's sweep blocks are checked against bit for bit: the dense
jump product, the column-broadcast block update, and the full sweep with
every time slice computed on its own.

test_acceptance.py records one line per criterion; the terminal-summary hook
prints the board after the run so every criterion shows a visible PASS/FAIL
line regardless of output capturing.
"""

import contextlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from oilopt import fork, solver

ACCEPTANCE: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str):
    ACCEPTANCE[number] = (passed, detail)


def traced_peak(call):
    """Bytes tracemalloc traces at the peak of call() above those traced
    before it; tracing is started for the call unless it is already on."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak - base


def assert_no_child():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_descriptors():
    """The numbers of this process's open file descriptors, as listed in
    /proc/self/fd (an empty set where that does not exist)."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@contextlib.contextmanager
def leaves_nothing():
    """The body leaves this process no child process, running or unreaped,
    and no file descriptor open that was not open before it."""
    before = open_descriptors()
    yield
    assert_no_child()
    assert open_descriptors() == before


def split_sweeps(monkeypatch, processes):
    """Run every jacobi solve and every dpp_residual sweep on `processes`
    processes (fork.WORKERS), whatever its node count."""
    monkeypatch.setattr(fork, "WORKERS", processes)
    monkeypatch.setattr(solver, "JACOBI_SPLIT_NODES", 0)
    monkeypatch.setattr(solver, "RESIDUAL_SPLIT_NODES", 0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE):
        passed, detail = ACCEPTANCE[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - {detail}")


def dense_base_block(op, V, m, lo, hi):
    """op._base_block(V, m, lo, hi) with each jump matrix applied whole, as
    one band over every row and column: the np.matmul(jump_mat[m], Vt) form,
    the reference whose bits the banded product must keep."""
    n = op.grid.n_x
    dense = [None if P is None else [(0, n, 0, n, P)] for P in op.jump_mat]
    with mock.patch.object(op, "jump_bands", dense):
        return op._base_block(V, m, lo, hi)


def column_base_block(op, V, m, lo, hi):
    """op._base_block(V, m, lo, hi) with each node weight applied as an
    (n_x, 1) column broadcast along the reserve axis, and a new array per
    term: the form whose bits the plane-wise block must keep."""
    g = op.grid
    r, k = op.r, g.time_step
    Vt = V[m, lo:hi]
    a, b = op.a_plane[m][:, :1], op.b_plane[m][:, :1]
    base = V[m, lo + 1 : hi + 1] / (r * k)
    base[..., :-1, :] += a[:-1] * Vt[..., 1:, :]
    base[..., -1, :] += a[-1] * Vt[..., -1, :]
    base[..., 1:, :] += b[1:] * Vt[..., :-1, :]
    base[..., 0, :] += b[0] * Vt[..., 0, :]
    if op.jump_bands[m] is not None:
        jumps = np.empty_like(Vt)
        for r0, r1, c0, c1, band in op.jump_bands[m]:
            np.matmul(band, Vt[:, c0:c1], out=jumps[:, r0:r1])
        base += np.divide(jumps, r, out=jumps)
    Q = op.model.generator
    for j in range(g.n_regimes):
        if j != m and Q[m, j] != 0.0:
            base += (Q[m, j] / r) * V[j, lo:hi]
    return base


def column_best_candidate(op, V, m, lo, hi, controls=None, scan=False):
    """op._best_candidate on column_base_block, with (n_x, 1) denominators,
    a sliced reserve shift, a new numerator per control and the extracting
    candidates' maximum taken over y >= 1 only; the y = 0 face is u = 0's
    quotient for every control list, frozen and scanned."""
    g = op.grid
    r, l = op.r, g.reserve_step
    controls = op.controls if controls is None else controls
    base = column_base_block(op, V, m, lo, hi)
    best = yshift = None
    terms = []
    for u in controls:
        u = float(u)
        profit, den = op.control_terms(u)
        den = den[m][:, 0]
        num = base + profit
        if u == 0.0:
            num /= den[:, None]
            best = num if best is None else np.maximum(best, num, out=best)
            continue
        alpha = u / (r * l)
        if scan:
            terms.append((num.transpose(2, 0, 1).copy(), alpha, den))
            continue
        if yshift is None:
            Vt = V[m, lo:hi]
            yshift = np.empty_like(Vt)
            yshift[..., 1:] = Vt[..., :-1]
            yshift[..., 0] = Vt[..., 0]
        cand = np.multiply(yshift, alpha)
        cand += num
        cand /= den[:, None]
        if best is None:
            best = cand
            profit0, den0 = op.control_terms(0.0)
            best[..., 0] = (base[..., 0] + profit0[:, 0]) / den0[m][:, 0]
        else:
            np.maximum(best[..., 1:], cand[..., 1:], out=best[..., 1:])
    if not terms:
        return best
    if best is None:  # no u = 0: y >= 1 starts from -inf, y = 0 takes u = 0's quotient
        profit0, den0 = op.control_terms(0.0)
        best = np.full_like(base, -np.inf)
        best[..., 0] = (base[..., 0] + profit0[:, 0]) / den0[m][:, 0]
    rows = best.transpose(2, 0, 1).copy()
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


def per_slice_sweep(op, V, controls=None):
    """op.sweep(V, controls) with every time slice below the horizon computed
    on its own, _best_candidate(V, m, t, t + 1), and the settlement payoff
    on the horizon; returned with its (largest change, first node in C
    order), a NaN first."""
    n = op.grid.n_s - 1
    new = np.stack([np.concatenate([*(op._best_candidate(V, m, t, t + 1, controls)
                                      for t in range(n)), op.terminal[m, None]])
                    for m in range(op.grid.n_regimes)])
    diff = np.abs(new - V)
    node = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return new, (float(diff[node]), tuple(map(int, node)))
