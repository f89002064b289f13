"""Shared test plumbing: the acceptance-criteria result board, and the dense
jump product that the solver's banded one is checked against.

test_acceptance.py records one line per criterion; the terminal-summary hook
prints the board after the run so every criterion shows a visible PASS/FAIL
line regardless of output capturing.
"""

from unittest import mock

ACCEPTANCE: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str):
    ACCEPTANCE[number] = (passed, detail)


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
