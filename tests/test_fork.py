"""fork.split, the one entry point of a two-process job: one part in this
process below its threshold, at one process or without os.fork, else two
parts from two processes, and the contiguous cut the Monte Carlo and the
node CSVs take of their work. Then fork.in_two_processes on its own:
results in order, a child's exception raised in the caller, a dead child's
exit code, a caller exception that kills the child, a child that leaves
without the caller's exit work, jobs that swap values in steps, one CPU per
process, and a pin or a fork that fails. After every case this process has
no child and no new descriptor left."""

import errno
import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_no_child, leaves_nothing, open_descriptors

from oilopt import GridField, build_grid, estimate_value, fork, grid, simulate
from oilopt.config import load_config

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

SRC = str(Path(__file__).resolve().parents[1] / "src")
REFERENCE = Path(SRC) / "oilopt" / "configs" / "reference.yaml"


@pytest.fixture(autouse=True)
def no_child_left():
    with leaves_nothing():
        yield


class ChildFailure(Exception):
    pass


class TwoArguments(Exception):
    """Pickles, but does not unpickle: its args hold one message, not a and b."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def where(i, count, swap):
    """A job's part: its place, this process and, given a swap, what the
    other part handed over."""
    return i, count, os.getpid(), None if swap is None else swap(f"from part {i}")


def not_forking():
    raise AssertionError("os.fork called for a job of one part")


@pytest.mark.parametrize("units, workers, has_fork", [
    (9, 2, True),  # below min_units
    (10, 1, True),  # one process
    (10, 2, False),  # no os.fork on this platform
], ids=["below-min-units", "one-worker", "no-fork"])
def test_split_runs_one_part_here(monkeypatch, units, workers, has_fork):
    monkeypatch.setattr(fork, "WORKERS", workers)
    if has_fork:
        monkeypatch.setattr(os, "fork", not_forking)
    else:
        monkeypatch.delattr(os, "fork")
    assert fork.split(where, units, 10, "test") == [(0, 1, os.getpid(), None)]


def test_split_runs_two_parts_from_min_units_on(monkeypatch):
    monkeypatch.setattr(fork, "WORKERS", 2)
    here, there = fork.split(where, 10, 10, "test")
    assert here == (0, 2, os.getpid(), "from part 1")
    assert there[:2] == (1, 2) and there[2] != os.getpid() and there[3] == "from part 0"


def logged(path):
    """Append this process's pid and the given items to `path`, one line per call."""
    def log(*items):
        with open(path, "a", encoding="utf-8") as fh:  # O_APPEND: whole lines
            fh.write(" ".join(map(str, (os.getpid(), *items))) + "\n")

    def read():
        lines = [list(map(int, line.split())) for line in path.read_text().splitlines()]
        return ([items for pid, *items in lines if pid == os.getpid()],
                [items for pid, *items in lines if pid != os.getpid()])

    return log, read


def test_three_monte_carlo_streams_split_as_two_and_one(monkeypatch, tmp_path):
    """Streams [0, 2) are stepped here and [2, 3) in the child: the
    contiguous cut ceil(3 i / 2) of part i."""
    monkeypatch.setattr(fork, "WORKERS", 2)
    monkeypatch.setattr(simulate, "SPLIT_MIN_PATH_STEPS", 0)
    log, read = logged(tmp_path / "streams")
    real = simulate._simulate_block

    def block(model, policy, start, dt, streams, **kw):
        log(*(s.spawn_key[-1] for s in streams))
        return real(model, policy, start, dt, streams, **kw)

    monkeypatch.setattr(simulate, "_simulate_block", block)
    cfg = load_config(REFERENCE)
    est = estimate_value(cfg.model, lambda t, x, y, regime: np.zeros(np.shape(x)),
                         cfg.simulation.start, n_paths=3, dt=0.05, seed=1)
    assert est.diagnostics["workers"] == 2
    assert read() == ([[0, 1]], [[2]])


@pytest.mark.parametrize("n_s", [3, 5, 7])
def test_an_odd_slice_count_splits_as_the_halves_did(monkeypatch, tmp_path, n_s):
    """write_node_csv formats slices [0, h) here and [h, n_s) in the child,
    h = (n_s + 1) // 2, the halves it cut before fork.split cut part i at
    ceil(n_s i / 2), and the file holds the one-process bytes."""
    monkeypatch.setattr(fork, "WORKERS", 2)
    monkeypatch.setattr(grid, "SPLIT_MIN_ROWS", 0)
    g = build_grid(horizon=0.5 * (n_s - 1), price_cap=3.0, reserve_capacity=1.5,
                   time_step=0.5, price_step=0.5, reserve_step=0.5, n_regimes=2)
    values = np.random.default_rng(n_s).normal(scale=50.0, size=g.shape)
    log, read = logged(tmp_path / "slices")

    def columns(si):
        log(si)
        return (values[:, si],)

    assert grid.write_node_csv(g, ("value",), columns, tmp_path / "out.csv") == 2
    half = (n_s + 1) // 2
    assert read() == ([[si] for si in range(half)], [[si] for si in range(half, n_s)])
    monkeypatch.setattr(fork, "WORKERS", 1)
    one = io.StringIO()
    assert GridField(g, values).to_csv(one) == 1
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == one.getvalue()


def test_results_come_back_in_order():
    here, there = fork.in_two_processes(lambda _: os.getpid(), lambda _: os.getpid(), "test")
    assert here == os.getpid() != there
    result = fork.in_two_processes(lambda _: [1.5, "a"], lambda _: {"b": (2, None)}, "test")
    assert result == ([1.5, "a"], {"b": (2, None)})


def test_a_child_exception_is_raised_chained_to_its_traceback():
    def there(_):
        raise ChildFailure("in the child")

    with pytest.raises(ChildFailure, match="in the child") as info:
        fork.in_two_processes(lambda _: None, there, "test")
    cause = info.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert str(cause).startswith("in the test worker process:\nTraceback")
    assert 'raise ChildFailure("in the child")' in str(cause)


def interrupted(_):
    raise KeyboardInterrupt


def local_exception():
    class Local(Exception):  # pickled by a name that cannot be found
        pass

    return Local("a local class")


@pytest.mark.parametrize("make, message", [
    (local_exception, "Local: a local class"),
    (lambda: TwoArguments("x", "y"), "TwoArguments: x and y"),
])
def test_an_exception_that_does_not_pickle_arrives_as_a_runtime_error(make, message):
    def there(_):
        raise make()

    with pytest.raises(RuntimeError, match=f"^{message}$") as info:
        fork.in_two_processes(lambda _: None, there, "test")
    assert "in the test worker process" in str(info.value.__cause__)


@pytest.mark.parametrize("there, code", [
    (lambda _: os._exit(3), 3),
    (lambda _: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    (lambda _: sys.exit(0), 1),  # a BaseException leaves through os._exit(1)
    (interrupted, 1),
])
def test_a_dead_child_raises_its_exit_code(there, code):
    with pytest.raises(RuntimeError,
                       match=rf"^the test worker process died \(exit code {code}\) before"):
        fork.in_two_processes(lambda _: None, there, "test")


def test_swapped_values_cross_in_step():
    """Each swap returns what the other process handed to its own swap of
    the same step, in both directions, and the results come back after."""
    def steps(name):
        return lambda swap: [swap((name, step)) for step in range(3)]

    here, there = fork.in_two_processes(steps("here"), steps("there"), "test")
    assert here == [("there", step) for step in range(3)]
    assert there == [("here", step) for step in range(3)]


@pytest.mark.parametrize("here_swaps, there_swaps, message", [
    (2, 3, "swapped more values than the caller"),
    (3, 2, "swapped fewer values than the caller"),
])
def test_unequal_swap_counts_raise_instead_of_hanging(here_swaps, there_swaps, message):
    """A caller that stops swapping first would wait for a child that waits
    for its next swap; either way round, the caller raises and kills it."""
    with pytest.raises(RuntimeError, match=f"^the test worker process {message}$"):
        fork.in_two_processes(lambda swap: [swap(i) for i in range(here_swaps)],
                              lambda swap: [swap(i) for i in range(there_swaps)], "test")


def test_a_child_exception_in_a_swap_job_is_raised_from_the_swap():
    def there(swap):
        swap(1)
        raise ChildFailure("after one swap")

    with pytest.raises(ChildFailure, match="after one swap"):
        fork.in_two_processes(lambda swap: [swap(i) for i in range(5)], there, "test")


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to pin to")


@needs_two_cpus
def test_a_swap_job_keeps_one_cpu_per_process_and_restores_the_callers():
    """A pipe's wakeup would move the woken process onto the writer's CPU,
    so the two processes of every split keep one CPU each, a job of one
    step too; the caller gets its own CPUs back, also when the job raises."""
    cpus = os.sched_getaffinity(0)
    here, there = fork.in_two_processes(lambda _: os.sched_getaffinity(0),
                                        lambda _: os.sched_getaffinity(0), "test")
    assert len(here) == len(there) == 1 and here | there <= cpus and here != there
    assert os.sched_getaffinity(0) == cpus
    with pytest.raises(ChildFailure):
        fork.in_two_processes(lambda _: (_ for _ in ()).throw(ChildFailure("here")),
                              lambda _: None, "test")
    assert os.sched_getaffinity(0) == cpus
    steps = fork.in_two_processes(lambda swap: [swap(0), os.sched_getaffinity(0)],
                                  lambda swap: [swap(0), os.sched_getaffinity(0)], "test")
    assert [len(cpus_then) for _, cpus_then in steps] == [1, 1]


@needs_two_cpus
def test_a_pin_that_fails_reaps_the_child_and_restores_the_callers_cpus(monkeypatch):
    """os.sched_setaffinity refuses every one-CPU set, in the caller and in
    the child: the caller's OSError comes out, the child is reaped, no
    descriptor is left open and the caller keeps its CPUs."""
    cpus, real = os.sched_getaffinity(0), os.sched_setaffinity

    def refusing(pid, mask):
        if len(mask) == 1:
            raise OSError(errno.EINVAL, "no such CPU set")
        real(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", refusing)
    before = open_descriptors()
    with pytest.raises(OSError, match="no such CPU set"):
        fork.in_two_processes(lambda _: None, lambda _: None, "test")
    assert_no_child()
    assert open_descriptors() == before and os.sched_getaffinity(0) == cpus


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_fork_that_fails_closes_both_pipes(monkeypatch):
    """os.fork raises EAGAIN: its error comes out, and the four pipe ends
    made for the child are closed."""
    def refusing():
        raise OSError(errno.EAGAIN, "no process left")

    before = open_descriptors()
    monkeypatch.setattr(os, "fork", refusing)
    with pytest.raises(OSError, match="no process left"):
        fork.in_two_processes(lambda _: None, lambda _: None, "test")
    assert open_descriptors() == before


def test_a_caller_exception_kills_the_child():
    """The child would sleep for a minute: it must be killed, not waited for."""
    def here(_):
        raise ChildFailure("in the caller")

    t0 = time.monotonic()
    with pytest.raises(ChildFailure, match="in the caller"):
        fork.in_two_processes(here, lambda _: time.sleep(60), "test")
    assert time.monotonic() - t0 < 30.0


def run_script(script, *args):
    """Standard output of `python -c script *args`, block-buffered as a pipe is."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SPLIT_CSV = """
import numpy as np
from oilopt import GridField, build_grid, fork, grid

fork.WORKERS = 2
grid.SPLIT_MIN_ROWS = 0
g = build_grid(horizon=1.0, price_cap=3.0, reserve_capacity=1.5, time_step=0.5,
               price_step=0.5, reserve_step=0.5, n_regimes=2)
assert GridField(g, np.zeros(g.shape)).to_csv(sys.argv[1]) == 2
"""


def test_the_child_runs_none_of_the_callers_exit_work(tmp_path):
    """An atexit handler and a line left in stdout's buffer before a split
    whose child flushes stdout each come out once, and the CSV, whose header
    sat in its buffer when the child forked, holds one header line."""
    script = ("import atexit, sys\n"
              "from oilopt import fork\n"
              "atexit.register(print, 'atexit handler')\n"
              "print('buffered before the split')\n"
              "fork.in_two_processes(lambda _: None, lambda _: print('child', flush=True), 'test')\n"
              + SPLIT_CSV)
    out = run_script(script, str(tmp_path / "value.csv"))
    assert out.splitlines() == ["buffered before the split", "child", "atexit handler"]
    lines = (tmp_path / "value.csv").read_text().splitlines()
    assert [line for line in lines if line.startswith("s,")] == ["s,x,y,regime,value"]
    assert len(lines) == 1 + 3 * 7 * 4 * 2  # one row per node


def test_a_split_imports_no_multiprocessing(tmp_path):
    """One split Monte Carlo estimate and one split CSV, then no
    multiprocessing module is loaded."""
    script = "import sys\n" + SPLIT_CSV + """
from oilopt import estimate_value, simulate
from oilopt.config import load_config

simulate.SPLIT_MIN_PATH_STEPS = 0
cfg = load_config(sys.argv[2])
est = estimate_value(cfg.model, lambda t, x, y, regime: np.zeros(np.shape(x)),
                     cfg.simulation.start, n_paths=8, dt=0.05, seed=1)
assert est.diagnostics["workers"] == 2
print(sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"))
"""
    assert run_script(script, str(tmp_path / "value.csv"), str(REFERENCE)).strip() == "[]"
