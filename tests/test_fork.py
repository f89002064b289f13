"""fork.in_two_processes on its own: results in order, a child's exception
raised in the caller, a dead child's exit code, a caller exception that
kills the child, a child that leaves without the caller's exit work, and
jobs that swap values in steps. After every case this process has no
child left."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import assert_no_child

from oilopt import fork

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child()


class ChildFailure(Exception):
    pass


class TwoArguments(Exception):
    """Pickles, but does not unpickle: its args hold one message, not a and b."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_results_come_back_in_order():
    here, there = fork.in_two_processes(os.getpid, os.getpid, "test")
    assert here == os.getpid() != there
    result = fork.in_two_processes(lambda: [1.5, "a"], lambda: {"b": (2, None)}, "test")
    assert result == ([1.5, "a"], {"b": (2, None)})


def test_a_child_exception_is_raised_chained_to_its_traceback():
    def there():
        raise ChildFailure("in the child")

    with pytest.raises(ChildFailure, match="in the child") as info:
        fork.in_two_processes(lambda: None, there, "test")
    cause = info.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert str(cause).startswith("in the test worker process:\nTraceback")
    assert 'raise ChildFailure("in the child")' in str(cause)


def interrupted():
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
    def there():
        raise make()

    with pytest.raises(RuntimeError, match=f"^{message}$") as info:
        fork.in_two_processes(lambda: None, there, "test")
    assert "in the test worker process" in str(info.value.__cause__)


@pytest.mark.parametrize("there, code", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    (lambda: sys.exit(0), 1),  # a BaseException leaves through os._exit(1)
    (interrupted, 1),
])
def test_a_dead_child_raises_its_exit_code(there, code):
    with pytest.raises(RuntimeError,
                       match=rf"^the test worker process died \(exit code {code}\) before"):
        fork.in_two_processes(lambda: None, there, "test")


def test_swapped_values_cross_in_step():
    """Each swap returns what the other process handed to its own swap of
    the same step, in both directions, and the results come back after."""
    def steps(name):
        return lambda swap: [swap((name, step)) for step in range(3)]

    here, there = fork.in_two_processes(steps("here"), steps("there"), "test", swap=True)
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
                              lambda swap: [swap(i) for i in range(there_swaps)], "test",
                              swap=True)


def test_a_child_exception_in_a_swap_job_is_raised_from_the_swap():
    def there(swap):
        swap(1)
        raise ChildFailure("after one swap")

    with pytest.raises(ChildFailure, match="after one swap"):
        fork.in_two_processes(lambda swap: [swap(i) for i in range(5)], there, "test", swap=True)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to pin to")
def test_a_swap_job_keeps_one_cpu_per_process_and_restores_the_callers():
    """A pipe's wakeup would move the woken process onto the writer's CPU,
    so the two processes of a swap job keep one CPU each; the caller gets
    its own CPUs back, also when the job raises."""
    cpus = os.sched_getaffinity(0)
    here, there = fork.in_two_processes(lambda swap: os.sched_getaffinity(0),
                                        lambda swap: os.sched_getaffinity(0), "test", swap=True)
    assert len(here) == len(there) == 1 and here | there <= cpus and here != there
    assert os.sched_getaffinity(0) == cpus
    with pytest.raises(ChildFailure):
        fork.in_two_processes(lambda swap: (_ for _ in ()).throw(ChildFailure("here")),
                              lambda swap: None, "test", swap=True)
    assert os.sched_getaffinity(0) == cpus
    assert fork.in_two_processes(lambda: os.sched_getaffinity(0), lambda: None, "test")[0] == cpus


def test_a_caller_exception_kills_the_child():
    """The child would sleep for a minute: it must be killed, not waited for."""
    def here():
        raise ChildFailure("in the caller")

    t0 = time.monotonic()
    with pytest.raises(ChildFailure, match="in the caller"):
        fork.in_two_processes(here, lambda: time.sleep(60), "test")
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
              "fork.in_two_processes(lambda: None, lambda: print('child', flush=True), 'test')\n"
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
    reference = Path(SRC) / "oilopt" / "configs" / "reference.yaml"
    assert run_script(script, str(tmp_path / "value.csv"), str(reference)).strip() == "[]"
