"""Two parts of one job at once: one in the calling process, one in a forked child.

The Monte Carlo's streams and the node CSV writers' time slices are split in
two this way. The child inherits its work, with every array and closure it
reads, from os.fork; only its result comes back, pickled, over a pipe."""

import os
import pickle
import sys
import traceback

_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
WORKERS = min(2, len(_CPUS))  # threads or processes one split job uses, the caller included


def worth_splitting(units: int, min_units: int) -> bool:
    """Whether a job of `units` work units runs on two processes: from
    min_units on, where WORKERS (read at each call) is 2 and os.fork exists."""
    return WORKERS >= 2 and units >= min_units and hasattr(os, "fork")


def _child(there, reader: int, writer: int):
    """The forked child: write back there(), or its exception and traceback.
    It leaves through os._exit whatever happens, so the caller's buffered
    files are not flushed twice and its atexit handlers do not run here."""
    try:
        os.close(reader)
        try:
            reply = (True, there(), None)
        except Exception as exc:
            reply = (False, exc, traceback.format_exc())
        try:
            data = pickle.dumps(reply)
            if not reply[0]:
                pickle.loads(data)  # the exception must unpickle in the caller too
        except Exception:
            data = pickle.dumps((False, RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}"),
                                 reply[2]))
        with open(writer, "wb") as pipe:
            pipe.write(data)
        os._exit(0)
    finally:
        os._exit(1)


def in_two_processes(here, there, job: str):
    """(here(), there()): here() runs in this process while a child forked for
    the call runs there(); call it only where worth_splitting holds. Forking
    with threads is safe here: the solver's sweep thread is idle between
    sweeps, holding no lock, and the child never sweeps. The child is reaped
    before this returns or raises. Its exception is raised here, chained to
    its traceback; a child that dies without answering raises RuntimeError
    with its exit code; an exception in here() kills the child. `job` names
    the work in those messages."""
    sys.stdout.flush()  # else a line buffered here could be written by both
    sys.stderr.flush()
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(there, reader, writer)
    os.close(writer)  # so a child that dies leaves EOF on the pipe, not a hang
    try:
        with open(reader, "rb") as pipe:
            first = here()
            data = pipe.read()
    except BaseException:
        import signal  # here alone: importing it costs every command about 0.6 ms
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not data:
        raise RuntimeError(f"the {job} worker process died (exit code {code}) before "
                           "returning its result")
    ok, second, child_tb = pickle.loads(data)
    if not ok:
        raise second from RuntimeError(f"in the {job} worker process:\n{child_tb}")
    return first, second
