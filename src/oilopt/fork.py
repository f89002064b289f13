"""Two parts of one job at once: one in the calling process, one in a forked child.

split is the one entry point: the jacobi solve, dpp_residual's sweep, the
node CSV writers and the Monte Carlo each hand it a job and a size, and it
decides whether the job runs whole here or as two parts. The child
inherits its work, with every array and closure it reads, from os.fork;
only values handed over on purpose cross the pipes between the two,
pickled: what each step of a job found, and the child's result."""

import os
import pickle
import sys
import traceback

_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
WORKERS = min(2, len(_CPUS))  # processes one split job uses, the caller included


def split(job, units: int, min_units: int, name: str) -> list:
    """The results of a job of `units` work units, as a list of its parts.

    Below min_units, where WORKERS (read at each call) is 1, or where
    os.fork is missing, it returns [job(0, 1, None)], run in this process.
    Otherwise it returns [job(0, 2, swap), job(1, 2, swap)]: the first runs
    here and the second in a child forked for the call (in_two_processes,
    whose swap and errors these are; `name` names the job in them). A
    caller runs on len(parts) processes; part i of count picks its own
    share of the work, and only a job of steps calls swap."""
    if WORKERS < 2 or units < min_units or not hasattr(os, "fork"):
        return [job(0, 1, None)]
    return list(in_two_processes(lambda swap: job(0, 2, swap), lambda swap: job(1, 2, swap), name))


class _Died(Exception):
    """The other end of a pipe closed before a whole message came through."""


def _write(pipe, data: bytes):
    """One message: its length, then its pickled bytes."""
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _receive(pipe):
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size) if len(head) == 8 else b""
    if len(data) != size or not data:
        raise _Died
    return pickle.loads(data)


def _child(there, inbox, writer: int, cpus):
    """The forked child: send back there(swap), or its exception and traceback.
    It leaves through os._exit whatever happens, so the caller's buffered
    files are not flushed twice and its atexit handlers do not run here."""
    try:
        if cpus:
            os.sched_setaffinity(0, cpus)
        with open(writer, "wb") as outbox:
            def exchange(value):
                _write(outbox, pickle.dumps((None, value, None)))  # ok None: a swapped value
                return _receive(inbox)

            try:
                reply = (True, there(exchange), None)
            except Exception as exc:
                reply = (False, exc, traceback.format_exc())
            try:
                data = pickle.dumps(reply)
                if not reply[0]:
                    pickle.loads(data)  # the exception must unpickle in the caller too
            except Exception:
                data = pickle.dumps((False, RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}"),
                                     reply[2]))
            _write(outbox, data)
        os._exit(0)
    finally:
        os._exit(1)


def _value(message, job: str, swapped: bool):
    """The value of a message from the child, or its exception raised here,
    chained to its traceback. A swapped value where the child's result is
    due, or the result where a swapped value is, raises RuntimeError: the
    two processes did not swap equally often."""
    ok, value, child_tb = message
    if ok is False:
        raise value from RuntimeError(f"in the {job} worker process:\n{child_tb}")
    if (ok is None) != swapped:
        raise RuntimeError(f"the {job} worker process swapped {'fewer' if swapped else 'more'} "
                           "values than the caller")
    return value


def in_two_processes(here, there, job: str):
    """(here(swap), there(swap)): here runs in this process while a child
    forked for the call runs there; split calls it for a job of two parts.

    swap(value) hands `value` to the other process and returns the value the
    other process handed to its own swap call: a job that runs in steps swaps
    what each step found, so that both take the same next step; a job of one
    step ignores it. Each call waits for the other process's, and both must
    make as many. Given two CPUs, the two processes keep one each until the
    call returns: a pipe's wakeup moves the woken process onto the writer's
    CPU, and unpinned the two halves of a 3.5 ms step ran in turn.

    The child is reaped, and the caller's CPUs and descriptors are as they
    were, before this returns or raises, also if the pin or the fork fails.
    The child's exception is raised here, from a swap or at the end, chained
    to its traceback; a child that dies without answering raises
    RuntimeError with its exit code, and so do unequal swap counts; an
    exception in here kills the child. `job` names the work in those
    messages."""
    sys.stdout.flush()  # else a line buffered here could be written by both
    sys.stderr.flush()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    up, up_writer = os.pipe()  # child to caller: swapped values, then the reply
    down_reader, down = os.pipe()  # caller to child: swapped values
    try:
        pid = os.fork()
    except BaseException:
        for fd in (up, up_writer, down_reader, down):
            os.close(fd)
        raise
    if pid == 0:
        os.close(up)
        os.close(down)
        _child(there, open(down_reader, "rb"), up_writer, cpus[1:2])
    os.close(up_writer)  # so a child that dies leaves EOF on the pipe, not a hang
    os.close(down_reader)
    try:
        with open(up, "rb") as inbox, open(down, "wb") as outbox:
            def exchange(value):
                theirs = _value(_receive(inbox), job, True)  # first: a child that raised reads none
                try:
                    _write(outbox, pickle.dumps(value))
                except BrokenPipeError:
                    raise _Died from None
                return theirs

            if len(cpus) > 1:
                os.sched_setaffinity(0, cpus[:1])
            first = here(exchange)
            second = _value(_receive(inbox), job, False)
    except _Died:  # the child closed its pipes: it is leaving
        raise _died(job, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])) from None
    except BaseException:
        import signal  # here alone: importing it costs every command about 0.6 ms
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise _died(job, code)
    return first, second


def _died(job: str, code: int) -> RuntimeError:
    return RuntimeError(f"the {job} worker process died (exit code {code}) before returning "
                        "its result")
