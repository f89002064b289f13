"""Two parts of one job at once: one in the calling process, one in a forked worker.

The Monte Carlo steps its streams in two halves this way, and the node CSV
writers format their time slices in two halves. The worker is forked for
the call (the fork start method), so the work it runs, with every array and
closure it reads, reaches it by inheritance and nothing is pickled on the
way in; only its result comes back over a pipe. `multiprocessing` is
imported by the first split, so a run that never splits does not pay for it.
"""

from __future__ import annotations

import os
import traceback

_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
WORKERS = min(2, len(_CPUS))  # threads or processes one split job uses, the caller included


def available() -> bool:
    """Whether this platform has the fork start method."""
    import multiprocessing  # about 8 ms to import: only a split job pays it

    return "fork" in multiprocessing.get_all_start_methods()


def _worker_main(there, conn):
    """The forked worker: send back there(), or the exception it raised with
    its traceback, for the caller to raise."""
    try:
        reply = (True, there(), None)
    except Exception as exc:
        reply = (False, exc, traceback.format_exc())
    try:
        conn.send(reply)
    except Exception:  # an exception that does not pickle
        conn.send((False, RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}"), reply[2]))
    conn.close()


def in_two_processes(here, there, job: str):
    """(here(), there()): here() runs in this process while one forked worker
    runs there(). Call it only where available() holds.

    Forking a process that has threads is safe here: the solver's sweep
    thread is idle between sweeps, holding no lock, and the worker never
    sweeps. The worker is reaped before this returns or raises. An exception
    in the worker is raised here, chained to its traceback; a worker that
    dies without answering raises RuntimeError with its exit code; an
    exception in here() stops the worker. `job` names the work in those
    messages.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_worker_main, args=(there, writer), daemon=True)
    worker.start()
    writer.close()  # so a worker that dies leaves EOF on the pipe, not a hang
    answered = False
    try:
        first = here()
        try:
            ok, second, worker_tb = reader.recv()
        except EOFError:
            worker.join()
            raise RuntimeError(f"the {job} worker process died (exit code "
                               f"{worker.exitcode}) before returning its result") from None
        answered = True
    finally:
        reader.close()
        if not answered:
            worker.terminate()
        worker.join()
    if not ok:
        raise second from RuntimeError(f"in the {job} worker process:\n{worker_tb}")
    return first, second
