"""One fork worker pool: sharded crawls and parallel matrices both run here.

Section 5.2's architecture lets "multiple CrawlModules run in parallel";
:func:`run_jobs` is the one place that does it. Each worker has its own
pipe, and the coordinator blocks on every pipe and process sentinel at
once: a death is seen the moment it happens, and a killed worker can
only break its own pipe (a shared queue's lock, by contrast, can be held
by a worker that dies). A worker is sent its next job only after its
reply has been read, so sends never cross on a pipe, and a reply read
before a death counts. Workers are not daemons — PDEATHSIG ties them to
their parent — so a matrix cell may run a sharded crawl in its worker.

Workers start with ``fork``, so a worker holds every web the coordinator
published with :class:`~repro.simweb.shared.SharedWeb` copy-on-write, and
a job names its web by key instead of shipping it. ``fork`` is Linux's
default start method and the only one used here; a platform without it
gets multiprocessing's own error. Forking is safe because the
coordinator starts no Python threads, and numpy's OpenBLAS thread pool
re-initialises in the child through its ``pthread_atfork`` handlers.
CPython 3.12 and later count native threads too, so on a multi-core
host OpenBLAS's worker threads make each fork emit a
``DeprecationWarning``; no filter hides it. A worker closes the pipe
ends it inherited from the coordinator, keeping only its own.

One requeue policy covers every job. A worker that dies without replying
has its job re-run, at most :data:`RETRIES` times: a job whose argument
defines ``retried()`` re-runs with what that returns (a shard with a
checkpointed store resumes from it); any other job is a pure function of
its inputs and re-runs unchanged. A job that *reports* an exception is
never re-run — a deterministic job would only raise it again.
"""

from __future__ import annotations

import collections
import ctypes
import dataclasses
import multiprocessing
import os
import signal
import sys
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.simweb.shared import published_web

#: How many times a job whose worker died without replying is re-run.
RETRIES = 2

#: Upper bound on one worker join before escalating to terminate/kill;
#: generous, because a healthy worker exits within milliseconds of being
#: told to stop.
JOIN_TIMEOUT_SECONDS = 30.0

#: The pipe end this process serves a coordinator on, when it is a worker.
_serving: Optional[Any] = None


@dataclass(frozen=True)
class Job:
    """One unit of pool work: ``function(arg, web)`` in a worker process.

    Attributes:
        function: A module-level callable (pickled by import path).
        arg: Its picklable argument.
        web: Optional :attr:`~repro.simweb.shared.SharedWeb.key` of a web
            published before the pool started; the worker passes the web
            it inherited as ``web``. ``None`` passes ``None``.
    """

    function: Callable[[Any, Any], Any]
    arg: Any
    web: Optional[str] = None


def install_parent_death_signal() -> None:
    """Ask the kernel to SIGKILL this process when its parent dies.

    Every pool worker calls this first. Without it, a SIGKILLed
    coordinator (the crash-resume smoke test does exactly that) leaves
    orphan workers running, and a resumed run would race them for the
    per-shard stores. Linux-only; a silent no-op elsewhere.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL))
    except Exception:  # pragma: no cover - best-effort hardening
        pass


def _serve(conn: Any, inherited: Sequence[Any]) -> None:
    """Worker loop: run each received job and reply once, until ``None``.

    ``inherited`` are the coordinator's pipe ends this fork copied; closing
    them leaves ``conn`` the worker's only pipe.
    """
    global _serving
    _serving = conn
    for other in inherited:
        other.close()
    install_parent_death_signal()
    if os.getppid() != multiprocessing.parent_process().pid:
        # The coordinator died before the signal was armed. Its first job
        # may already sit in the pipe; an orphan must not run it against
        # the stores a resumed run now owns.
        return
    while True:
        job = conn.recv()
        if job is None:
            return
        try:
            web = None if job.web is None else published_web(job.web)
            conn.send(("ok", job.function(job.arg, web)))
        except Exception:
            conn.send(("error", traceback.format_exc()))


@dataclass
class _Worker:
    process: Any
    conn: Any
    index: int = -1  # the job it is running


def _reap(process: Any) -> None:
    """Join a worker with a bounded wait, escalating to terminate/kill.

    An indefinite ``join()`` would hang the coordinator forever on a worker
    stuck in un-interruptible state; every join goes through here so a
    wedged worker costs at most a few bounded waits before being killed.
    """
    process.join(timeout=JOIN_TIMEOUT_SECONDS)
    if process.is_alive():
        process.terminate()
        process.join(timeout=JOIN_TIMEOUT_SECONDS)
    if process.is_alive():  # pragma: no cover - needs an unkillable worker
        process.kill()
        process.join(timeout=JOIN_TIMEOUT_SECONDS)


def _reply(conn: Any) -> Optional[tuple]:
    """The worker's reply, or ``None`` when it died without one.

    A worker killed mid-send leaves a truncated message, which counts as
    no reply at all.
    """
    try:
        return conn.recv() if conn.poll() else None
    except (EOFError, OSError):
        return None


def _send(worker: _Worker, message: Any) -> None:
    try:
        worker.conn.send(message)
    except OSError:
        pass  # the worker died; wait() reports it through its sentinel


def _retried(job: Job) -> Job:
    """The job to re-run after its worker died without replying."""
    retried = getattr(job.arg, "retried", None)
    return job if retried is None else dataclasses.replace(job, arg=retried())


def run_jobs(jobs: Sequence[Job], workers: int) -> List[Any]:
    """Run every job on at most ``workers`` forked processes.

    Returns:
        The jobs' results, in job order. The result is independent of
        ``workers``, which only controls parallelism; a worker serves
        several jobs when there are more jobs than workers.

    Raises:
        RuntimeError: A job raised (with the worker's traceback), or its
            worker died without replying more than :data:`RETRIES` times
            (with the last exit code).
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    jobs = list(jobs)
    ctx = multiprocessing.get_context("fork")
    pending = collections.deque(range(len(jobs)))
    attempts = [0] * len(jobs)
    results: Dict[int, Any] = {}
    busy: List[_Worker] = []
    retired: List[_Worker] = []

    def start(worker: _Worker, index: int) -> None:
        worker.index = index
        busy.append(worker)
        _send(worker, jobs[index])

    try:
        while len(results) < len(jobs):
            while pending and len(busy) < workers:
                conn, child = ctx.Pipe()
                inherited = [conn] + [w.conn for w in busy + retired]
                if _serving is not None:
                    inherited.append(_serving)  # a worker's pool, one level down
                process = ctx.Process(
                    target=_serve, args=(child, inherited), daemon=False
                )
                process.start()
                child.close()  # the worker's death now reads as EOF
                start(_Worker(process, conn), pending.popleft())
            ready = wait(
                [w.conn for w in busy] + [w.process.sentinel for w in busy]
            )
            for worker in [
                w for w in busy if w.conn in ready or w.process.sentinel in ready
            ]:
                busy.remove(worker)
                reply = _reply(worker.conn)
                index = worker.index
                if reply is None:
                    retired.append(worker)
                    _reap(worker.process)
                    attempts[index] += 1
                    if attempts[index] > RETRIES:
                        raise RuntimeError(
                            f"job {index} worker exited with code "
                            f"{worker.process.exitcode} without replying, "
                            f"{attempts[index]} times"
                        )
                    jobs[index] = _retried(jobs[index])
                    pending.appendleft(index)
                    continue
                status, value = reply
                if status == "ok" and pending:
                    results[index] = value
                    start(worker, pending.popleft())
                    continue
                _send(worker, None)
                retired.append(worker)
                if status == "error":
                    raise RuntimeError(f"job {index} failed:\n{value}")
                results[index] = value
    finally:
        for worker in busy:
            worker.process.terminate()
        for worker in busy + retired:
            _reap(worker.process)
            worker.conn.close()
    return [results[index] for index in range(len(jobs))]
