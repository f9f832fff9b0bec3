"""The one worker pool: job order, inherited webs, requeue policy.

Every job function here is module-level: jobs reach the forked workers
pickled, and a function pickles by its import path. Faults are injected
from inside the jobs (a marker file under ``tmp_path`` makes a kill happen
on the first attempt only), and the sharded and matrix callers are reached
by patching the ``run_jobs`` name they call.
"""

import dataclasses
import gc
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import time
from multiprocessing.connection import Connection

import pytest

import repro
from repro.api import runner
from repro.api.runner import ScenarioMatrix, run_matrix
from repro.api.specs import CrawlerSpec, ExperimentSpec, PolicySpec, WebSpec
from repro.core import sharded_crawler, worker_pool
from repro.core.sharded_crawler import ShardedCrawler, ShardRunSpec
from repro.core.sharding import ShardView
from repro.core.worker_pool import RETRIES, Job, run_jobs
from repro.simweb.shared import SharedWeb
from test_sharded_crawler import (  # noqa: F401  (shard_web is a fixture)
    _assert_same_cells,
    _fingerprint,
    _sharded,
    shard_web,
)


def _square(arg, web):
    return arg * arg


def _pid_and_web(arg, web):
    return os.getpid(), id(web), len(web.urls())


def _oracle_address_and_urls(arg, web):
    return web.oracle_arrays().flat.__array_interface__["data"][0], list(web.urls())


def _log_attempt(path):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("attempt\n")


def _attempts(path):
    with open(path, encoding="utf-8") as handle:
        return len(handle.read().split())


def _first_attempt(marker):
    """True exactly once per marker file."""
    if os.path.exists(marker):
        return False
    open(marker, "w").close()
    return True


def _die_once(arg, web):
    """``function(inner, web)``, but SIGKILL the worker on the first attempt."""
    function, inner, marker = arg
    if _first_attempt(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    return function(inner, web)


def _die_mid_reply(arg, web):
    """Like :func:`_die_once`, but die halfway through writing a reply."""
    function, inner, marker = arg
    if _first_attempt(marker):
        (conn,) = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Connection) and not obj.closed
        ]
        # A header announcing 1 MiB, then a few bytes of it.
        os.write(conn.fileno(), struct.pack("!i", 1 << 20) + b"partial")
        os.kill(os.getpid(), signal.SIGKILL)
    return function(inner, web)


def _square_once_killed(arg, web):
    """``arg ** 2`` after the marker exists: runs while the kill happens."""
    value, marker = arg
    deadline = time.monotonic() + 5.0
    while not os.path.exists(marker) and time.monotonic() < deadline:
        time.sleep(0.01)
    return value * value


def _always_die(path, web):
    _log_attempt(path)
    os.kill(os.getpid(), signal.SIGKILL)


def _raise(path, web):
    _log_attempt(path)
    raise ValueError("boom from the job")


def _killing_job(index, marker):
    """A ``run_jobs`` stand-in whose job ``index`` loses its first worker."""

    def patched(jobs, workers):
        jobs = list(jobs)
        job = jobs[index]
        jobs[index] = Job(_die_once, (job.function, job.arg, marker), job.web)
        return run_jobs(jobs, workers)

    return patched


class TestRunJobs:
    def test_results_in_job_order_with_fewer_workers_than_jobs(self):
        assert run_jobs([Job(_square, n) for n in range(5)], workers=2) == [
            0, 1, 4, 9, 16
        ]
        assert not multiprocessing.active_children()

    def test_no_jobs(self):
        assert run_jobs([], workers=3) == []

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_jobs([Job(_square, 1)], workers=0)

    def test_every_job_a_worker_serves_sees_the_one_inherited_web(self, tiny_web):
        with SharedWeb(tiny_web) as shared:
            replies = run_jobs(
                [Job(_pid_and_web, None, shared.key) for _ in range(3)],
                workers=1,
            )
        assert len(set(replies)) == 1
        assert replies[0][1:] == (id(tiny_web), len(tiny_web.urls()))

    def test_a_worker_inherits_the_oracle_arrays(self, tiny_web):
        # Equal data addresses: the worker reads the coordinator's arrays
        # copy-on-write, neither copied nor rebuilt.
        with SharedWeb(tiny_web) as shared:
            (reply,) = run_jobs(
                [Job(_oracle_address_and_urls, None, shared.key)], workers=1
            )
        assert reply == _oracle_address_and_urls(None, tiny_web)

    def test_an_unpublished_web_is_a_clear_error(self, tiny_web):
        with SharedWeb(tiny_web) as shared:
            pass
        with pytest.raises(RuntimeError, match="no web is published"):
            run_jobs([Job(_pid_and_web, None, shared.key)], workers=1)

    def test_reap_escalates_from_join_to_terminate(self, monkeypatch):
        class StuckProcess:
            alive = True
            terminated = False

            def join(self, timeout=None):
                if self.terminated:
                    self.alive = False

            def is_alive(self):
                return self.alive

            def terminate(self):
                self.terminated = True

        monkeypatch.setattr(worker_pool, "JOIN_TIMEOUT_SECONDS", 0.01)
        process = StuckProcess()
        worker_pool._reap(process)
        assert process.terminated and not process.is_alive()


def _children(pid):
    """PIDs of the processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except (OSError, ValueError):
            continue
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        if ppid == pid:
            found.append(int(entry))
    return found


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:].split()[0] != b"Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PDEATHSIG is Linux-only")
def test_worker_orphaned_before_arming_pdeathsig_runs_nothing(tmp_path):
    """A coordinator killed while its worker is still starting leaves a job
    in the pipe; the orphan must exit instead of running it.

    The coordinator delays arming the signal by a second, and its forked
    worker inherits the delay: the kill always lands before the signal is
    armed."""
    target = tmp_path / "target"
    target.mkdir()
    src = os.path.dirname(os.path.dirname(repro.__file__))
    coordinator = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import shutil, sys, time\n"
            "from repro.core import worker_pool\n"
            "arm = worker_pool.install_parent_death_signal\n"
            "def late_arm():\n"
            "    time.sleep(1.0)\n"
            "    arm()\n"
            "worker_pool.install_parent_death_signal = late_arm\n"
            "worker_pool.run_jobs([worker_pool.Job(shutil.rmtree, sys.argv[1])], 1)\n",
            str(target),
        ],
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        deadline = time.monotonic() + 30.0
        workers = []
        while not workers and time.monotonic() < deadline:
            workers = _children(coordinator.pid)
            time.sleep(0.005)
        assert workers, "the coordinator never started its worker"
        time.sleep(0.05)  # the job is sent right after the fork
        coordinator.kill()
        coordinator.wait(timeout=10)
        deadline = time.monotonic() + 20.0
        while _running(workers[0]) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(workers[0])
        assert target.exists(), "the orphaned worker ran its job"
    finally:
        coordinator.kill()
        coordinator.wait(timeout=10)
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


class TestRequeue:
    @pytest.mark.parametrize("dies", [_die_once, _die_mid_reply])
    def test_killed_job_is_rerun_while_another_runs(self, tmp_path, dies):
        marker = str(tmp_path / "killed")
        started = time.monotonic()
        results = run_jobs(
            [
                Job(dies, (_square, 7, marker)),
                Job(_square_once_killed, (5, marker)),
            ],
            workers=2,
        )
        assert time.monotonic() - started < 5.0
        assert os.path.exists(marker)
        assert results == [49, 25] == run_jobs(
            [Job(_square, 7), Job(_square, 5)], workers=2
        )
        assert not multiprocessing.active_children()

    def test_job_that_always_dies_raises_after_retries(self, tmp_path):
        log = str(tmp_path / "attempts")
        with pytest.raises(RuntimeError, match="exited with code -9"):
            run_jobs([Job(_always_die, log)], workers=1)
        assert _attempts(log) == RETRIES + 1
        assert not multiprocessing.active_children()

    def test_reported_error_is_raised_without_retry(self, tmp_path):
        log = str(tmp_path / "attempts")
        with pytest.raises(RuntimeError, match=r"(?s)job 0 failed.*ValueError: boom"):
            run_jobs([Job(_raise, log), Job(_square, 3)], workers=2)
        assert _attempts(log) == 1
        assert not multiprocessing.active_children()

    def test_shard_retry_follows_its_store(self, tiny_web, tmp_path):
        view = ShardView.split(tiny_web, 2, capacity=20, budget_per_day=10.0)[1]
        job = ShardRunSpec(
            view=view,
            crawler=CrawlerSpec(duration_days=1.0),
            policy=PolicySpec(),
            store_path=str(tmp_path / "store.db"),
            spec_hash=None,
            resume=False,
        )
        assert job.retried() is job  # no store: a pure re-run
        stored = dataclasses.replace(job, crawler=job.crawler.replace(storage="sqlite"))
        with pytest.raises(RuntimeError, match="shard 1 .*checkpoint_every"):
            stored.retried()
        checkpointed = dataclasses.replace(
            stored, crawler=stored.crawler.replace(checkpoint_every=1.0)
        )
        assert checkpointed.retried().resume is True


class TestCallersRecover:
    def test_sharded_crawl_recovers_a_killed_shard_worker(
        self, shard_web, tmp_path, monkeypatch
    ):
        spec = _sharded(shards=2, workers=2, duration_days=4.0)
        clean = ShardedCrawler(shard_web, spec, PolicySpec()).run()
        monkeypatch.setattr(
            sharded_crawler, "run_jobs", _killing_job(1, str(tmp_path / "killed"))
        )
        recovered = ShardedCrawler(shard_web, spec, PolicySpec()).run()
        assert (tmp_path / "killed").exists()
        assert _fingerprint(recovered) == _fingerprint(clean)

    def test_matrix_recovers_a_killed_cell_worker(self, tmp_path, monkeypatch):
        matrix = ScenarioMatrix(
            base=ExperimentSpec(
                name="matrix-kill",
                kind="crawl",
                web=WebSpec(
                    site_counts={"com": 6, "edu": 3},
                    pages_per_site=10,
                    horizon_days=20.0,
                    seed=13,
                ),
                crawler=CrawlerSpec(
                    kind="incremental",
                    collection_capacity=50,
                    crawl_budget_per_day=150.0,
                    duration_days=3.0,
                ),
            ),
            axes={"crawler.crawl_budget_per_day": [100.0, 200.0]},
        )
        serial = run_matrix(matrix)
        monkeypatch.setattr(
            runner, "run_jobs", _killing_job(0, str(tmp_path / "killed"))
        )
        parallel = run_matrix(matrix, workers=2)
        assert (tmp_path / "killed").exists()
        _assert_same_cells(serial, parallel)
