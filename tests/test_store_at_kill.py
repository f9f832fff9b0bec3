"""SIGKILL a checkpointed crawl at random points: its store is a checkpoint.

A file-backed store commits only with a checkpoint (or with the final
result), so whenever a crawl process dies the store must be *exactly* one
checkpoint an uninterrupted run commits: the checkpoint slot byte for
byte, the records field for field and in collection order, and the event
log that run's first ``events_logged`` events — never a half-written
interval past it.

Each kill lands on a fresh ``repro run-spec`` process, which resumes the
previous kill's store whenever that store holds a checkpoint (exercising
the resume path that writes nothing), so the kills walk forward through
the run.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.api.runner import run
from repro.api.specs import ExperimentSpec
from repro.storage.backends import SqliteBackend
from repro.storage.checkpoint import (
    CHECKPOINT_PREV_STATE_KEY,
    CHECKPOINT_STATE_KEY,
    RESULT_STATE_KEY,
    CrawlCheckpointer,
)

SPEC = {
    "name": "kill-at-random",
    "kind": "crawl",
    "web": {
        "site_scale": 0.04, "pages_per_site": 15, "horizon_days": 60.0,
        "new_page_fraction": 0.2, "seed": 7,
    },
    "crawler": {
        "kind": "incremental", "collection_capacity": 60,
        "crawl_budget_per_day": 2000.0, "duration_days": 20.0,
        "measurement_interval_days": 0.5, "ranking_interval_days": 2.0,
        "storage": "sqlite", "checkpoint_every": 0.5,
    },
}
KILLS = 5
#: Upper bound of the random delay between the store appearing and the kill;
#: about the run's crawl time on a 2-CPU host, so most kills land mid-crawl.
MAX_DELAY_S = 0.6
TIMEOUT_S = 60.0


def committed_checkpoints(monkeypatch, path):
    """Run the spec uninterrupted; every checkpoint's store, and the final one.

    Returns ``{checkpoint text: (index, records, events logged)}`` and the
    completed store's ``(records, events)``.
    """
    seen = {}
    original = CrawlCheckpointer.save

    def save_and_look(checkpointer, state, at):
        original(checkpointer, state, at)
        backend = checkpointer.backend
        text = backend.load_state_text(CHECKPOINT_STATE_KEY)
        seen[text] = (len(seen), backend.scan_records(), backend.event_count())

    with monkeypatch.context() as patched:
        patched.setattr(CrawlCheckpointer, "save", save_and_look)
        run(ExperimentSpec.from_dict(SPEC), store=path)
    backend = SqliteBackend(path)
    try:
        final = backend.scan_records(), backend.scan_events()
    finally:
        backend.close()
    return seen, final


def start(spec_path, store, resume):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run-spec", spec_path, "--store", store,
         "--compact", *(["--resume"] if resume else [])],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL,
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs SIGKILL")
def test_a_killed_crawl_leaves_its_last_committed_checkpoint(tmp_path, monkeypatch):
    checkpoints, (final_records, final_events) = committed_checkpoints(
        monkeypatch, str(tmp_path / "reference.sqlite")
    )
    assert len(checkpoints) >= 30
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(SPEC, handle)
    store = str(tmp_path / "killed.sqlite")
    delays = random.Random(36)
    kills = mid_run = 0
    resume = False
    reached = -1
    while kills < KILLS:
        proc = start(spec_path, store, resume)
        try:
            deadline = time.monotonic() + TIMEOUT_S
            while not os.path.exists(store) and proc.poll() is None:
                assert time.monotonic() < deadline, "the crawl never opened its store"
                time.sleep(0.005)
            time.sleep(delays.uniform(0.0, MAX_DELAY_S))
            proc.send_signal(signal.SIGKILL)
            returncode = proc.wait(timeout=TIMEOUT_S)
        finally:
            proc.kill()
            proc.wait(timeout=TIMEOUT_S)

        backend = SqliteBackend(store)
        try:
            text = backend.load_state_text(CHECKPOINT_STATE_KEY)
            if backend.load_state_text(RESULT_STATE_KEY) is not None:
                # Finished before the kill: the store is the completed run's.
                assert returncode in (0, -signal.SIGKILL)
                assert backend.scan_records() == final_records
                assert backend.scan_events() == final_events
                done = True
            elif text is None:
                # Killed before the first checkpoint: nothing was committed.
                assert backend.record_count() == backend.event_count() == 0
                done = False
            else:
                assert text in checkpoints, "the store holds a checkpoint no run committed"
                index, records, events_logged = checkpoints[text]
                assert backend.scan_records() == records
                assert backend.scan_events() == final_events[:events_logged]
                if index > 0:
                    previous = backend.load_state_text(CHECKPOINT_PREV_STATE_KEY)
                    assert checkpoints[previous][0] == index - 1
                assert index >= reached, "a kill lost a committed checkpoint"
                reached = index
                done = False
        finally:
            backend.close()
        if returncode == -signal.SIGKILL:
            kills += 1
            mid_run += not done
        if done:
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(store + suffix):
                    os.remove(store + suffix)
            reached = -1
        resume = text is not None and not done
    assert mid_run >= KILLS - 1
