"""SIGKILL a checkpointed crawl at random points: its store is a checkpoint.

A file-backed store commits only with a checkpoint (or with the final
result and collection image), so whenever a crawl process dies the store
must be *exactly* one checkpoint an uninterrupted run commits: the
checkpoint slot byte for byte (the collection is its ``collection``
columns), the previous slot one checkpoint behind it, and no final image or
result — nothing written past the commit. A completed store holds the
uninterrupted run's final image. The uninterrupted run is itself checked at
every commit, so a commit that lands between checkpoints (a final image
without its result) fails even where no random kill falls.

Each kill lands on a fresh ``repro run-spec`` process, which resumes the
previous kill's store whenever that store holds a checkpoint, so the kills
walk forward through the run.
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
    COLLECTION_STATE_KEY,
    RESULT_STATE_KEY,
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
    """Run the spec uninterrupted, looking at its store after every commit.

    Each commit but the last must leave a new checkpoint and no final image
    or result; the last leaves both. Returns ``{checkpoint text: index}``
    and the completed store's final collection image.
    """
    seen = {}
    original = SqliteBackend.flush

    def flush_and_look(backend):
        original(backend)
        # Right after a commit, what the writer sees is what it committed.
        if backend.load_state_text(RESULT_STATE_KEY) is None:
            assert backend.load_state_text(COLLECTION_STATE_KEY) is None, \
                "a commit left a final image without its result"
            text = backend.load_state_text(CHECKPOINT_STATE_KEY)
            assert text not in seen, "a commit between checkpoints"
            seen[text] = len(seen)

    with monkeypatch.context() as patched:
        patched.setattr(SqliteBackend, "flush", flush_and_look)
        run(ExperimentSpec.from_dict(SPEC), store=path)
    backend = SqliteBackend(path)
    try:
        final = backend.load_state_text(COLLECTION_STATE_KEY)
    finally:
        backend.close()
    assert final is not None
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
    checkpoints, final_image = committed_checkpoints(
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
                assert backend.load_state_text(COLLECTION_STATE_KEY) == final_image
                done = True
            elif text is None:
                # Killed before the first checkpoint: nothing was committed.
                assert backend.load_state_text(COLLECTION_STATE_KEY) is None
                assert backend.load_state_text(CHECKPOINT_PREV_STATE_KEY) is None
                done = False
            else:
                assert text in checkpoints, "the store holds a checkpoint no run committed"
                index = checkpoints[text]
                # Nothing past the commit: no final image (the result is
                # absent by this branch).
                assert backend.load_state_text(COLLECTION_STATE_KEY) is None
                if index > 0:
                    previous = backend.load_state_text(CHECKPOINT_PREV_STATE_KEY)
                    assert checkpoints[previous] == index - 1
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
