#!/usr/bin/env python
"""Kill-and-resume smoke test, exercised at the CLI level.

Three runs of the same spec:

1. an uninterrupted run with a SQLite store (the reference);
2. a run against a second store that is SIGKILLed as soon as its first
   checkpoint lands (before any result is written);
3. ``run-spec --resume`` against the killed store.

The store commits only with a checkpoint, so before each resume the
killed store must hold nothing past its last one: no final collection
image and no result. The resumed run must reproduce the uninterrupted
run's result exactly — summary, series, spec hash — and the two stores
must hold the same text for their final collection image (every record,
fetch timestamps included) and the same text for their latest checkpoint:
what a resume rebuilds instead of reading from the checkpoint must come
back whole, or a later checkpoint would differ.
This is the paper's "incremental crawler you can stop and restart"
property, end to end.

The same three-step dance then repeats for a *sharded* spec
(``engine="sharded"``, two shards in two worker processes): the SIGKILL
lands on the coordinator once any shard has checkpointed (workers die
with it via PDEATHSIG), and the resume must replay completed shards from
their stored results, resume interrupted ones from their namespaced
checkpoints, and merge to the uninterrupted run's exact result.

The dance repeats once more on ``examples/specs/durable_everything.json``
(all five fault models with retries, politeness with the night window, the
EB estimator, HITS refinement and quality tracking; its web and duration
enlarged here so a kill window exists): plain, and at two shards killed
at two workers and resumed at one.

Two failure-injection phases then harden the story further:

* **corrupted checkpoint** — a run is killed after its *second*
  checkpoint and the latest checkpoint's stored text is damaged two ways,
  each on its own copy of the killed store: one character *flipped*
  mid-value, and the value *torn* to half its length (a write that never
  finished). The integrity checksum is the sha256 of the stored bytes, so
  either way the resume must detect the damage, fall back to the demoted
  previous snapshot, and still reproduce the uninterrupted result exactly;
* **worker SIGKILL** — a sharded run loses one of its *worker
  processes* (not the coordinator) to SIGKILL mid-crawl; the coordinator
  must detect the silent death, re-run the shard from its store, and
  finish with the uninterrupted run's exact result — no resume
  invocation involved.

Run from the repository root:

    PYTHONPATH=src python scripts/kill_resume_smoke.py

The work directory is removed after the last PASS and kept, with its path
printed, when a phase fails.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time

from repro.storage.records import records_from_columns

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EVERYTHING_SPEC = os.path.join(REPO, "examples", "specs", "durable_everything.json")

SPEC = {
    "name": "kill-resume-smoke",
    "kind": "crawl",
    "web": {
        "site_scale": 0.08,
        "pages_per_site": 30,
        "horizon_days": 127.0,
        "new_page_fraction": 0.25,
        "seed": 42,
    },
    "crawler": {
        "kind": "incremental",
        "collection_capacity": 200,
        "crawl_budget_per_day": 2000.0,
        "duration_days": 60.0,
        "measurement_interval_days": 0.5,
        "track_quality": True,
        "storage": "sqlite",
        "checkpoint_every": 1.0,
    },
}

SHARDED_SPEC = {
    "name": "kill-resume-smoke-sharded",
    "kind": "crawl",
    "web": {
        "site_scale": 0.08,
        "pages_per_site": 30,
        "horizon_days": 127.0,
        "new_page_fraction": 0.25,
        "seed": 42,
    },
    "crawler": {
        "kind": "incremental",
        "engine": "sharded",
        "shards": 2,
        "workers": 2,
        "collection_capacity": 200,
        "crawl_budget_per_day": 1500.0,
        "duration_days": 30.0,
        "measurement_interval_days": 0.5,
        "track_quality": True,
        "storage": "sqlite",
        "checkpoint_every": 1.0,
    },
}

POLL_SECONDS = 0.02
KILL_TIMEOUT_SECONDS = 120.0
#: Bound on any one child run; a run past it is killed and its phase fails.
RUN_TIMEOUT_SECONDS = 300.0


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def say(message: str) -> None:
    """Print at once, so a phase that hangs is still named in the log."""
    print(message, flush=True)


def start_spec(spec_path: str, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run-spec", spec_path, *extra],
        cwd=REPO,
        env=cli_env(),
        stdout=subprocess.DEVNULL,
    )


def wait(proc: subprocess.Popen, phase: str) -> int:
    """``proc``'s return code; a child still running after the bound is
    killed (its workers die with it) and ``phase`` fails."""
    try:
        return proc.wait(timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=RUN_TIMEOUT_SECONDS)
        raise SystemExit(f"FAIL: {phase} timed out")


def run_spec(phase: str, spec_path: str, *extra: str) -> None:
    returncode = wait(start_spec(spec_path, *extra), phase)
    if returncode != 0:
        raise SystemExit(f"FAIL: {phase} exited with code {returncode}")


def state_keys(store: str) -> set:
    """State-table keys currently in the store ('' set while unreadable)."""
    try:
        conn = sqlite3.connect(f"file:{store}?mode=ro", uri=True, timeout=0.1)
    except sqlite3.OperationalError:
        return set()
    try:
        rows = conn.execute("SELECT key FROM state").fetchall()
    except sqlite3.OperationalError:
        return set()
    finally:
        conn.close()
    return {key for (key,) in rows}


def query(store: str, sql: str, params: tuple = ()) -> list:
    conn = sqlite3.connect(f"file:{store}?mode=ro", uri=True)
    try:
        return conn.execute(sql, params).fetchall()
    finally:
        conn.close()


def state_text(store: str, key: str) -> list:
    """The stored text of state ``key``, as a one-row list."""
    rows = query(store, "SELECT value FROM state WHERE key = ?", (key,))
    if not rows:
        raise SystemExit(f"FAIL: {os.path.basename(store)} holds no {key!r}")
    return rows


def check_store_is_its_checkpoint(store: str, prefix: str = "") -> None:
    """A killed store holds nothing past its last commit: neither a final
    collection image nor a result, which only a completed run commits."""
    past = [
        key for (key,) in query(store, "SELECT key FROM state")
        if key in (prefix + "collection", prefix + "result")
    ]
    if past:
        raise SystemExit(
            f"FAIL: killed store {os.path.basename(store)} holds {past} "
            "past its last checkpoint"
        )


def compare_stores(label: str, pairs: list) -> int:
    """Final collection images and the latest checkpoint's text of each
    (uninterrupted, interrupted, state-key namespace) store triple; the
    number of records the reference images hold."""
    for reference, interrupted, prefix in pairs:
        for what, read in (
            ("final collection images", lambda store: state_text(store, prefix + "collection")),
            ("latest checkpoints", lambda store: state_text(store, prefix + "checkpoint")),
        ):
            rows_a, rows_b = read(reference), read(interrupted)
            if rows_a != rows_b:
                raise SystemExit(
                    f"FAIL: {label}: the stores hold different {what} "
                    f"({len(rows_a)} vs {len(rows_b)} rows)"
                )
    images = (
        json.loads(state_text(reference, prefix + "collection")[0][0])
        for reference, _, prefix in pairs
    )
    return sum(len(records_from_columns(image, image["table"])) for image in images)


def result_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="kill-resume-smoke-")
    try:
        run_phases(tmp)
    except BaseException:
        say(f"work directory kept for inspection: {tmp}")
        raise
    shutil.rmtree(tmp)
    return 0


def write_spec(tmp: str, key: str, spec: dict) -> str:
    path = os.path.join(tmp, f"{key}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    return path


def run_phases(tmp: str) -> None:
    n_shards = SHARDED_SPEC["crawler"]["shards"]
    plain_spec = write_spec(tmp, "plain", SPEC)
    sharded_spec = write_spec(tmp, "sharded", SHARDED_SPEC)
    plain = kill_resume_phase(
        tmp, "plain", "resume", plain_spec, plain_spec,
        has_checkpoint, lambda a, b: [(a, b, "")],
    )
    sharded = kill_resume_phase(
        tmp, "sharded", "sharded resume", sharded_spec, sharded_spec,
        lambda store: any_shard_checkpoint(store, n_shards),
        lambda a, b: shard_pairs(a, b, n_shards),
    )
    everything_phase(tmp)
    corrupted_checkpoint_phase(tmp, plain_spec, *plain)
    worker_kill_phase(tmp, sharded_spec, *sharded)


def has_checkpoint(store: str) -> bool:
    return "checkpoint" in state_keys(store)


def shard_store_paths(base: str, n_shards: int) -> list:
    return [f"{base}.shard{k:02d}" for k in range(n_shards)]


def any_shard_checkpoint(base: str, n_shards: int) -> bool:
    for k, path in enumerate(shard_store_paths(base, n_shards)):
        if f"shard{k:02d}/checkpoint" in state_keys(path):
            return True
    return False


def shard_pairs(reference: str, interrupted: str, n_shards: int) -> list:
    return [
        (reference_path, interrupted_path, f"shard{k:02d}/")
        for k, (reference_path, interrupted_path) in enumerate(zip(
            shard_store_paths(reference, n_shards),
            shard_store_paths(interrupted, n_shards),
        ))
    ]


def kill_when(phase: str, spec_path: str, store: str, out: str, ready) -> None:
    """Run ``spec_path`` against ``store`` and SIGKILL it as soon as
    ``ready(store)`` holds; the phase fails if the run finishes or writes
    its result first."""
    proc = start_spec(spec_path, "--store", store, "--out", out, "--compact")
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                f"FAIL: {phase}: the run finished before the kill; enlarge "
                "the spec so the kill window exists"
            )
        if "result" in state_keys(store):
            raise SystemExit(f"FAIL: {phase}: a result appeared before the kill")
        if ready(store):
            proc.send_signal(signal.SIGKILL)
            wait(proc, phase)
            break
        time.sleep(POLL_SECONDS)
    else:
        proc.kill()
        wait(proc, phase)
        raise SystemExit(f"FAIL: {phase}: the store was not ready before the timeout")
    if proc.returncode != -signal.SIGKILL or os.path.exists(out):
        raise SystemExit(f"FAIL: {phase}: the run was not killed before its result")
    # A sharded run's workers carry PR_SET_PDEATHSIG: killing the
    # coordinator reaps them. Give the kernel a moment to deliver the
    # signal, so nothing that follows races orphans for the shard stores.
    time.sleep(0.5)


def kill_resume_phase(
    tmp: str, key: str, label: str, run_path: str, resume_path: str, ready, pairs_of
) -> tuple:
    """Run ``run_path`` uninterrupted, and again killed once ``ready``
    holds on its store, then resume the killed store with ``resume_path``.

    Each killed store (the base one and those ``pairs_of(reference,
    killed)`` names, as (reference, killed, state-key prefix) triples) must
    hold its checkpoint and nothing past it; the resumed result, final
    images and latest checkpoints must equal the uninterrupted run's. When
    ``resume_path`` is another spec (a different worker count), the summary's
    ``workers`` and the spec hash are not compared. Returns the
    uninterrupted run's store and result file.
    """
    store_a = os.path.join(tmp, f"{key}_uninterrupted.sqlite")
    store_b = os.path.join(tmp, f"{key}_killed.sqlite")
    out_a = os.path.join(tmp, f"{key}_a.json")
    out_b = os.path.join(tmp, f"{key}_b.json")

    phase = f"[{label} 1/3] uninterrupted run"
    say(f"{phase} ...")
    run_spec(phase, run_path, "--store", store_a, "--out", out_a, "--compact")

    phase = f"[{label} 2/3] run to the first checkpoint, then SIGKILL"
    say(f"{phase} ...")
    kill_when(phase, run_path, store_b, out_b, ready)
    killed = {(store_b, "")} | {(b, prefix) for _, b, prefix in pairs_of(store_a, store_b)}
    for store, prefix in sorted(killed):
        if os.path.exists(store):
            check_store_is_its_checkpoint(store, prefix)
    say("      killed mid-run; each store holds its checkpoint and nothing past it")

    phase = f"[{label} 3/3] resume"
    say(f"{phase} ...")
    run_spec(phase, resume_path, "--store", store_b, "--resume", "--out", out_b, "--compact")

    a, b = result_doc(out_a), result_doc(out_b)
    same_spec = run_path == resume_path
    if not same_spec:
        for doc in (a, b):
            doc["summary"].pop("workers", None)
    for name in ("name", "kind", "summary", "series"):
        if a[name] != b[name]:
            raise SystemExit(f"FAIL: {label}: resumed run differs in {name!r}")
    if same_spec and a["provenance"]["spec_hash"] != b["provenance"]["spec_hash"]:
        raise SystemExit(f"FAIL: {label}: spec hash mismatch between runs")
    records = compare_stores(label, pairs_of(store_a, store_b))
    failures = a["summary"].get("failures")
    retries = "" if failures is None else f"{failures['retries']} retries, "
    say(
        f"PASS: {label}: resumed run is bit-identical to the uninterrupted run "
        f"({records} records in the final images and the latest checkpoints, "
        f"{retries}mean freshness {a['summary']['mean_freshness']:.4f})"
    )
    return store_a, out_a


def everything_phase(tmp: str) -> None:
    """Kill and resume the everything-on spec, plain and at two shards.

    The two-shard run is killed at two workers and resumed at one: the
    worker count changes no shard's work, so the resumed result, final
    images and latest checkpoints must equal the uninterrupted two-worker
    run's (the summary's ``workers`` and the spec hash aside).
    """
    with open(EVERYTHING_SPEC, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    spec["web"] = dict(SPEC["web"])
    spec["crawler"].update(
        collection_capacity=200, crawl_budget_per_day=2000.0, duration_days=60.0
    )
    plain = write_spec(tmp, "everything_plain", spec)
    kill_resume_phase(
        tmp, "everything_plain", "everything", plain, plain,
        has_checkpoint, lambda a, b: [(a, b, "")],
    )
    sharded = {**spec["crawler"], "engine": "sharded", "shards": 2}
    at_two = write_spec(
        tmp, "everything_sharded", {**spec, "crawler": {**sharded, "workers": 2}}
    )
    at_one = write_spec(
        tmp, "everything_sharded_at_one", {**spec, "crawler": {**sharded, "workers": 1}}
    )
    kill_resume_phase(
        tmp, "everything_sharded", "everything, 2 shards, resumed at 1 worker",
        at_two, at_one,
        lambda store: any_shard_checkpoint(store, 2),
        lambda a, b: shard_pairs(a, b, 2),
    )


def flipped(value: str) -> str:
    """``value`` with one character in its middle changed."""
    mid = len(value) // 2
    return value[:mid] + ("0" if value[mid] != "0" else "1") + value[mid + 1:]


def torn(value: str) -> str:
    """``value`` cut to half its length: a write that never finished."""
    return value[: len(value) // 2]


def damage_state_value(store: str, key: str, damage) -> None:
    """Rewrite a stored state document as ``damage(its text)``."""
    conn = sqlite3.connect(store)
    try:
        row = conn.execute(
            "SELECT value FROM state WHERE key = ?", (key,)
        ).fetchone()
        assert row is not None, f"no state row {key!r} to damage"
        damaged = damage(row[0])
        assert damaged != row[0]
        conn.execute("UPDATE state SET value = ? WHERE key = ?", (damaged, key))
        conn.commit()
    finally:
        conn.close()


def copy_store(store: str, copy: str) -> None:
    """Copy a killed run's database with its WAL sidecars (no writer is alive)."""
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(store + suffix):
            shutil.copyfile(store + suffix, copy + suffix)


def corrupted_checkpoint_phase(
    tmp: str, spec_path: str, store_reference: str, out_reference: str
) -> None:
    """Corrupt the latest checkpoint; the resume must use the previous one.

    The run is killed only after ``checkpoint_prev`` exists (the second
    save demotes the first), then the *current* checkpoint's stored text
    is flipped in one copy of the store and torn in another. The integrity
    checksum must catch either damage and the resume fall back to the
    previous snapshot — bit-identical to having crashed one checkpoint
    earlier, hence to the uninterrupted run.
    """
    store = os.path.join(tmp, "corrupted.sqlite")
    out = os.path.join(tmp, "corrupted.json")

    phase = "[corrupt 1/3] run to the second checkpoint, then SIGKILL"
    say(f"{phase} ...")
    kill_when(phase, spec_path, store, out, lambda s: "checkpoint_prev" in state_keys(s))

    check_store_is_its_checkpoint(store)
    a = result_doc(out_reference)
    for damage in (flipped, torn):
        label = damage.__name__
        damaged_store = os.path.join(tmp, f"corrupted_{label}.sqlite")
        copy_store(store, damaged_store)
        say(f"[corrupt 2/3] latest checkpoint {label} ...")
        damage_state_value(damaged_store, "checkpoint", damage)

        phase = f"[corrupt 3/3] resume after a {label} checkpoint"
        say(f"{phase}; must fall back to the previous snapshot ...")
        run_spec(phase, spec_path, "--store", damaged_store, "--resume", "--out", out, "--compact")

        b = result_doc(out)
        for key in ("name", "kind", "summary", "series"):
            if a[key] != b[key]:
                raise SystemExit(
                    f"FAIL: resume after a {label} checkpoint differs from the "
                    f"uninterrupted run in {key!r}"
                )
        # Resumed from the previous slot, the store still ends as the
        # uninterrupted run's.
        compare_stores(f"{label} fallback", [(store_reference, damaged_store, "")])
        say(
            f"PASS: {label} checkpoint detected, previous snapshot resumed "
            f"bit-identically (mean freshness {b['summary']['mean_freshness']:.4f})"
        )


def worker_pids(coordinator_pid: int) -> list:
    """PIDs of the forked worker children of ``coordinator_pid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # stat: pid (comm) state ppid ... — comm may contain spaces.
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        if ppid == coordinator_pid:
            pids.append(int(entry))
    return pids


def worker_kill_phase(
    tmp: str, spec_path: str, store_reference: str, out_reference: str
) -> None:
    """SIGKILL one shard *worker*; the coordinator must recover in-flight.

    Unlike the coordinator-kill phase there is no resume invocation: the
    coordinator notices the silently dead worker, re-runs its shard from
    the shard store (checkpoint or start-over), and the merged result must
    still equal the uninterrupted sharded run bit for bit.
    """
    n_shards = SHARDED_SPEC["crawler"]["shards"]
    store = os.path.join(tmp, "worker_killed.sqlite")
    out = os.path.join(tmp, "worker_killed.json")

    phase = "[worker-kill 1/2] sharded run; SIGKILL one worker mid-crawl"
    say(f"{phase} ...")
    proc = start_spec(spec_path, "--store", store, "--out", out, "--compact")
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    victim = None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "FAIL: the sharded run finished before a worker could be "
                "killed; enlarge the spec so the kill window exists"
            )
        if any_shard_checkpoint(store, n_shards):
            for pid in worker_pids(proc.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                victim = pid
                break
            if victim is not None:
                break
        time.sleep(POLL_SECONDS)
    if victim is None:
        proc.kill()
        wait(proc, phase)
        raise SystemExit("FAIL: no worker process found to kill before the timeout")
    say(f"      killed worker pid {victim}; waiting for the coordinator ...")

    returncode = wait(proc, phase)
    if returncode != 0:
        raise SystemExit(
            f"FAIL: coordinator exited with {returncode} instead of "
            "recovering the killed worker"
        )

    say("[worker-kill 2/2] compare against the uninterrupted sharded run ...")
    c = result_doc(out_reference)
    d = result_doc(out)
    for key in ("name", "kind", "summary", "series"):
        if c[key] != d[key]:
            raise SystemExit(
                "FAIL: worker-kill recovery differs from the uninterrupted "
                f"sharded run in {key!r}"
            )
    records = compare_stores(
        "worker-kill recovery", shard_pairs(store_reference, store, n_shards)
    )
    say(
        "PASS: coordinator recovered the SIGKILLed worker bit-identically "
        f"({records} records in the final images and the latest checkpoints, "
        f"mean freshness {d['summary']['mean_freshness']:.4f})"
    )


if __name__ == "__main__":
    raise SystemExit(main())
