#!/usr/bin/env python
"""Kill-and-resume smoke test, exercised at the CLI level.

Three runs of the same spec:

1. an uninterrupted run with a SQLite store (the reference);
2. a run against a second store that is SIGKILLed as soon as its first
   checkpoint lands (before any result is written);
3. ``run-spec --resume`` against the killed store.

The store commits only with a checkpoint, so before each resume the
killed store's event count must equal its checkpoint's ``events_logged``.
The resumed run must reproduce the uninterrupted run's result exactly —
summary, series, spec hash — and the two stores must hold identical
per-URL records (fetch timestamps included), identical event logs and the
same text for their latest checkpoint: what a resume rebuilds instead of
reading from the checkpoint must come back whole, or a later checkpoint
would differ.
This is the paper's "incremental crawler you can stop and restart"
property, end to end.

The same three-step dance then repeats for a *sharded* spec
(``engine="sharded"``, two shards in two worker processes): the SIGKILL
lands on the coordinator once any shard has checkpointed (workers die
with it via PDEATHSIG), and the resume must replay completed shards from
their stored results, resume interrupted ones from their namespaced
checkpoints, and merge to the uninterrupted run's exact result.

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

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def records_table(store: str) -> list:
    return query(
        store,
        "SELECT url, fetched_at, first_fetched_at, visit_count,"
        " change_count, version, importance FROM records ORDER BY url",
    )


def event_log(store: str) -> list:
    return query(store, "SELECT url, time, changed, stored FROM events ORDER BY seq")


def check_store_is_its_checkpoint(store: str, key: str = "checkpoint") -> int:
    """A killed store's event count must equal its checkpoint's ``events_logged``
    (zero without a checkpoint): it holds nothing past its last commit."""
    rows = query(store, "SELECT value FROM state WHERE key = ?", (key,))
    logged = json.loads(rows[0][0])["journal"]["events_logged"] if rows else 0
    count = query(store, "SELECT COUNT(*) FROM events")[0][0]
    if count != logged:
        raise SystemExit(
            f"FAIL: killed store {os.path.basename(store)} holds {count} events "
            f"but its checkpoint {key!r} logged {logged}"
        )
    return count


def latest_checkpoint(store: str, key: str) -> list:
    """The stored text of checkpoint ``key``, as a one-row list."""
    rows = query(store, "SELECT value FROM state WHERE key = ?", (key,))
    if not rows:
        raise SystemExit(f"FAIL: {os.path.basename(store)} holds no {key!r}")
    return rows


def compare_stores(label: str, pairs: list) -> int:
    """Records, event logs and the latest checkpoint's text of each
    (uninterrupted, interrupted, checkpoint key) store triple."""
    for reference, interrupted, key in pairs:
        for what, read in (
            ("records", records_table),
            ("event logs", event_log),
            ("latest checkpoints", lambda store: latest_checkpoint(store, key)),
        ):
            rows_a, rows_b = read(reference), read(interrupted)
            if rows_a != rows_b:
                raise SystemExit(
                    f"FAIL: {label}: the stores hold different {what} "
                    f"({len(rows_a)} vs {len(rows_b)} rows)"
                )
    return sum(len(records_table(reference)) for reference, _, _ in pairs)


def result_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="kill-resume-smoke-")
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(SPEC, handle)
    store_a = os.path.join(tmp, "uninterrupted.sqlite")
    store_b = os.path.join(tmp, "killed.sqlite")
    out_a = os.path.join(tmp, "a.json")
    out_b = os.path.join(tmp, "b.json")

    phase = "[1/3] uninterrupted run"
    say(f"{phase} ...")
    run_spec(phase, spec_path, "--store", store_a, "--out", out_a, "--compact")

    phase = "[2/3] run to first checkpoint, then SIGKILL"
    say(f"{phase} ...")
    proc = start_spec(spec_path, "--store", store_b, "--out", out_b, "--compact")
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    killed = False
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "FAIL: the run finished before its first checkpoint could be "
                "observed; enlarge the spec so the kill window exists"
            )
        keys = state_keys(store_b)
        if "result" in keys:
            raise SystemExit(
                "FAIL: result row appeared before the kill; the run was "
                "too fast for this machine"
            )
        if "checkpoint" in keys:
            proc.send_signal(signal.SIGKILL)
            wait(proc, phase)
            killed = True
            break
        time.sleep(POLL_SECONDS)
    if not killed:
        proc.kill()
        wait(proc, phase)
        raise SystemExit("FAIL: no checkpoint observed before the timeout")
    assert proc.returncode == -signal.SIGKILL, proc.returncode
    keys_after_kill = state_keys(store_b)
    assert "checkpoint" in keys_after_kill and "result" not in keys_after_kill
    assert not os.path.exists(out_b), "killed run must not have written a result"
    events = check_store_is_its_checkpoint(store_b)
    say(f"      killed mid-run (returncode {proc.returncode}); store holds its "
        f"checkpoint's {events} events")

    phase = "[3/3] resume from the checkpoint"
    say(f"{phase} ...")
    run_spec(phase, spec_path, "--store", store_b, "--resume", "--out", out_b, "--compact")

    a = result_doc(out_a)
    b = result_doc(out_b)
    for key in ("name", "kind", "summary", "series"):
        if a[key] != b[key]:
            raise SystemExit(f"FAIL: resumed run differs from uninterrupted in {key!r}")
    if a["provenance"]["spec_hash"] != b["provenance"]["spec_hash"]:
        raise SystemExit("FAIL: spec hash mismatch between runs")

    records = compare_stores("resume", [(store_a, store_b, "checkpoint")])
    say(
        f"PASS: resumed run is bit-identical to the uninterrupted run "
        f"({records} records, the event log and the latest checkpoint, mean freshness "
        f"{a['summary']['mean_freshness']:.4f})"
    )

    sharded_phase(tmp)
    corrupted_checkpoint_phase(tmp, out_a, store_a)
    worker_kill_phase(tmp)
    return 0


def shard_store_paths(base: str, n_shards: int) -> list:
    return [f"{base}.shard{k:02d}" for k in range(n_shards)]


def any_shard_checkpoint(base: str, n_shards: int) -> bool:
    for k, path in enumerate(shard_store_paths(base, n_shards)):
        if f"shard{k:02d}/checkpoint" in state_keys(path):
            return True
    return False


def shard_pairs(reference: str, interrupted: str, n_shards: int) -> list:
    return [
        (reference_path, interrupted_path, f"shard{k:02d}/checkpoint")
        for k, (reference_path, interrupted_path) in enumerate(zip(
            shard_store_paths(reference, n_shards),
            shard_store_paths(interrupted, n_shards),
        ))
    ]


def check_shard_stores(base: str, n_shards: int) -> None:
    for k, path in enumerate(shard_store_paths(base, n_shards)):
        if os.path.exists(path):
            check_store_is_its_checkpoint(path, f"shard{k:02d}/checkpoint")


def sharded_phase(tmp: str) -> None:
    """SIGKILL a two-shard, two-worker run and resume it bit-identically."""
    n_shards = SHARDED_SPEC["crawler"]["shards"]
    spec_path = os.path.join(tmp, "sharded_spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(SHARDED_SPEC, handle)
    store_c = os.path.join(tmp, "sharded_uninterrupted.sqlite")
    store_d = os.path.join(tmp, "sharded_killed.sqlite")
    out_c = os.path.join(tmp, "c.json")
    out_d = os.path.join(tmp, "d.json")

    phase = "[1/3] uninterrupted sharded run"
    say(f"{phase} ...")
    run_spec(phase, spec_path, "--store", store_c, "--out", out_c, "--compact")

    phase = "[2/3] sharded run to a shard checkpoint, then SIGKILL the coordinator"
    say(f"{phase} ...")
    proc = start_spec(spec_path, "--store", store_d, "--out", out_d, "--compact")
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    killed = False
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "FAIL: the sharded run finished before any shard checkpoint "
                "could be observed; enlarge the spec so the kill window exists"
            )
        if "result" in state_keys(store_d):
            raise SystemExit(
                "FAIL: merged result appeared before the kill; the run was "
                "too fast for this machine"
            )
        if any_shard_checkpoint(store_d, n_shards):
            proc.send_signal(signal.SIGKILL)
            wait(proc, phase)
            killed = True
            break
        time.sleep(POLL_SECONDS)
    if not killed:
        proc.kill()
        wait(proc, phase)
        raise SystemExit("FAIL: no shard checkpoint observed before the timeout")
    assert proc.returncode == -signal.SIGKILL, proc.returncode
    assert "result" not in state_keys(store_d)
    assert not os.path.exists(out_d), "killed run must not have written a result"
    # The workers carry PR_SET_PDEATHSIG: killing the coordinator reaps
    # them, so the resumed run never races orphans for the shard stores.
    # Give the kernel a moment to deliver the signal before resuming.
    time.sleep(0.5)
    check_shard_stores(store_d, n_shards)
    say(f"      killed mid-run (returncode {proc.returncode}); each shard store "
        "holds its checkpoint's events")

    phase = "[3/3] resume the sharded run from the per-shard stores"
    say(f"{phase} ...")
    run_spec(phase, spec_path, "--store", store_d, "--resume", "--out", out_d, "--compact")

    c = result_doc(out_c)
    d = result_doc(out_d)
    for key in ("name", "kind", "summary", "series"):
        if c[key] != d[key]:
            raise SystemExit(
                f"FAIL: resumed sharded run differs from uninterrupted in {key!r}"
            )
    if c["provenance"]["spec_hash"] != d["provenance"]["spec_hash"]:
        raise SystemExit("FAIL: spec hash mismatch between sharded runs")

    records = compare_stores("sharded resume", shard_pairs(store_c, store_d, n_shards))
    say(
        f"PASS: resumed sharded run is bit-identical to the uninterrupted "
        f"run ({records} records, the event logs and the latest checkpoints "
        f"across {n_shards} shard stores, mean freshness {c['summary']['mean_freshness']:.4f})"
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


def corrupted_checkpoint_phase(tmp: str, out_reference: str, store_reference: str) -> None:
    """Corrupt the latest checkpoint; the resume must use the previous one.

    The run is killed only after ``checkpoint_prev`` exists (the second
    save demotes the first), then the *current* checkpoint's stored text
    is flipped in one copy of the store and torn in another. The integrity
    checksum must catch either damage and the resume fall back to the
    previous snapshot — bit-identical to having crashed one checkpoint
    earlier, hence to the uninterrupted run.
    """
    spec_path = os.path.join(tmp, "spec.json")  # written by main()
    store = os.path.join(tmp, "corrupted.sqlite")
    out = os.path.join(tmp, "corrupted.json")

    phase = "[corrupt 1/3] run to the second checkpoint, then SIGKILL"
    say(f"{phase} ...")
    proc = start_spec(spec_path, "--store", store, "--out", out, "--compact")
    deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
    killed = False
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "FAIL: the run finished before its second checkpoint could "
                "be observed; enlarge the spec so the kill window exists"
            )
        keys = state_keys(store)
        if "result" in keys:
            raise SystemExit("FAIL: result row appeared before the kill")
        if "checkpoint_prev" in keys:
            proc.send_signal(signal.SIGKILL)
            wait(proc, phase)
            killed = True
            break
        time.sleep(POLL_SECONDS)
    if not killed:
        proc.kill()
        wait(proc, phase)
        raise SystemExit("FAIL: no second checkpoint observed before the timeout")

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
        # The fallback trimmed the events past the previous slot and resynced
        # the records: the store ends as the uninterrupted run's.
        compare_stores(
            f"{label} fallback", [(store_reference, damaged_store, "checkpoint")]
        )
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


def worker_kill_phase(tmp: str) -> None:
    """SIGKILL one shard *worker*; the coordinator must recover in-flight.

    Unlike the coordinator-kill phase there is no resume invocation: the
    coordinator notices the silently dead worker, re-runs its shard from
    the shard store (checkpoint or start-over), and the merged result must
    still equal the uninterrupted sharded run bit for bit.
    """
    n_shards = SHARDED_SPEC["crawler"]["shards"]
    spec_path = os.path.join(tmp, "sharded_spec.json")  # written by sharded_phase
    out_reference = os.path.join(tmp, "c.json")
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
    records = compare_stores("worker-kill recovery", shard_pairs(
        os.path.join(tmp, "sharded_uninterrupted.sqlite"), store, n_shards
    ))
    say(
        "PASS: coordinator recovered the SIGKILLed worker bit-identically "
        f"({records} records, the event logs and the latest checkpoints, "
        f"mean freshness {d['summary']['mean_freshness']:.4f})"
    )


if __name__ == "__main__":
    raise SystemExit(main())
