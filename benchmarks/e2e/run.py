#!/usr/bin/env python3
"""End-to-end crawl benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload plain --seed 17 --seconds 12 --trace 0

builds the workload's ``ExperimentSpec`` from the seed (the program receives
only the generated spec and web), sets it up, and runs it **closed-loop, one
client, one process** (only ``sharded`` spawns its two workers) for
``--seconds``; it prints every metric by name and unit, checks the outputs,
and ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, taken with tracing off;
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics. Every timed region runs under ``calibrate.HostProbe`` and is
reported host-normalised. README.md defines every metric and the noise
protocol.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (HERE, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

_import_started = time.perf_counter()
import workloads  # noqa: E402  (pulls in numpy and repro: timed, but not set-up)
from repro.api.runner import build_web, run as run_spec  # noqa: E402
IMPORT_S = time.perf_counter() - _import_started

import calibrate  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")
#: The seed whose digests and counters ``golden.json`` pins.
GOLDEN_SEED = 17
#: Set-ups per end-to-end invocation; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fewest measured ops per invocation, whatever ``--seconds`` says.
MIN_OPS = 5
#: The same for a traced invocation: two untraced and two traced ops.
TRACE_MIN_OPS = 4


def log(message: str) -> None:
    print(message, flush=True)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def digest_of(result) -> str:
    """sha256 of the canonical JSON of a result's summary and series."""
    canonical = json.dumps(
        {"summary": result.summary, "series": result.series},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Bench:
    """One invocation's state: the workload, its fixtures, timings and checks."""

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: str) -> None:
        self.name = name
        self.seed = seed
        self.profile = "smoke" if smoke else "full"
        self.workload = workloads.build(
            name, seed, workloads.SMOKE if smoke else workloads.FULL
        )
        self.stored = self.workload.spec.crawler.storage is not None
        self.work_dir = work_dir
        self.web = None
        self.attempted = 0
        self.failed = 0
        self.first_digest: Optional[str] = None
        self.last_result = None
        #: The store of the latest op, kept until the next one is made so
        #: the traced round can size it.
        self.store: Optional[str] = None
        self._ready_store: Optional[str] = None
        self._stores = 0
        #: ``resume`` only: the interrupted store and the fetches it holds.
        self._prepared: Optional[str] = None
        self._prepared_fetches = 0

    # -------------------------------------------------------------- #
    # Fixtures
    # -------------------------------------------------------------- #
    def _fresh_store(self) -> str:
        self._stores += 1
        path = os.path.join(self.work_dir, f"store{self._stores:04d}")
        if self._prepared is not None:
            shutil.copytree(self._prepared, path)
        else:
            os.mkdir(path)
        return path

    def prepare_resume(self) -> float:
        """Cut a run right after its last checkpoint; the seconds it took.

        Also runs the storage-free twin once: every resumed run must
        reproduce its digest (the store contract says a durable, resumed
        crawl is bit-identical to a plain one).
        """
        from repro.storage.checkpoint import CrawlCheckpointer

        class Interrupted(Exception):
            pass

        started = time.perf_counter()
        web = build_web(self.workload.spec.web)
        path = os.path.join(self.work_dir, "prepared")
        os.mkdir(path)
        original = CrawlCheckpointer.save

        def save_then_cut(checkpointer, state, at):
            original(checkpointer, state, at)
            if checkpointer.saves == workloads.RESUME_SAVES:
                self._prepared_fetches = int(state["crawl"]["pages_fetched"])
                raise Interrupted

        CrawlCheckpointer.save = save_then_cut
        try:
            run_spec(self.workload.spec, web=web, store=os.path.join(path, "crawl.db"))
        except Interrupted:
            pass
        else:
            raise RuntimeError("the resume fixture finished before its last checkpoint")
        finally:
            CrawlCheckpointer.save = original
        self._prepared = path
        self.first_digest = digest_of(run_spec(self.workload.twin, web=web))
        return time.perf_counter() - started

    def setup(self) -> Tuple[float, float, float]:
        """Everything before the timed region; (raw, normalised, build_web raw)."""
        self.web = None
        self._drop(self._ready_store)
        gc.collect()
        with calibrate.HostProbe() as probe:
            web = build_web(self.workload.spec.web)
            build_s = time.perf_counter()
            web.oracle_arrays()
            if self.stored:
                self._ready_store = self._fresh_store()
        self.web = web
        return probe.raw_s, probe.normalised_s, build_s - probe.started

    def _drop(self, store: Optional[str]) -> None:
        if store is not None:
            shutil.rmtree(store)

    # -------------------------------------------------------------- #
    # Ops
    # -------------------------------------------------------------- #
    def run_checked(self, spec, tracer: Optional[tracing.Tracer] = None,
                    **kwargs) -> Optional[dict]:
        """One ``run()`` call under the host probe, its digest checked.

        Returns the sample — raw and normalised seconds, fetches completed
        inside the call — or None when the call failed.
        """
        self.attempted += 1
        gc.collect()
        try:
            with calibrate.HostProbe() as probe:
                with tracer.root() if tracer else contextlib.nullcontext():
                    result = run_spec(spec, web=self.web, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        result.artifacts.clear()  # or every op's crawler would stay resident
        if spec is self.workload.spec:
            digest = digest_of(result)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                log(f"FAILED CHECK: {self.name} digest {digest[:12]} differs from "
                    f"{self.first_digest[:12]}")
                self.failed += 1
            self.last_result = result
        return {
            "raw_s": probe.raw_s,
            "norm_s": probe.normalised_s,
            "fetches": int(result.summary["pages_crawled"]) - self._prepared_fetches,
        }

    def op(self, tracer: Optional[tracing.Tracer] = None) -> Optional[dict]:
        """One op on the workload's spec; its store fixture is not timed."""
        kwargs = {}
        if self.stored:
            self._drop(self.store)
            self.store = self._ready_store or self._fresh_store()
            self._ready_store = None
            kwargs["store"] = os.path.join(self.store, "crawl.db")
            if self.name == "resume":
                kwargs["resume"] = True
        return self.run_checked(self.workload.spec, tracer, **kwargs)

    def measure(self, seconds: float, min_ops: int,
                tracer: Optional[tracing.Tracer] = None) -> List[dict]:
        """Ops for ``seconds`` (at least ``min_ops``); one sample per good op.

        With a tracer, ops alternate untraced and traced so both kinds meet
        the same host phases; a traced sample carries its spans' op number,
        its result and, for a stored workload, its store's sizes.
        """
        samples: List[dict] = []
        deadline = time.perf_counter() + seconds
        turn = 0
        while len(samples) < min_ops or time.perf_counter() < deadline:
            traced = tracer is not None and turn % 2 == 1
            turn += 1
            with tracer if traced else contextlib.nullcontext():
                sample = self.op(tracer if traced else None)
            if sample is None:
                if self.failed > MIN_OPS:
                    raise SystemExit(f"{self.name}: {self.failed} failures; giving up")
                continue
            if traced:
                sample.update(
                    op=tracer.op, result=self.last_result,
                    store=self._store_stats() if self.stored else None,
                )
            samples.append(sample)
        return samples

    def _store_stats(self) -> Tuple[int, float]:
        """(checkpoint bytes, store MB) of the latest op's store."""
        from repro.api.registry import STORAGE_BACKENDS
        from repro.storage.checkpoint import CHECKPOINT_STATE_KEY

        backend = STORAGE_BACKENDS.create(
            self.workload.spec.crawler.storage, path=os.path.join(self.store, "crawl.db")
        )
        try:
            state = backend.load_state(CHECKPOINT_STATE_KEY)
        finally:
            backend.close()
        on_disk = sum(
            os.path.getsize(os.path.join(self.store, entry)) for entry in os.listdir(self.store)
        )
        return len(json.dumps(state, separators=(",", ":"))), on_disk / 1e6

    # -------------------------------------------------------------- #
    # Checks
    # -------------------------------------------------------------- #
    def check_golden(self, regen: bool) -> None:
        """Compare (or rewrite) this workload's ``golden.json`` entry."""
        if self.seed != GOLDEN_SEED or self.last_result is None:
            return
        summary = self.last_result.summary
        key = f"{self.profile}/{self.name}"
        entry = {
            "digest": digest_of(self.last_result),
            "counters": {
                **{name: summary[name] for name in (
                    "pages_crawled", "pages_failed", "changes_detected", "pages_replaced")},
                **(summary.get("failures") or {}),
            },
        }
        golden = {}
        if os.path.exists(GOLDEN_PATH):
            with open(GOLDEN_PATH, encoding="utf-8") as handle:
                golden = json.load(handle)
        if regen:
            golden[key] = entry
            with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
                json.dump(golden, handle, indent=1, sort_keys=True)
                handle.write("\n")
            log(f"!!! REGENERATED golden.json entry {key!r}: the previous digest is no "
                "longer checked. Commit this only with a deliberate behaviour change.")
            return
        self.attempted += 1
        if golden.get(key) != entry:
            log(f"FAILED CHECK: {key} differs from golden.json: got {entry}, "
                f"expected {golden.get(key)}")
            self.failed += 1


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child, MB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def end_to_end(bench: Bench, seconds: float, smoke: bool) -> Dict[str, float]:
    """Set up, warm up, measure with tracing off, set up again; the end-to-end metrics."""
    setups = [bench.setup()]
    bench.op()  # warm-up: caches fill and lazy set-up finishes; checked, not timed
    samples = bench.measure(seconds, 1 if smoke else MIN_OPS)
    # Peak memory is read here: one set-up and its ops, as a user runs them.
    # The repeated set-ups below are the benchmark's, and their build-and-
    # free cycles leave the heap 10 % larger in one process out of three.
    peak_mb = peak_rss_mb()
    setups += [bench.setup() for _ in range(0 if smoke else SETUP_REPEATS - 1)]

    s_q1, s_med, s_q3 = quartiles([normalised for _raw, normalised, _build in setups])
    log(f"setup_s            {s_med:.4f} s    normalised median of {len(setups)} "
        f"(q1 {s_q1:.4f}, q3 {s_q3:.4f}; raw median "
        f"{statistics.median(raw for raw, _norm, _build in setups):.4f} s)")
    q1, med, q3 = quartiles([s["norm_s"] / s["fetches"] * 1e6 for s in samples])
    raw_wall = statistics.median(s["raw_s"] for s in samples)
    fetches = samples[0]["fetches"]
    log(f"norm_us_per_fetch  {med:.4f} us   normalised median of {len(samples)} ops "
        f"(q1 {q1:.4f}, q3 {q3:.4f}; raw median {raw_wall / fetches * 1e6:.4f} us)")
    log(f"run.wall_s         {raw_wall:.4f} s    raw median, not gated")
    log(f"fetches_per_s      {fetches / raw_wall:.1f} 1/s  raw, not gated "
        f"({fetches} fetches per op)")
    metrics = {
        "setup_s": s_med,
        "norm_us_per_fetch": med,
        "peak_rss_mb": peak_mb,
        "final_freshness": float(bench.last_result.series["freshness"][-1]),
    }
    log(f"peak_rss_mb        {metrics['peak_rss_mb']:.2f} MB")
    log(f"final_freshness    {metrics['final_freshness']:.6f} fraction")
    return metrics


def per_layer(bench: Bench, seconds: float, smoke: bool,
              trace_out: Optional[str]) -> Dict[str, float]:
    """Set up once, then alternate untraced and traced ops; the layer metrics."""
    _raw, _normalised, build_s = bench.setup()
    bench.op()  # warm-up
    twin_s = None
    if bench.name == "sharded":
        # The bypass twin on the same web: what the crawl costs unsharded.
        twin_s = bench.run_checked(bench.workload.twin)["raw_s"]
    children_before = os.times()
    tracer = tracing.Tracer()
    samples = bench.measure(seconds, 2 if smoke else TRACE_MIN_OPS, tracer)
    children_after = os.times()
    if trace_out:
        tracer.write(trace_out)

    plain = [s for s in samples if "op" not in s]
    traced = [s for s in samples if "op" in s]
    totals = tracing.summarise(tracer.spans)
    per_op = []
    for sample in traced:
        values = layers.from_spans(totals[sample["op"]], sample["fetches"], sample["result"])
        scale = sample["norm_s"] / sample["raw_s"]
        for name in layers.HOST_SCALED & values.keys():
            values[name] *= scale
        if sample["store"] is not None:
            values["storage.checkpoint.state_bytes"], values["storage.backends.store_mb"] = (
                sample["store"])
        per_op.append(values)

    metrics = {name: 0.0 for name, _unit, _better in layers.PER_LAYER}
    for name in per_op[0]:
        column = [values[name] for values in per_op]
        if name in layers.HOST_SCALED or name.startswith("trace."):
            metrics[name] = statistics.median(column)
        else:
            metrics[name] = column[0]
            if any(value != column[0] for value in column):
                log(f"FAILED CHECK: count {name} did not repeat across traced ops: {column}")
                bench.failed += 1
    plain_wall = statistics.median(s["norm_s"] for s in plain)
    metrics["trace.overhead_share"] = (
        statistics.median(s["norm_s"] for s in traced) / plain_wall - 1.0
    )
    metrics["simweb.generator.build_web_s"] = build_s
    metrics["setup.import_s"] = IMPORT_S
    if twin_s is not None:
        workers = bench.workload.spec.crawler.workers
        metrics["core.sharded_crawler.child_cpu_s"] = (
            (children_after.children_user + children_after.children_system)
            - (children_before.children_user + children_before.children_system)
        ) / len(samples)
        metrics["core.sharded_crawler.overhead_s"] = (
            statistics.median(s["raw_s"] for s in plain) - twin_s / workers
        )
    for name, value in metrics.items():
        log(f"{name:42s} {value:14.4f} {layers.UNITS[name]}")
    return metrics


def stop_children() -> None:
    """Stop every process this invocation started and wait until each has ended.

    The sharded engine joins its own workers, but its spawn context and
    shared-memory blocks also start multiprocessing's resource tracker, which
    otherwise ends only after this process has: nobody waits for it then, and
    it stays behind as a zombie.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()  # closes its pipe, then waitpid()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up, one op (the tier-1 smoke test)")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite this workload's golden.json entry instead of checking it")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1: write every span as JSON lines")
    args = parser.parse_args(argv)

    log(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    log(f"setup.import_s     {IMPORT_S:.4f} s    not part of setup_s")

    # Stores live inside the checkout: the benchmark may write nowhere else.
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        bench = Bench(args.workload, args.seed, args.smoke, work_dir)
        if args.workload == "resume":
            log(f"resume.prepare_s   {bench.prepare_resume():.4f} s    untimed fixture")
        if args.trace:
            values = per_layer(bench, args.seconds, args.smoke, args.trace_out)
        else:
            values = end_to_end(bench, args.seconds, args.smoke)
        bench.check_golden(args.regen_golden)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    log(f"ops_attempted {bench.attempted}  ops_failed {bench.failed}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": layers.UNITS[name]}
                    for name, value in values.items()},
    }), flush=True)
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    # Not in main(): the smoke test calls that in-process, and stopping
    # pytest's resource tracker would unlink what other tests still hold.
    try:
        exit_code = main()
    finally:
        stop_children()
    sys.exit(exit_code)
