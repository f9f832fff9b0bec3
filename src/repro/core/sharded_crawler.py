"""Multi-process sharded crawls: site-affine workers, deterministic merge.

Section 5.2's architecture is explicitly designed so that "multiple
CrawlModules may run in parallel". This module scales the *whole* crawler
that way: the URL space is partitioned site-affinely into
:class:`~repro.core.sharding.ShardView` slices, each slice runs the one
crawl loop (an :class:`~repro.core.incremental_crawler.IncrementalCrawler`
over its view) in a forked worker process, which holds the coordinator's
web copy-on-write (:mod:`repro.simweb.shared`), and the coordinator merges
the per-shard results deterministically.

Determinism contract:

* ``shards=1`` never starts a process — it degenerates to the plain
  :class:`~repro.core.incremental_crawler.IncrementalCrawler`, run inline,
  so the run is bit-identical to the unsharded crawler (series, counters,
  estimator state, per-record fetch timestamps).
* For ``shards=N`` the run is a pure function of ``(web, spec, shards)``:
  each shard's sub-crawl is sequential and self-contained (politeness
  state, link discovery and quality denominators never cross the
  site-affine boundary), and the merge folds shard results in shard-index
  order regardless of which worker finished first. Re-running with any
  ``workers`` count reproduces the same result bit for bit.

A shard returns only what the merge reads: its series, counters, capacity,
budget, attainable quality mass, fetch and failure counts, and the size of
its final collection. Its collection and estimator state stay in the
shard's own store (final image and checkpoints), written once there.

Per-shard persistence lives in sibling stores (``{path}.shard00``, ...)
with namespaced state keys, so a SIGKILLed sharded run resumes cleanly:
completed shards short-circuit from their stored result, interrupted ones
resume from their checkpoints.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.registry import STORAGE_BACKENDS
from repro.api.specs import CrawlerSpec, PolicySpec
from repro.core.incremental_crawler import CrawlRunResult, IncrementalCrawler
from repro.core.sharding import ShardView
from repro.core.worker_pool import Job, run_jobs
from repro.simulation.freshness_tracker import FreshnessTimeSeries
from repro.simweb.shared import SharedWeb
from repro.simweb.web import SimulatedWeb
from repro.storage.checkpoint import (
    RESULT_STATE_KEY,
    CollectionJournal,
    CrawlCheckpointer,
    namespaced_state_key,
)


def shard_namespace(index: int) -> str:
    """State-key namespace of shard ``index`` (also its store suffix)."""
    return f"shard{index:02d}"


def shard_store_path(base: Optional[str], index: int) -> Optional[str]:
    """Sibling store path of shard ``index`` (``None`` stays volatile)."""
    if base is None:
        return None
    return f"{base}.{shard_namespace(index)}"


@dataclass(frozen=True)
class ShardRunSpec:
    """Everything one worker needs to run its shard, picklable.

    The web itself is *not* here: every worker inherits it when the pool
    forks.
    """

    view: ShardView
    crawler: CrawlerSpec
    policy: PolicySpec
    store_path: Optional[str]
    spec_hash: Optional[str]
    resume: bool

    def retried(self) -> "ShardRunSpec":
        """This job as re-run after its worker died without replying.

        Without a persistent store it re-runs as is; with a checkpointed
        one it resumes. A store without checkpoints has nothing to resume
        from (it commits only with the shard's result), so the
        death is fatal.
        """
        if self.crawler.storage is None or self.store_path is None:
            return self
        if self.crawler.checkpoint_every is None:
            raise RuntimeError(
                f"shard {self.view.index} worker died and its store has no "
                "checkpoints to resume from (set checkpoint_every)"
            )
        return dataclasses.replace(self, resume=True)


@dataclass
class ShardedCrawlResult(CrawlRunResult):
    """A merged sharded run: the usual series/counters plus shard extras.

    The shards' collections and estimator states are not merged: each
    stays in its shard's store (final image and checkpoints).

    Attributes:
        collection_size: Pages in the shards' final collections, summed.
        shards: Number of non-empty shards that ran.
        workers: Worker-process cap the run was launched with.
        per_shard: One summary dict per shard, in shard-index order.
    """

    collection_size: int = 0
    shards: int = 1
    workers: int = 1
    per_shard: List[dict] = field(default_factory=list)
    #: Failure counters by class summed across shards (``None`` when the
    #: run had no failure tracker, i.e. neither faults nor retry).
    failures: Optional[Dict[str, int]] = None


def _run_shard(job: ShardRunSpec, web: SimulatedWeb) -> dict:
    """Run one shard's sub-crawl to completion and package the outcome.

    The pool job of every shard, also run inline when ``shards=1``;
    everything shard-specific — store path, namespace, resume —
    comes from the job.
    """
    namespace = shard_namespace(job.view.index)
    backend = None
    journal = None
    checkpointer = None
    resume_state = None
    result_key = namespaced_state_key(namespace, RESULT_STATE_KEY)
    spec = job.crawler
    try:
        if spec.storage is not None:
            backend = STORAGE_BACKENDS.create(spec.storage, path=job.store_path)
            journal = CollectionJournal(backend, namespace=namespace)
            if spec.checkpoint_every is not None:
                checkpointer = CrawlCheckpointer(
                    backend,
                    spec.checkpoint_every,
                    spec_hash=job.spec_hash,
                    namespace=namespace,
                )
        if job.resume:
            if backend is None or checkpointer is None:
                raise ValueError(
                    "shard resume requires a persistent store and "
                    "checkpoint_every"
                )
            saved = backend.load_state(result_key)
            if saved is not None:
                if job.spec_hash is not None and saved.get("spec_hash") != job.spec_hash:
                    raise ValueError(
                        f"shard {job.view.index} store holds a result for a "
                        "different spec"
                    )
                if saved.get("n_shards") != job.view.n_shards:
                    raise ValueError(
                        f"shard {job.view.index} store was written by a "
                        f"{saved.get('n_shards')}-shard run, resuming a "
                        f"{job.view.n_shards}-shard one"
                    )
                if "collection_size" not in saved:
                    raise ValueError(
                        f"shard {job.view.index} store holds a result written "
                        "by an older build (with records and estimator state, "
                        "without collection_size); start a fresh run"
                    )
                return saved
            resume_state = checkpointer.load()
            # Unlike an unsharded resume (``api.runner._run_crawl`` refuses
            # a store with no checkpoint), a shard with none starts over. A
            # resume covers every shard, and a worker that died is retried
            # as a resume (ShardRunSpec.retried), so a shard killed before
            # its first checkpoint must still run; a fresh start contradicts
            # nothing in its store, which commits only with a checkpoint
            # or with the shard's result.

        if job.view.is_total:
            # Total view: the plain crawler, seeds carried through the view
            # (they are exactly what an unsharded run would use).
            crawler = IncrementalCrawler(
                web, spec, job.policy, seed_urls=list(job.view.seed_urls)
            )
        else:
            crawler = IncrementalCrawler(web, spec, job.policy, shard_view=job.view)
        outcome = crawler.run(
            journal=journal, checkpointer=checkpointer, resume_state=resume_state
        )
        payload = {
            "shard_index": job.view.index,
            "n_shards": job.view.n_shards,
            "spec_hash": job.spec_hash,
            "capacity": job.view.capacity,
            "budget_per_day": job.view.budget_per_day,
            "freshness": {
                "times": [float(t) for t in outcome.freshness.times],
                "freshness": [float(f) for f in outcome.freshness.freshness],
            },
            "quality": {
                "times": [float(t) for t in outcome.quality_times],
                "values": [float(q) for q in outcome.quality],
            },
            "counters": {
                "pages_crawled": outcome.pages_crawled,
                "pages_failed": outcome.pages_failed,
                "changes_detected": outcome.changes_detected,
                "pages_replaced": outcome.pages_replaced,
            },
            "collection_size": len(crawler.collection.working_records()),
            "attainable": crawler.quality_attainable(),
            "fetch_count": crawler._fetcher.fetch_count,
            "failures": crawler.failure_counters(),
        }
        if backend is not None:
            backend.save_state(result_key, payload)
            backend.flush()
        return payload
    finally:
        if backend is not None:
            backend.close()


class ShardedCrawler:
    """Coordinator: split, fan out to worker processes, merge deterministically.

    Args:
        web: The synthetic web to crawl.
        crawler: The *whole* crawl (its capacity and budget are split
            across shards). Its ``shards`` (default 1: the plain
            in-process crawler, bit-identically) and ``workers`` (default
            1; the result is independent of it, it only controls
            parallelism) size the run; its ``storage`` and
            ``checkpoint_every`` apply per shard.
        policy: Revisit policy, estimator and importance metric.
        seed_urls: Starting URLs; defaults to every site's root page.
        store_path: Optional base store path; shard ``k`` persists to
            ``{store_path}.shardNN``. ``None`` keeps shard stores volatile.
        spec_hash: Optional spec hash stamped into shard checkpoints and
            results, so a resume refuses foreign state.

    Shards run in :mod:`repro.core.worker_pool`: a worker that dies
    without replying has its shard re-run up to
    :data:`~repro.core.worker_pool.RETRIES` times — as is without a
    persistent store, resumed from the shard's last checkpoint with one
    (see :meth:`ShardRunSpec.retried`) — so the merged result stays
    bit-identical to an uninterrupted run. A shard that raises fails the
    run at once with the worker's traceback.
    """

    def __init__(
        self,
        web: SimulatedWeb,
        crawler: CrawlerSpec,
        policy: PolicySpec,
        seed_urls: Optional[Sequence[str]] = None,
        *,
        store_path: Optional[str] = None,
        spec_hash: Optional[str] = None,
    ) -> None:
        self._web = web
        self._spec = crawler
        self._policy = policy
        self._seeds = seed_urls
        self.shards = crawler.shards or 1
        self.workers = crawler.workers or 1
        self._store_path = store_path
        self._spec_hash = spec_hash

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, *, resume: bool = False) -> ShardedCrawlResult:
        """Run every shard for the spec's ``duration_days`` from its
        ``start_time`` and merge the results.

        Args:
            resume: Continue a killed sharded run from the per-shard
                stores (requires the spec's ``storage`` and
                ``checkpoint_every``, and ``store_path``). Completed shards short-circuit from
                their stored results; interrupted ones resume from their
                checkpoints. The merged result is bit-identical to an
                uninterrupted run.

        Returns:
            The merged :class:`ShardedCrawlResult`.
        """
        spec = self._spec
        if resume and (
            spec.storage is None
            or self._store_path is None
            or spec.checkpoint_every is None
        ):
            raise ValueError(
                "resume requires storage, store_path and checkpoint_every"
            )
        views = ShardView.split(
            self._web,
            self.shards,
            capacity=spec.collection_capacity,
            budget_per_day=spec.crawl_budget_per_day,
            seed_urls=self._seeds,
        )
        jobs = [
            ShardRunSpec(
                view=view,
                crawler=spec.replace(
                    collection_capacity=view.capacity,
                    crawl_budget_per_day=view.budget_per_day,
                ),
                policy=self._policy,
                store_path=shard_store_path(self._store_path, view.index),
                spec_hash=self._spec_hash,
                resume=resume,
            )
            for view in views
        ]

        if len(jobs) == 1:
            # Single shard: no processes — the plain batched crawler, run
            # inline. This is the bit-identity anchor.
            payloads = [_run_shard(jobs[0], self._web)]
        else:
            payloads = self._run_workers(jobs)
        return self._merge(payloads)

    def _run_workers(self, jobs: List[ShardRunSpec]) -> List[dict]:
        """Run the shard jobs in the worker pool over the one inherited web.

        Shards that sample quality inherit the web's ground truth, built
        here before the fork, instead of each computing its own.
        """
        if self._spec.track_quality:
            self._web.true_importance()
        with SharedWeb(self._web) as shared:
            return run_jobs(
                [Job(_run_shard, job, shared.key) for job in jobs],
                self.workers,
            )

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #
    def _merge(self, payloads: List[dict]) -> ShardedCrawlResult:
        """Fold per-shard payloads into one result, in shard-index order.

        The fold is a pure function of the payload list (which is ordered
        by shard index, not by completion): every float reduction iterates
        shards in the same order on every run, so N-shard results are
        reproducible for fixed ``(web, spec, shards)`` regardless of
        worker scheduling.
        """
        payloads = sorted(payloads, key=lambda p: p["shard_index"])
        total_capacity = sum(p["capacity"] for p in payloads)

        series = FreshnessTimeSeries()
        base_times = payloads[0]["freshness"]["times"]
        for p in payloads[1:]:
            if p["freshness"]["times"] != base_times:
                raise RuntimeError(
                    "shards sampled freshness at different instants; "
                    "measurement cadences must match across shards"
                )
        for i, at in enumerate(base_times):
            fresh = 0.0
            for p in payloads:
                fresh += p["freshness"]["freshness"][i] * p["capacity"]
            series.add(float(at), min(1.0, fresh / total_capacity))

        quality: List[float] = []
        quality_times: List[float] = []
        if all(p["quality"]["values"] for p in payloads):
            base_q_times = payloads[0]["quality"]["times"]
            for p in payloads[1:]:
                if p["quality"]["times"] != base_q_times:
                    raise RuntimeError(
                        "shards sampled quality at different instants"
                    )
            # Each shard's quality is achieved/attainable *within its
            # sites*; the global collection achieves the sum of achieved
            # masses against the sum of attainable masses, so the
            # attainable masses are the exact merge weights.
            weights = [
                p["attainable"] if p["attainable"] is not None else 0.0
                for p in payloads
            ]
            total_weight = sum(weights)
            for i, at in enumerate(base_q_times):
                achieved = 0.0
                for p, weight in zip(payloads, weights):
                    achieved += p["quality"]["values"][i] * weight
                quality_times.append(float(at))
                quality.append(
                    min(1.0, achieved / total_weight) if total_weight > 0 else 0.0
                )

        result = ShardedCrawlResult(
            freshness=series,
            quality=quality,
            quality_times=quality_times,
            duration_days=self._spec.duration_days,
            shards=len(payloads),
            workers=self.workers,
        )
        for p in payloads:
            counters = p["counters"]
            result.pages_crawled += int(counters["pages_crawled"])
            result.pages_failed += int(counters["pages_failed"])
            result.changes_detected += int(counters["changes_detected"])
            result.pages_replaced += int(counters["pages_replaced"])
            result.collection_size += int(p["collection_size"])
            per_shard = {
                "shard": p["shard_index"],
                "capacity": p["capacity"],
                "budget_per_day": p["budget_per_day"],
                "attainable": p["attainable"],
                "fetch_count": p["fetch_count"],
                **{key: int(value) for key, value in counters.items()},
            }
            failures = p.get("failures")
            if failures is not None:
                per_shard["failures"] = dict(failures)
                if result.failures is None:
                    result.failures = {}
                for key, value in failures.items():
                    result.failures[key] = result.failures.get(key, 0) + int(value)
            result.per_shard.append(per_shard)
        return result
