"""The incremental crawler: steady, in-place, variable-frequency.

This class wires the Figure 12 architecture together in virtual time, as
three recurring event streams:

* a recurring *crawl* event pops the next URL from CollUrls and processes it
  through the UpdateModule (which calls the CrawlModule); the event period
  is the reciprocal of the crawl budget, which makes the crawler *steady* —
  pages are fetched at a constant, low peak rate;
* a recurring *refinement* event runs the RankingModule scan, which
  recomputes importance and replaces less important pages with more
  important discoveries — deliberately far less often than the crawl event,
  reflecting the paper's point that separating the update decision from the
  (expensive) refinement decision is crucial for performance;
* a recurring *measurement* event samples freshness (and optionally
  quality) of the collection against the simulated-web oracle.

The collection is updated in place, so newly fetched copies are visible to
users immediately — the left-hand column of Figure 10.

The run advances in *tick windows* bounded by the next ranking/measurement
event: every crawl slot of a window is drained through one
:meth:`UpdateModule.process_slots` call — batched oracle fetches,
vectorized change detection, one bulk reschedule — while the event
queue's ``(time, sequence)`` ordering is replicated exactly. The per-URL
loop Figure 12 describes (one event per fetched page) survives only as a
test oracle, ``tests/reference/crawl.py``; the parity suite
(``tests/test_crawler_batched_parity.py``) holds both bit-identical,
counters and freshness/quality series alike.

Politeness (the paper's 10-second per-site delay and 9PM-6AM crawl
window, Section 2.3) is resolved inside that replay: each popped entry's
start instant is resolved against the per-site last-fetch state, which
carries across tick windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.api.specs import CrawlerSpec, PolicySpec
from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.crawl_module import CrawlModule
from repro.core.quality import CollectionQualityCache
from repro.core.ranking_module import RankingModule
from repro.core.sharding import ShardView
from repro.core.update_module import UpdateModule
from repro.faults import FailureTracker
from repro.fetch.fetcher import SimulatedFetcher
from repro.simulation.events import StreamScheduler
from repro.simulation.freshness_tracker import FreshnessTimeSeries, FreshnessTracker
from repro.simweb.web import SimulatedWeb
from repro.storage.checkpoint import (
    CHECKPOINT_FORMAT,
    CollectionJournal,
    CrawlCheckpointer,
)
from repro.storage.collection import InPlaceCollection
from repro.storage.records import records_from_columns, records_to_columns


@dataclass
class CrawlRunResult:
    """Outcome of a crawler run.

    Attributes:
        freshness: Sampled freshness time series of the current collection.
        quality: Sampled collection-quality time series (empty when quality
            tracking is disabled).
        pages_crawled: Total successful fetches.
        pages_failed: Fetches of pages that had disappeared (or were
            excluded).
        changes_detected: Re-fetches whose content version differed.
        pages_replaced: Collection pages displaced by the refinement
            decision.
        duration_days: Length of the run.
    """

    freshness: FreshnessTimeSeries
    quality: List[float] = field(default_factory=list)
    quality_times: List[float] = field(default_factory=list)
    pages_crawled: int = 0
    pages_failed: int = 0
    changes_detected: int = 0
    pages_replaced: int = 0
    duration_days: float = 0.0

    def mean_freshness(self) -> float:
        """Time-averaged freshness over the run."""
        return self.freshness.mean_freshness()

    def final_quality(self) -> float:
        """Last sampled collection quality (0 when not tracked)."""
        return self.quality[-1] if self.quality else 0.0


class IncrementalCrawler:
    """The incremental crawler of Section 5, runnable against a synthetic web.

    Args:
        web: The synthetic web to crawl.
        crawler: Capacity, budget, run length and start, cadences,
            politeness and faults.
        policy: Revisit policy, estimator and importance metric.
        seed_urls: Starting URLs; defaults to every site's root page (or,
            with a shard view, the view's seed list).
        shard_view: Optional :class:`~repro.core.sharding.ShardView`
            restricting this crawler to one site-affine shard of the URL
            space. The view supplies the default seeds, filters discovered
            links to owned sites (so the shard's AllUrls universe stays
            local), arms the politeness site-affinity guard and restricts
            the quality denominator to attainable-within-shard mass. The
            spec's capacity and budget should already be the shard's
            slice (``ShardedCrawler`` passes one per shard). ``None``
            — the default — is the unsharded crawler, byte-for-byte the
            pre-shard behaviour.
    """

    def __init__(
        self,
        web: SimulatedWeb,
        crawler: CrawlerSpec,
        policy: PolicySpec,
        seed_urls: Optional[Sequence[str]] = None,
        shard_view: Optional[ShardView] = None,
    ) -> None:
        self._web = web
        self._spec = crawler
        self._shard_view = shard_view
        if seed_urls is not None:
            self._seeds = list(seed_urls)
        elif shard_view is not None:
            self._seeds = list(shard_view.seed_urls)
        else:
            self._seeds = web.seed_urls()
        if not self._seeds:
            raise ValueError("the crawler needs at least one seed URL")

        allowed_sites = None
        link_filter = None
        if shard_view is not None and not shard_view.is_total:
            allowed_sites = frozenset(shard_view.site_ids)
            link_filter = self._owns_url
        politeness = crawler.build_politeness()
        if politeness is not None and allowed_sites is not None:
            # Site-affinity contract: per-site politeness state must never
            # cross a shard boundary, so a foreign-site request raises.
            politeness.allowed_sites = allowed_sites
        faults = None if crawler.faults is None else crawler.faults.build_fault_layer()
        self._fetcher = SimulatedFetcher(web, politeness=politeness, faults=faults)
        self._collection = InPlaceCollection(capacity=crawler.collection_capacity)
        self._allurls = AllUrls()
        self._collurls = CollUrls()
        self._crawl_module = CrawlModule(
            self._fetcher, self._collection, self._allurls, link_filter=link_filter
        )
        self._failure_tracker = crawler.build_failure_tracker()
        self._update_module = UpdateModule(
            self._collurls,
            self._crawl_module,
            crawler,
            policy,
            failure_tracker=self._failure_tracker,
        )
        self._ranking_module = RankingModule(
            self._allurls, self._collurls, self._collection, self._crawl_module, policy
        )
        self._use_importance = policy.use_importance
        self._quality_cache: Optional[CollectionQualityCache] = None

    def _owns_url(self, url: str) -> bool:
        """Shard link filter: keep only URLs of sites this shard owns.

        URLs the web does not know cannot be routed to a site (and could
        never be fetched successfully), so they are dropped too — each
        shard's discovered universe stays site-affine by construction.
        """
        if url not in self._web:
            return False
        return self._shard_view.owns_site(self._web.page(url).site_id)

    # ------------------------------------------------------------------ #
    # Accessors (useful for tests and examples)
    # ------------------------------------------------------------------ #
    @property
    def collection(self) -> InPlaceCollection:
        """The crawler's collection."""
        return self._collection

    @property
    def allurls(self) -> AllUrls:
        """The discovered-URL registry."""
        return self._allurls

    @property
    def collurls(self) -> CollUrls:
        """The collection URL priority queue."""
        return self._collurls

    @property
    def update_module(self) -> UpdateModule:
        """The UpdateModule (exposes per-page rate estimates)."""
        return self._update_module

    @property
    def failure_tracker(self) -> Optional[FailureTracker]:
        """The failure tracker (``None`` when faults and retry are off)."""
        return self._failure_tracker

    def failure_counters(self) -> Optional[dict]:
        """Failure counters by class (``None`` without a failure tracker)."""
        if self._failure_tracker is None:
            return None
        return dict(self._failure_tracker.counters)

    @property
    def ranking_module(self) -> RankingModule:
        """The RankingModule (exposes refinement statistics)."""
        return self._ranking_module

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(
        self,
        *,
        journal: Optional[CollectionJournal] = None,
        checkpointer: Optional[CrawlCheckpointer] = None,
        resume_state: Optional[dict] = None,
    ) -> CrawlRunResult:
        """Run the crawler for the spec's ``duration_days`` from its
        ``start_time`` (cut at the web's horizon).

        Args:
            journal: Optional :class:`CollectionJournal` that writes the
                final collection image into its storage backend at the end
                of the run, which the caller commits with the result
                (``backend.flush()``).
            checkpointer: Optional :class:`CrawlCheckpointer` persisting
                resumable state snapshots at event boundaries.
            resume_state: A checkpoint previously written by this
                configuration, loaded via ``CrawlCheckpointer.load()``. The
                crawler must be freshly constructed; the run continues from
                the checkpoint and produces results bit-identical to an
                uninterrupted run.

        Returns:
            A :class:`CrawlRunResult` with freshness/quality series and
            counters.
        """
        start_time = self._spec.start_time
        duration_days = self._spec.duration_days
        end_time = min(start_time + duration_days, self._web.horizon_days)

        tracker = FreshnessTracker(
            self._web,
            self._collection,
            denominator=self._spec.collection_capacity,
        )
        result = CrawlRunResult(freshness=tracker.series, duration_days=duration_days)

        scheduler: Optional[StreamScheduler] = None
        if resume_state is not None:
            scheduler = self._restore_state(resume_state, tracker, result)
            if checkpointer is not None:
                checkpointer.start(float(resume_state["checkpoint_at"]))
        else:
            self._bootstrap(start_time)
            if checkpointer is not None:
                checkpointer.start(start_time)

        self._run_batched(
            start_time,
            end_time,
            tracker,
            result,
            checkpointer=checkpointer,
            scheduler=scheduler,
        )
        if journal is not None:
            journal.finish(self._collection)

        result.pages_crawled = self._crawl_module.pages_fetched
        result.pages_failed = self._crawl_module.pages_failed
        result.changes_detected = self._update_module.changes_detected
        result.pages_replaced = self._ranking_module.pages_replaced
        return result

    def _run_batched(
        self,
        start_time: float,
        end_time: float,
        tracker: FreshnessTracker,
        result: CrawlRunResult,
        checkpointer: Optional[CrawlCheckpointer] = None,
        scheduler: Optional[StreamScheduler] = None,
    ) -> None:
        """The crawl loop: crawl slots drained one tick window at a time.

        The :class:`StreamScheduler` carries the three recurring streams
        with the per-URL loop's exact ``(time, sequence)`` ordering. When a
        crawl event pops, every follow-up crawl slot that would have run
        before the next ranking/measurement event is folded into one
        ``process_slots`` call; each folded slot claims the sequence number
        its per-event counterpart would have consumed, so every tie-break —
        now and later in the run — resolves identically. Slot times are
        accumulated with the same float additions the per-URL loop
        performs, keeping fetch timestamps bit-identical.

        Checkpoints are taken at the top of the loop, *before* the head
        event pops: the snapshot reads state only (no sequence numbers are
        consumed, no float is recomputed), so a checkpointed run is the
        same run — and a resume restores the scheduler with the head event
        still pending, replaying it exactly as the uninterrupted run would
        have.

        Args:
            start_time: Virtual time the run starts (seeds the scheduler
                when none is passed).
            end_time: Virtual time past which no event executes.
            tracker: Freshness tracker sampled at measurement events.
            result: The run's result, receiving quality samples.
            checkpointer: Optional checkpointer; offered a save opportunity
                at the top of every loop iteration.
            scheduler: A restored scheduler (resume); ``None`` starts all
                three streams at ``start_time``.
        """
        if scheduler is None:
            scheduler = StreamScheduler()
            scheduler.schedule(start_time, "crawl")
            scheduler.schedule(start_time, "ranking")
            scheduler.schedule(start_time, "measure")
        spec = self._spec
        crawl_period = 1.0 / spec.crawl_budget_per_day
        limit = end_time + 1e-12

        while True:
            head = scheduler.peek()
            if head is None or head[0] > limit:
                break
            if checkpointer is not None and checkpointer.due(head[0]):
                # No local name for the state: it would keep the last
                # snapshot alive, doubling the next save's peak memory.
                checkpointer.save(
                    self._snapshot_state(
                        head[0], start_time, end_time, scheduler, tracker, result
                    ),
                    head[0],
                )
            at, _sequence, label = scheduler.pop()
            if label == "crawl":
                # Fold every crawl slot that precedes the next other-stream
                # event into one batch. The other streams cannot move while
                # only crawl slots run, so their head is read once.
                slots = [at]
                append = slots.append
                next_time = at + crawl_period
                other = scheduler.peek()
                if other is None:
                    other_time, other_sequence = float("inf"), 0
                else:
                    other_time, other_sequence = other[0], other[1]
                base_sequence = scheduler.next_sequence
                claimed = 0
                while next_time <= limit:
                    if next_time > other_time or (
                        next_time == other_time
                        and other_sequence < base_sequence + claimed
                    ):
                        break
                    append(next_time)
                    claimed += 1
                    next_time += crawl_period
                scheduler.claim_sequences(claimed)
                scheduler.schedule(next_time, "crawl")
                self._update_module.process_slots(slots)
            elif label == "ranking":
                refinement = self._ranking_module.refine(at)
                if self._use_importance:  # the only reader of the score dict
                    self._update_module.set_importance(refinement.importance)
                scheduler.schedule(at + spec.ranking_interval_days, "ranking")
            else:
                tracker.sample(at)
                if spec.track_quality:
                    self._sample_quality(result, at)
                scheduler.schedule(at + spec.measurement_interval_days, "measure")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _bootstrap(self, start_time: float) -> None:
        """Seed AllUrls and CollUrls with the configured seed URLs.

        All seeds are scheduled at exactly ``start_time``; the queue's
        sequence tie-break serves them in seed order, so bulk scheduling is
        collision-safe without spreading artificial epsilon offsets.
        """
        fresh = []
        for url in self._seeds:
            self._allurls.add(url, discovered_at=start_time)
            if url not in self._collurls:
                fresh.append(url)
        self._collurls.schedule_many(fresh, [start_time] * len(fresh))

    def _sample_quality(self, result: CrawlRunResult, at: float) -> float:
        if self._quality_cache is None:
            subset = None
            if self._shard_view is not None and not self._shard_view.is_total:
                # A shard can only ever collect pages of the sites it owns,
                # so its attainable mass is the best `capacity` pages *within
                # the shard*. The per-shard attainable masses are the weights
                # the coordinator merges shard quality series with.
                subset = [
                    page.url
                    for site_id in self._shard_view.site_ids
                    for page in self._web.site(site_id).all_pages
                ]
            self._quality_cache = CollectionQualityCache(
                self._web,
                capacity=self._spec.collection_capacity,
                subset=subset,
            )
        quality = self._quality_cache.quality(self._collection.current_urls())
        result.quality.append(quality)
        result.quality_times.append(at)
        return quality

    def quality_attainable(self) -> Optional[float]:
        """Attainable importance mass of this crawler's quality denominator.

        ``None`` until the first quality sample built the cache (or when
        quality tracking is off). The sharded coordinator uses these masses
        as the deterministic weights of its merged quality series.
        """
        if self._quality_cache is None:
            return None
        return self._quality_cache.attainable_mass

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def _snapshot_state(
        self,
        at: float,
        start_time: float,
        end_time: float,
        scheduler: StreamScheduler,
        tracker: FreshnessTracker,
        result: CrawlRunResult,
    ) -> dict:
        """Assemble a snapshot of the full crawler state, for
        :func:`~repro.storage.checkpoint.encode`.

        Taken with the head event still pending on the scheduler: restoring
        this state into a freshly constructed crawler replays the run from
        here bit-identically. Every float travels exactly (per-URL columns as
        float64 ndarrays, the rest as JSON ``repr``) and dict insertion
        order — which feeds ordered float reductions in the UpdateModule —
        survives serialization. Each URL is written once: every module packs
        its URL columns through one URL → index dict seeded from AllUrls'
        order, and ``allurls.url`` becomes that table — AllUrls' URLs, then
        the strays another module holds (a shard's foreign-site link
        targets), counted by ``allurls.strays``.
        """
        politeness = self._fetcher.politeness
        allurls = self._allurls.snapshot()
        ids = {url: index for index, url in enumerate(allurls["url"])}
        state = {
            "format": CHECKPOINT_FORMAT,
            "start_time": start_time,
            "end_time": end_time,
            "duration_days": result.duration_days,
            "checkpoint_at": at,
            "scheduler": scheduler.snapshot(),
            "collurls": self._collurls.snapshot(ids),
            "collection": records_to_columns(self._collection.working_records(), ids),
            "allurls": allurls,
            "update": self._update_module.snapshot(ids),
            "crawl": self._crawl_module.snapshot(),
            "ranking": self._ranking_module.snapshot(ids),
            "fetch_count": self._fetcher.fetch_count,
            "politeness": politeness.snapshot() if politeness is not None else None,
            "freshness": {
                "times": list(tracker.series.times),
                "freshness": list(tracker.series.freshness),
            },
            "quality": {
                "times": list(result.quality_times),
                "values": list(result.quality),
            },
        }
        allurls["strays"] = len(ids) - len(allurls["url"])
        allurls["url"] = list(ids)
        return state

    def _restore_state(
        self,
        state: dict,
        tracker: FreshnessTracker,
        result: CrawlRunResult,
    ) -> StreamScheduler:
        """Rebuild crawler state from a checkpoint and return the scheduler.

        The crawler must be freshly constructed (as after a process kill):
        restoration *replays* collection stores in checkpoint order so the
        repository's insertion order — and with it every scan order
        downstream — matches the uninterrupted run. A checkpoint of another
        format is refused by name.
        """
        fmt = state.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(
                f"checkpoint format {fmt!r} cannot be resumed: this build "
                f"reads and writes format {CHECKPOINT_FORMAT} only"
            )
        for name in ("start_time", "duration_days"):
            if float(state[name]) != getattr(self._spec, name):
                raise ValueError(
                    f"checkpoint was taken for {name}={state[name]}, "
                    f"got {getattr(self._spec, name)}"
                )

        allurls = dict(state["allurls"])
        table = allurls["url"]
        allurls["url"] = table[: len(table) - allurls.pop("strays")]
        scheduler = StreamScheduler()
        scheduler.restore_snapshot(state["scheduler"])
        self._collurls.restore_snapshot(state["collurls"], table)
        for record in records_from_columns(state["collection"], table):
            self._collection.store(record)
        self._allurls.restore_snapshot(allurls)
        self._update_module.restore_snapshot(state["update"], table)
        self._crawl_module.restore_snapshot(state["crawl"])
        self._ranking_module.restore_snapshot(state["ranking"], table)
        self._fetcher.fetch_count = int(state["fetch_count"])

        politeness = self._fetcher.politeness
        saved_politeness = state.get("politeness")
        if politeness is not None:
            if saved_politeness is None:
                raise ValueError(
                    "checkpoint was taken without politeness but this "
                    "configuration enables it"
                )
            politeness.restore_snapshot(saved_politeness)
        elif saved_politeness is not None:
            raise ValueError(
                "checkpoint was taken with politeness but this "
                "configuration disables it"
            )

        # ``result.freshness`` *is* ``tracker.series`` (same object), so
        # restoring the tracker restores the result series too.
        freshness = state["freshness"]
        tracker.series.times[:] = [float(t) for t in freshness["times"]]
        tracker.series.freshness[:] = [float(f) for f in freshness["freshness"]]
        quality = state["quality"]
        result.quality[:] = [float(v) for v in quality["values"]]
        result.quality_times[:] = [float(t) for t in quality["times"]]
        return scheduler
