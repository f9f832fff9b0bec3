"""The periodic (batch-mode, shadowing) crawler baseline.

Section 1: "the crawler visits the web until the collection has a desirable
number of pages, and stops visiting pages. Then when it is necessary to
refresh the collection, the crawler builds a brand new collection using the
same process described above, and then replaces the old collection with this
brand new one. We refer to this type of crawler as a periodic crawler."

This is the right-hand column of Figure 10: batch-mode crawling, a shadow
collection swapped in at the end of each crawl, and a fixed revisit
frequency (every page exactly once per cycle). It shares the fetch and
storage substrates with the incremental crawler so the comparison between
the two is apples-to-apples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.api.specs import CrawlerSpec
from repro.core.quality import CollectionQualityCache
from repro.fetch.fetcher import SimulatedFetcher
from repro.simulation.freshness_tracker import FreshnessTimeSeries, FreshnessTracker
from repro.simweb.web import SimulatedWeb
from repro.storage.collection import ShadowCollection
from repro.storage.records import PageRecord


@dataclass
class PeriodicCrawlResult:
    """Outcome of a periodic-crawler run."""

    freshness: FreshnessTimeSeries
    quality: List[float] = field(default_factory=list)
    quality_times: List[float] = field(default_factory=list)
    pages_crawled: int = 0
    cycles_completed: int = 0
    duration_days: float = 0.0

    def mean_freshness(self) -> float:
        """Time-averaged freshness over the run."""
        return self.freshness.mean_freshness()

    def final_quality(self) -> float:
        """Last sampled collection quality (0 when not tracked)."""
        return self.quality[-1] if self.quality else 0.0


class PeriodicCrawler:
    """Batch-mode crawler that rebuilds a shadow collection every cycle.

    Each cycle the crawler starts from the seed URLs and crawls breadth
    first until it has collected ``collection_capacity`` pages (or runs out
    of reachable URLs), spending virtual time according to its crawl budget.
    When the crawl completes, the current collection is atomically replaced.

    The paper's batch crawler "must visit pages at a higher speed when it
    operates": with the same capacity and a shorter active window, its
    ``crawl_budget_per_day`` is necessarily higher than a steady crawler's
    for the same cycle.

    Args:
        web: The synthetic web to crawl.
        crawler: Capacity, budget, run length and start, ``cycle_days``
            and measurement cadence; the periodic crawler has no policy
            choices.
        seed_urls: Starting URLs; defaults to every site's root page.
    """

    def __init__(
        self,
        web: SimulatedWeb,
        crawler: CrawlerSpec,
        seed_urls: Optional[Sequence[str]] = None,
    ) -> None:
        self._web = web
        self._spec = crawler
        self._seeds = list(seed_urls) if seed_urls is not None else web.seed_urls()
        if not self._seeds:
            raise ValueError("the crawler needs at least one seed URL")
        self._fetcher = SimulatedFetcher(web)
        self._collection = ShadowCollection(capacity=self._spec.collection_capacity)
        self._quality_cache: Optional[CollectionQualityCache] = None

    @property
    def collection(self) -> ShadowCollection:
        """The crawler's (shadowed) collection."""
        return self._collection

    def run(self) -> PeriodicCrawlResult:
        """Run the periodic crawler for the spec's ``duration_days`` from its
        ``start_time`` (cut at the web's horizon)."""
        start_time = self._spec.start_time
        duration_days = self._spec.duration_days
        end_time = min(start_time + duration_days, self._web.horizon_days)
        tracker = FreshnessTracker(
            self._web,
            self._collection,
            denominator=self._spec.collection_capacity,
        )
        result = PeriodicCrawlResult(freshness=tracker.series, duration_days=duration_days)

        next_measurement = start_time
        cycle_start = start_time
        while cycle_start < end_time:
            crawl_end = self._run_one_cycle(cycle_start, end_time, result)
            # Sample freshness over the remainder of the cycle (the crawler
            # is idle but the web keeps changing).
            next_cycle = min(cycle_start + self._spec.cycle_days, end_time)
            next_measurement = self._measure_until(
                tracker, result, next_measurement, max(crawl_end, cycle_start), next_cycle
            )
            cycle_start = next_cycle
            if crawl_end >= end_time:
                break
        return result

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _run_one_cycle(
        self, cycle_start: float, end_time: float, result: PeriodicCrawlResult
    ) -> float:
        """Crawl one full collection breadth-first; returns the completion time.

        The BFS frontier is processed one wave at a time: all URLs queued at
        the start of the wave resolve through one
        :meth:`~repro.fetch.fetcher.SimulatedFetcher.fetch_many` call, then
        the discovered links of each fetched page are appended in pop order,
        reproducing the exact deque order of a per-URL BFS (kept as the test
        oracle in ``tests/reference/crawl.py``). Within a wave, each URL is
        fetched at most once per cycle (the ``seen`` set guards
        enqueueing), so only the stop conditions need care: a wave slice
        never exceeds the remaining time budget (``now < end_time`` per
        fetch) nor the number of pages still admissible, which keeps the
        fetch count identical to the per-URL loop's.
        """
        per_fetch = 1.0 / self._spec.crawl_budget_per_day
        capacity = self._spec.collection_capacity
        now = cycle_start
        queue = deque(self._seeds)
        seen: Set[str] = set(self._seeds)
        collected = 0
        collection = self._collection
        fetcher = self._fetcher
        while queue and collected < capacity and now < end_time:
            # The per-URL loop checks `now < end_time` before each pop and
            # stores at most (capacity - collected) more pages; a slice of
            # that length cannot overshoot either bound.
            max_by_time = len(queue)
            if per_fetch > 0:
                budget_slots = int((end_time - now) / per_fetch) + 1
                if budget_slots < max_by_time:
                    max_by_time = budget_slots
            wave_len = min(len(queue), capacity - collected, max_by_time)
            wave = [queue.popleft() for _ in range(wave_len)]
            times: List[float] = []
            wave_now = now
            for _ in range(wave_len):
                times.append(wave_now)
                wave_now += per_fetch
            # Trim to the slots that actually start before end_time.
            cut = wave_len
            for j in range(wave_len):
                if not times[j] < end_time:
                    cut = j
                    break
            if cut < wave_len:
                for url in reversed(wave[cut:]):
                    queue.appendleft(url)
                wave = wave[:cut]
                times = times[:cut]
            if not wave:
                break
            fetch = fetcher.fetch_many(wave, times)
            ok = fetch.ok.tolist()
            versions = fetch.versions.tolist()
            completed = fetch.completed_at.tolist()
            for url, ok_i, version_i, completed_i in zip(wave, ok, versions, completed):
                now += per_fetch
                if not ok_i:
                    continue
                outlinks = fetcher.outlinks_of(url)
                if collection.get_working(url) is None and collected < capacity:
                    collection.store(
                        PageRecord(
                            url=url,
                            version=version_i,
                            fetched_at=completed_i,
                            first_fetched_at=completed_i,
                            outlinks=tuple(outlinks),
                        )
                    )
                    collected += 1
                result.pages_crawled += 1
                for link in outlinks:
                    if link not in seen:
                        seen.add(link)
                        queue.append(link)
        self._collection.complete_cycle(at=now)
        result.cycles_completed += 1
        return now

    def _measure_until(
        self,
        tracker: FreshnessTracker,
        result: PeriodicCrawlResult,
        next_measurement: float,
        from_time: float,
        until: float,
    ) -> float:
        """Take periodic freshness/quality samples in ``[from_time, until)``."""
        while next_measurement < until:
            if next_measurement >= from_time - self._spec.cycle_days:
                sample_at = max(next_measurement, 0.0)
                tracker.sample(min(sample_at, self._web.horizon_days))
                if self._spec.track_quality:
                    self._sample_quality(result, sample_at)
            next_measurement += self._spec.measurement_interval_days
        return next_measurement

    def _sample_quality(self, result: PeriodicCrawlResult, at: float) -> None:
        if self._quality_cache is None:
            self._quality_cache = CollectionQualityCache(
                self._web, capacity=self._spec.collection_capacity
            )
        quality = self._quality_cache.quality(self._collection.current_urls())
        result.quality.append(quality)
        result.quality_times.append(at)
