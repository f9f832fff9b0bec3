"""The per-URL reference engine: Figure 12's loop, one event per fetch.

The product crawls in tick windows (``IncrementalCrawler._run_batched``
drains every crawl slot of a window through
``UpdateModule.process_slots``) and builds periodic collections in BFS
waves (``PeriodicCrawler._run_one_cycle``). The loops here are the ones
those replaced, kept as parity oracles: one :class:`EventQueue` callback
per crawl slot that pops, crawls and reschedules a single URL, and a BFS
that fetches one URL at a time. Both subclasses override only the loop,
so ``run()`` keeps the product's bootstrap, counters and result assembly.
``tests/test_crawler_batched_parity.py`` and ``tests/test_faults.py`` hold
the product bit-identical to them; ``benchmarks/bench_perf_hotpaths.py``
checks the same untimed.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Set

from repro.core.crawl_module import CrawlOutcome
from repro.core.incremental_crawler import CrawlRunResult, IncrementalCrawler
from repro.core.periodic_crawler import PeriodicCrawler, PeriodicCrawlResult
from repro.core.update_module import HISTORY_WINDOW_DAYS, UpdateModule
from repro.estimation.change_history import ChangeHistory
from repro.fetch.fetcher import STATUS_TO_CODE, FetchStatus
from repro.simulation.freshness_tracker import FreshnessTracker
from repro.storage.records import PageRecord

from reference.events import EventQueue, VirtualClock

#: FetchStatus members that are *no observation* of the page (see
#: repro.faults.TRANSIENT_CODES): the fetch failed, the page may be fine.
_TRANSIENT_STATUSES = (
    FetchStatus.TIMEOUT,
    FetchStatus.SERVER_ERROR,
    FetchStatus.RATE_LIMITED,
    FetchStatus.SOFT_404,
)


def process_next(update: UpdateModule, at: float) -> Optional[CrawlOutcome]:
    """Pop the head of CollUrls, crawl it and reschedule it.

    ``UpdateModule.process_slots`` over one slot time, one URL at a time.

    Returns:
        The :class:`CrawlOutcome`, or ``None`` when CollUrls is empty or
        the slot was spent on a quarantined site.
    """
    collurls = update._collurls
    crawl_module = update._crawl_module
    head = collurls.pop()
    if head is None:
        return None
    url, _scheduled = head
    tracker = update.failure_tracker
    site: Optional[str] = None
    if tracker is not None:
        site = crawl_module.site_of(url)
        if tracker.quarantined(site, at):
            # Circuit breaker: the slot is spent but nothing is fetched;
            # the URL is deferred to the quarantine's probe time.
            collurls.schedule(url, tracker.defer(url, site, at))
            return None
    outcome = crawl_module.crawl(url, at)
    update.pages_processed += 1
    completed = outcome.completed_at

    if tracker is not None and outcome.fetch.status in _TRANSIENT_STATUSES:
        # Transient failure: no observation of the page was made, so the
        # change history and rate estimate stay untouched. The retry
        # policy decides whether the URL goes back into the queue.
        retry_at = tracker.on_failure(
            url,
            site,
            STATUS_TO_CODE[outcome.fetch.status],
            completed,
            outcome.fetch.retry_after,
        )
        if retry_at is not None:
            collurls.schedule(url, retry_at)
        else:
            # Retries exhausted: drop the page from the schedule but leave
            # AllUrls alone — the page was never observed to be gone.
            update._forget(url)
            crawl_module.discard(url)
    elif not outcome.stored:
        # The page has disappeared: drop its statistics and do not
        # reschedule it; the RankingModule admits a replacement.
        update._forget(url)
        crawl_module.discard(url)
    else:
        if tracker is not None:
            tracker.on_success(url, site)
        _observe(update, url, completed, outcome)
        update._maybe_reallocate(completed)
        collurls.schedule(url, completed + update._interval_for(url))
    journal = crawl_module.journal
    if journal is not None:
        journal.on_outcome(outcome, crawl_module.collection)
    return outcome


def _observe(update: UpdateModule, url: str, at: float, outcome: CrawlOutcome) -> None:
    history = update._histories.get(url)
    if history is None or outcome.was_new:
        update._histories[url] = ChangeHistory(
            first_visit=at, window_days=HISTORY_WINDOW_DAYS
        )
        update._estimator.reset_page(url)
        return
    history.record_visit(at, outcome.changed)
    if outcome.changed:
        update.changes_detected += 1
    update._rate_estimates[url] = update._estimator.update(url, history)


class ReferenceIncrementalCrawler(IncrementalCrawler):
    """The incremental crawler on the per-URL engine.

    The event queue holds closures, so this engine cannot checkpoint or
    resume; it raises when asked to.
    """

    def _run_batched(
        self,
        start_time: float,
        end_time: float,
        tracker: FreshnessTracker,
        result: CrawlRunResult,
        checkpointer=None,
        scheduler=None,
    ) -> None:
        if checkpointer is not None or scheduler is not None:
            raise ValueError(
                "checkpoint/resume needs the batched crawl loop; the per-URL "
                "reference engine's event queue holds closures"
            )
        queue = EventQueue(VirtualClock(start_time))
        spec = self._spec
        crawl_period = 1.0 / spec.crawl_budget_per_day

        def crawl_step(at: float) -> None:
            process_next(self._update_module, at)
            queue.schedule(at + crawl_period, crawl_step, label="crawl")

        def ranking_step(at: float) -> None:
            refinement = self._ranking_module.refine(at)
            self._update_module.set_importance(refinement.importance)
            self._refresh_journal_records()
            queue.schedule(
                at + spec.ranking_interval_days, ranking_step, label="ranking"
            )

        def measure_step(at: float) -> None:
            tracker.sample(at)
            if spec.track_quality:
                self._sample_quality(result, at)
            queue.schedule(
                at + spec.measurement_interval_days, measure_step, label="measure"
            )

        queue.schedule(start_time, crawl_step, label="crawl")
        queue.schedule(start_time, ranking_step, label="ranking")
        queue.schedule(start_time, measure_step, label="measure")
        queue.run_until(end_time)


class ReferencePeriodicCrawler(PeriodicCrawler):
    """The periodic crawler with its BFS fetching one URL at a time."""

    def _run_one_cycle(
        self, cycle_start: float, end_time: float, result: PeriodicCrawlResult
    ) -> float:
        capacity = self._spec.collection_capacity
        per_fetch = 1.0 / self._spec.crawl_budget_per_day
        now = cycle_start
        queue = deque(self._seeds)
        seen: Set[str] = set(self._seeds)
        collected = 0
        while queue and collected < capacity and now < end_time:
            url = queue.popleft()
            fetch = self._fetcher.fetch(url, at=now)
            now += per_fetch
            if not fetch.ok:
                continue
            record = PageRecord(
                url=url,
                version=fetch.version,
                fetched_at=fetch.completed_at,
                first_fetched_at=fetch.completed_at,
                outlinks=tuple(fetch.outlinks),
            )
            shadow_full = len(self._collection.working_records()) >= capacity
            if self._collection.get_working(url) is None and not shadow_full:
                self._collection.store(record)
                collected += 1
            result.pages_crawled += 1
            for link in fetch.outlinks:
                if link not in seen:
                    seen.add(link)
                    queue.append(link)
        self._collection.complete_cycle(at=now)
        result.cycles_completed += 1
        return now
