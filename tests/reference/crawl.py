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

Every stage of that loop is here in its per-URL form, as a function of the
product object it works on: :func:`pop` and :func:`schedule` on
``CollUrls``, :func:`fetch` on a ``SimulatedFetcher`` (through the scalar
page oracle of :mod:`reference.oracle`), :func:`crawl` on a
``CrawlModule`` and :func:`refreshed` on a ``PageRecord``. The product
runs only their batched forms (``pop_due``/``schedule_many``,
``fetch_many``, ``crawl_many``), which the tests hold equal to these.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Set, Tuple

from repro.core.collurls import CollUrls
from repro.core.crawl_module import CrawlModule
from repro.core.incremental_crawler import CrawlRunResult, IncrementalCrawler
from repro.core.periodic_crawler import PeriodicCrawler, PeriodicCrawlResult
from repro.core.update_module import HISTORY_WINDOW_DAYS, UpdateModule
from repro.estimation.change_history import ChangeHistory
from repro.faults import STATUS_OK, STATUS_RATE_LIMITED, STATUS_SOFT_404, STATUS_TIMEOUT
from repro.fetch.fetcher import SimulatedFetcher
from repro.simulation.freshness_tracker import FreshnessTracker
from repro.storage.records import PageRecord

from reference.events import EventQueue, VirtualClock
from reference.oracle import snapshot


class FetchStatus(enum.Enum):
    """Outcome of a per-URL fetch; member ``k`` has wire code ``k``
    (``repro.faults.STATUS_*``).

    ``OK``/``NOT_FOUND`` are the fair-weather outcomes; the rest but
    ``EXCLUDED`` are injected by a ``FaultLayer`` and are *transient* —
    they say nothing about whether the page exists. ``EXCLUDED`` is never
    produced; it keeps its code so every code keeps its meaning.
    """

    OK = "ok"
    NOT_FOUND = "not_found"
    EXCLUDED = "excluded"
    TIMEOUT = "timeout"
    SERVER_ERROR = "server_error"
    RATE_LIMITED = "rate_limited"
    SOFT_404 = "soft_404"


#: FetchStatus member per integer wire code.
CODE_TO_STATUS = tuple(FetchStatus)

#: Integer wire code per FetchStatus member.
STATUS_TO_CODE = {status: code for code, status in enumerate(CODE_TO_STATUS)}

#: FetchStatus members that are *no observation* of the page (see
#: repro.faults.TRANSIENT_CODES): the fetch failed, the page may be fine.
_TRANSIENT_STATUSES = (
    FetchStatus.TIMEOUT,
    FetchStatus.SERVER_ERROR,
    FetchStatus.RATE_LIMITED,
    FetchStatus.SOFT_404,
)

#: Permanent verdicts on the URL itself: only these reach
#: ``AllUrls.record_failure``.
_TERMINAL_STATUSES = (FetchStatus.NOT_FOUND, FetchStatus.EXCLUDED)


@dataclass(frozen=True)
class FetchResult:
    """Result of fetching one URL.

    Attributes:
        url: The requested URL.
        status: Outcome of the fetch.
        requested_at: Virtual time the fetch was requested.
        completed_at: Virtual time the fetch completed (after politeness
            delays and transfer latency).
        outlinks: URLs extracted from the page (empty for non-OK fetches).
        version: Content version at the politeness-delayed fetch instant
            (0 for non-OK fetches).
        retry_after: Server-suggested retry delay in virtual days
            (``RATE_LIMITED`` fetches only; 0 elsewhere).
    """

    url: str
    status: FetchStatus
    requested_at: float
    completed_at: float
    outlinks: Sequence[str] = ()
    version: int = 0
    retry_after: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the page was fetched successfully."""
        return self.status is FetchStatus.OK


@dataclass(frozen=True)
class CrawlOutcome:
    """What happened when the CrawlModule processed one URL.

    Attributes:
        url: The crawled URL.
        fetch: The raw fetch result.
        stored: Whether a copy was stored (False for missing pages).
        changed: For a re-fetch of a stored page, whether the version
            differed from the stored copy's; always True for first fetches.
        was_new: Whether the page was not previously in the working
            collection.
        completed_at: Virtual time the crawl completed.
    """

    url: str
    fetch: FetchResult
    stored: bool
    changed: bool
    was_new: bool
    completed_at: float


# --------------------------------------------------------------------- #
# CollUrls, one entry at a time
# --------------------------------------------------------------------- #
def schedule(collurls: CollUrls, url: str, visit_time: float) -> None:
    """Insert ``url`` with the given visit time (rescheduling if present):
    ``CollUrls.schedule_many`` on one pair."""
    entry = (visit_time, collurls._counter, url)
    collurls._counter += 1
    collurls._scheduled[url] = entry
    heapq.heappush(collurls._heap, entry)


def pop(collurls: CollUrls) -> Optional[Tuple[str, float]]:
    """Remove and return ``(url, scheduled_time)`` of the earliest entry,
    ``None`` when the queue is empty: ``CollUrls.pop_due(max_n=1)``."""
    while collurls._heap:
        entry = heapq.heappop(collurls._heap)
        url = entry[2]
        if collurls._scheduled.get(url) is not entry:
            continue
        del collurls._scheduled[url]
        return url, entry[0]
    return None


# --------------------------------------------------------------------- #
# One fetch, one crawl
# --------------------------------------------------------------------- #
def site_of(fetcher: SimulatedFetcher, url: str) -> Optional[str]:
    """The owning site id of ``url`` (``None`` if the web doesn't know it)."""
    web = fetcher.web
    return web.page(url).site_id if url in web else None


def fetch(fetcher: SimulatedFetcher, url: str, at: float) -> FetchResult:
    """Fetch ``url`` at virtual time ``at``: ``fetch_many`` on one URL.

    Politeness runs the scalar recurrence; faults are a function of the
    *request* time and resolve through the fault layer's batch on one URL.
    """
    web = fetcher.web
    politeness = fetcher.politeness
    faults = fetcher.faults
    site_id = site_of(fetcher, url)
    start = at
    if politeness is not None and site_id is not None:
        start = politeness.earliest_allowed(site_id, at)
        politeness.record_request(site_id, start)
    latency = fetcher.latency_days
    code = STATUS_OK
    retry_after = 0.0
    if faults is not None:
        if faults.has_latency_models:
            latency = latency * float(faults.latency_factors([at])[0])
        if site_id is not None and faults.has_status_models:
            codes, hints = faults.resolve([url], [site_id], [at])
            code, retry_after = int(codes[0]), float(hints[0])
    completed = min(start + latency, web.horizon_days)
    fetcher.fetch_count += 1
    if STATUS_TIMEOUT <= code <= STATUS_RATE_LIMITED:
        # Hard transient fault: the fetch never reached the page.
        return FetchResult(
            url=url,
            status=CODE_TO_STATUS[code],
            requested_at=at,
            completed_at=completed,
            retry_after=retry_after,
        )
    seen = snapshot(web, url, min(start, web.horizon_days))
    if seen is None:
        return FetchResult(
            url=url, status=FetchStatus.NOT_FOUND, requested_at=at, completed_at=completed
        )
    if code == STATUS_SOFT_404:
        # The page is alive but served an error body.
        return FetchResult(
            url=url, status=FetchStatus.SOFT_404, requested_at=at, completed_at=completed
        )
    return FetchResult(
        url=url,
        status=FetchStatus.OK,
        requested_at=at,
        completed_at=completed,
        outlinks=tuple(seen.outlinks),
        version=seen.version,
    )


def refreshed(
    record: PageRecord, version: int, fetched_at: float, outlinks: Sequence[str]
) -> PageRecord:
    """A new record reflecting a re-fetch of ``record``'s page; the change
    counter moves when the version differs from the stored one."""
    if fetched_at < record.fetched_at:
        raise ValueError("re-fetch time cannot precede the previous fetch")
    return replace(
        record,
        version=version,
        fetched_at=fetched_at,
        outlinks=tuple(outlinks),
        visit_count=record.visit_count + 1,
        change_count=record.change_count + (version != record.version),
    )


def crawl(crawl_module: CrawlModule, url: str, at: float) -> CrawlOutcome:
    """Fetch ``url`` at virtual time ``at``, store it and forward its links:
    ``CrawlModule.crawl_many`` on one URL."""
    result = fetch(crawl_module.fetcher, url, at)
    collection = crawl_module.collection
    if not result.ok:
        crawl_module.pages_failed += 1
        if result.status in _TERMINAL_STATUSES:
            crawl_module._allurls.record_failure(url, at)
        return CrawlOutcome(
            url=url,
            fetch=result,
            stored=False,
            changed=False,
            was_new=collection.get_working(url) is None,
            completed_at=result.completed_at,
        )

    crawl_module.pages_fetched += 1
    crawl_module._forward_links(url, result.outlinks, result.completed_at)
    existing = collection.get_working(url)
    if existing is None:
        collection.store(
            PageRecord(
                url=url,
                version=result.version,
                fetched_at=result.completed_at,
                first_fetched_at=result.completed_at,
                outlinks=tuple(result.outlinks),
            )
        )
        changed = was_new = True
    else:
        changed = existing.version != result.version
        was_new = False
        collection.store(
            refreshed(existing, result.version, result.completed_at, result.outlinks)
        )
    return CrawlOutcome(
        url=url,
        fetch=result,
        stored=True,
        changed=changed,
        was_new=was_new,
        completed_at=result.completed_at,
    )


# --------------------------------------------------------------------- #
# The per-URL loops
# --------------------------------------------------------------------- #
def process_next(update: UpdateModule, at: float) -> Optional[CrawlOutcome]:
    """Pop the head of CollUrls, crawl it and reschedule it.

    ``UpdateModule.process_slots`` over one slot time, one URL at a time.

    Returns:
        The :class:`CrawlOutcome`, or ``None`` when CollUrls is empty or
        the slot was spent on a quarantined site.
    """
    collurls = update._collurls
    crawl_module = update._crawl_module
    head = pop(collurls)
    if head is None:
        return None
    url, _scheduled = head
    tracker = update.failure_tracker
    site: Optional[str] = None
    if tracker is not None:
        site = site_of(crawl_module.fetcher, url)
        if tracker.quarantined(site, at):
            # Circuit breaker: the slot is spent but nothing is fetched;
            # the URL is deferred to the quarantine's probe time.
            schedule(collurls, url, tracker.defer(url, site, at))
            return None
    outcome = crawl(crawl_module, url, at)
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
            schedule(collurls, url, retry_at)
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
        schedule(collurls, url, completed + update._interval_for(url))
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
            fetched = fetch(self._fetcher, url, now)
            now += per_fetch
            if not fetched.ok:
                continue
            record = PageRecord(
                url=url,
                version=fetched.version,
                fetched_at=fetched.completed_at,
                first_fetched_at=fetched.completed_at,
                outlinks=tuple(fetched.outlinks),
            )
            shadow_full = len(self._collection.working_records()) >= capacity
            if self._collection.get_working(url) is None and not shadow_full:
                self._collection.store(record)
                collected += 1
            result.pages_crawled += 1
            for link in fetched.outlinks:
                if link not in seen:
                    seen.add(link)
                    queue.append(link)
        self._collection.complete_cycle(at=now)
        result.cycles_completed += 1
        return now
