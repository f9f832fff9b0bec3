"""UpdateModule: keep the collection fresh (the update decision).

Figure 12: "the UpdateModule maintains the Collection fresh (update
decision). It constantly extracts the top entry from CollUrls, requests the
CrawlModule to crawl the page, and puts the crawled URL back into CollUrls.
The position of the crawled URL within CollUrls is determined by the page's
estimated change frequency."

Change frequencies are estimated from checksum-comparison histories with
either the EP (Poisson) or EB (Bayesian class) estimator of Section 5.3, and
the revisit schedule is produced by a pluggable
:class:`~repro.freshness.policies.RevisitPolicy`, optionally weighted by
page importance (the paper notes that highly important pages may deserve
more frequent visits than their change rate alone would justify).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.registry import ESTIMATORS
from repro.core.collurls import CollUrls
from repro.core.crawl_module import BatchCrawlOutcome, CrawlModule, CrawlOutcome
from repro.estimation.change_history import ChangeHistory
from repro.estimation.rate_estimators import ChangeRateEstimator, build_rate_estimator
from repro.faults import (
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_RATE_LIMITED,
    STATUS_SOFT_404,
    STATUS_TIMEOUT,
    TRANSIENT_CODES,
    FailureTracker,
)
from repro.fetch.fetcher import STATUS_TO_CODE, FetchStatus
from repro.freshness.policies import RevisitPolicy, UniformRevisitPolicy

#: FetchStatus members that are *no observation* of the page (see
#: repro.faults.TRANSIENT_CODES): the fetch failed, the page may be fine.
_TRANSIENT_STATUSES = (
    FetchStatus.TIMEOUT,
    FetchStatus.SERVER_ERROR,
    FetchStatus.RATE_LIMITED,
    FetchStatus.SOFT_404,
)


@dataclass(frozen=True)
class UpdateModuleConfig:
    """Configuration of the UpdateModule.

    Attributes:
        crawl_budget_per_day: Total pages the crawler may fetch per day; the
            revisit policy spreads this budget over the collection.
        estimator: Name of a registered change-rate estimator — ``"ep"``
            (Poisson rate estimator) or ``"eb"`` (Bayesian frequency
            classes) out of the box; resolved through
            :data:`repro.api.registry.ESTIMATORS`.
        default_interval_days: Revisit interval assumed for a page before
            any change history exists.
        reallocation_interval_days: How often the revisit intervals are
            recomputed from the latest rate estimates.
        history_window_days: Trailing window of change history kept per page
            (the paper suggests roughly six months).
        use_importance: Whether the revisit policy may weight pages by their
            importance score.
    """

    crawl_budget_per_day: float = 1000.0
    estimator: str = "ep"
    default_interval_days: float = 7.0
    reallocation_interval_days: float = 1.0
    history_window_days: Optional[float] = 180.0
    use_importance: bool = False

    def __post_init__(self) -> None:
        if self.crawl_budget_per_day <= 0:
            raise ValueError("crawl_budget_per_day must be positive")
        ESTIMATORS.validate(self.estimator)
        if self.default_interval_days <= 0:
            raise ValueError("default_interval_days must be positive")
        if self.reallocation_interval_days <= 0:
            raise ValueError("reallocation_interval_days must be positive")


class UpdateModule:
    """Schedules revisits and maintains per-page change statistics.

    Args:
        collurls: The collection URL priority queue.
        crawl_module: The CrawlModule used to fetch pages.
        config: Module configuration.
        revisit_policy: Policy mapping estimated rates to revisit intervals;
            defaults to the uniform (fixed-frequency) policy.
        failure_tracker: Optional retry/circuit-breaker state for
            failure-aware crawling. ``None`` (the default) keeps every code
            path byte-identical to the fault-free engine.
    """

    def __init__(
        self,
        collurls: CollUrls,
        crawl_module: CrawlModule,
        config: UpdateModuleConfig,
        revisit_policy: Optional[RevisitPolicy] = None,
        failure_tracker: Optional[FailureTracker] = None,
    ) -> None:
        self._collurls = collurls
        self._crawl_module = crawl_module
        self._config = config
        self._policy = revisit_policy if revisit_policy is not None else UniformRevisitPolicy()
        self.failure_tracker = failure_tracker
        self._histories: Dict[str, ChangeHistory] = {}
        self._estimator: ChangeRateEstimator = build_rate_estimator(config.estimator)
        self._rate_estimates: Dict[str, float] = {}
        self._intervals: Dict[str, float] = {}
        self._importance: Dict[str, float] = {}
        self._last_reallocation: Optional[float] = None
        self._existence_cache: Optional[tuple] = None
        self.pages_processed = 0
        self.changes_detected = 0

    # ------------------------------------------------------------------ #
    # Main loop step
    # ------------------------------------------------------------------ #
    def process_next(self, at: float) -> Optional[CrawlOutcome]:
        """Pop the head of CollUrls, crawl it and reschedule it.

        Args:
            at: Current virtual time.

        Returns:
            The :class:`CrawlOutcome`, or ``None`` when CollUrls is empty.
        """
        head = self._collurls.pop()
        if head is None:
            return None
        url, _scheduled = head
        tracker = self.failure_tracker
        site: Optional[str] = None
        if tracker is not None:
            site = self._crawl_module.site_of(url)
            if tracker.quarantined(site, at):
                # Circuit breaker: the slot is spent but nothing is fetched;
                # the URL is deferred to the quarantine's probe time.
                self._collurls.schedule(url, tracker.defer(url, site, at))
                return None
        outcome = self._crawl_module.crawl(url, at)
        self.pages_processed += 1
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
                self._collurls.schedule(url, retry_at)
            else:
                # Retries exhausted: drop the page from the schedule (the
                # RankingModule will admit a replacement) but leave AllUrls
                # alone — the page was never observed to be gone.
                self._forget(url)
                self._crawl_module.discard(url)
            journal = self._crawl_module.journal
            if journal is not None:
                journal.on_outcome(outcome, self._crawl_module.collection)
            return outcome

        if not outcome.stored:
            # The page has disappeared (or is excluded): drop its statistics
            # and do not reschedule it; the RankingModule will admit a
            # replacement page on its next scan.
            self._forget(url)
            self._crawl_module.discard(url)
            journal = self._crawl_module.journal
            if journal is not None:
                journal.on_outcome(outcome, self._crawl_module.collection)
            return outcome

        if tracker is not None:
            tracker.on_success(url, site)
        self._observe(url, completed, outcome)
        self._maybe_reallocate(completed)
        next_visit = completed + self._interval_for(url)
        self._collurls.schedule(url, next_visit)
        journal = self._crawl_module.journal
        if journal is not None:
            journal.on_outcome(outcome, self._crawl_module.collection)
        return outcome

    # ------------------------------------------------------------------ #
    # Batched loop steps
    # ------------------------------------------------------------------ #
    def process_slots(self, slot_times: Sequence[float]) -> int:
        """Drain CollUrls through a whole window of crawl slots at once.

        Exactly equivalent to calling :meth:`process_next` once per slot
        time, in order — including the subtle cases: a page rescheduled
        early enough to be popped *again* within the same window, the head
        of the queue changing between slots, and a revisit-interval
        reallocation falling due mid-window.

        The trick is that the *queue dynamics* of a window are decidable
        without fetching anything: whether a fetch succeeds is an oracle
        existence test, and a successful fetch reschedules its page at
        ``completed + interval`` where the interval table is frozen between
        reallocations. So the window is driven in two phases. Phase one
        replays the pop/reschedule sequence against the real queue in bulk
        rounds — :meth:`~repro.core.collurls.CollUrls.pop_due` pops a run,
        a scan cuts it at the first entry that an earlier reschedule would
        overtake (ties go to the older sequence number), the tail is
        :meth:`~repro.core.collurls.CollUrls.restore`-d untouched, and the
        round's reschedules land through one
        :meth:`~repro.core.collurls.CollUrls.schedule_many` call, giving
        every entry the exact sequence number the per-event engine would
        have assigned. Phase two hands the accumulated ``(url, slot)``
        assignments — typically a whole tick window — to one
        :meth:`process_batch` call for the batched fetch/observe/estimate
        pipeline. Reallocation boundaries interrupt both phases: the
        triggering entry runs as a single-entry batch because the
        reallocation must see exactly the observations made before it and
        its reschedule uses the post-reallocation intervals.

        Args:
            slot_times: Virtual times of the crawl slots, ascending.

        Returns:
            Number of pages processed (slots with an empty queue are idle,
            exactly like ``process_next`` returning ``None``).
        """
        if self.failure_tracker is not None:
            # The failure-aware path is only needed when faults can actually
            # fire: without active status or latency models no transient
            # status and no breaker state can ever arise, so the plain (or
            # polite) engine is bit-identical — and pays nothing for the
            # armed tracker. This is what keeps a zero-rate fault layer
            # byte-for-byte equal to no fault layer at all.
            faults = self._crawl_module.fetcher.faults
            if faults is not None and (
                faults.has_status_models or faults.has_latency_models
            ):
                return self._process_slots_faulty(slot_times, self.failure_tracker)
        politeness = self._crawl_module.fetcher.politeness
        if politeness is not None:
            return self._process_slots_polite(slot_times, politeness)
        fetcher = self._crawl_module.fetcher
        latency = fetcher.latency_days
        web = fetcher.web
        horizon = web.horizon_days
        realloc_interval = self._config.reallocation_interval_days
        arrays = web.oracle_arrays()
        page_index = arrays.index
        # Plain lists: element access on NumPy arrays boxes a scalar per
        # read, which adds up over hundreds of thousands of slots. The
        # conversion is cached per OracleArrays instance (rebuilt with it
        # when the web mutates) instead of per tick window.
        cache = self._existence_cache
        if cache is None or cache[0] is not arrays:
            cache = (arrays, arrays.created.tolist(), arrays.deleted.tolist())
            self._existence_cache = cache
        created = cache[1]
        deleted = cache[2]

        pending_urls: List[str] = []
        pending_times: List[float] = []

        def flush() -> None:
            if pending_urls:
                self.process_batch(pending_urls, pending_times, reschedule=False)
                pending_urls.clear()
                pending_times.clear()

        default_interval = self._config.default_interval_days
        processed = 0
        slot_index = 0
        n_slots = len(slot_times)
        queue_empty = False
        while slot_index < n_slots and not queue_empty:
            last = self._last_reallocation
            # Re-read after every region: a reallocation rebinds the dict.
            intervals = self._intervals
            if last is None:
                boundary = slot_index
            else:
                # First slot whose completion would trigger a reallocation;
                # scanned once per reallocation region (linear overall).
                threshold = last + realloc_interval
                boundary = slot_index
                while (
                    boundary < n_slots
                    and min(slot_times[boundary] + latency, horizon) < threshold
                ):
                    boundary += 1
            if boundary == slot_index:
                # Reallocation due: flush the window so far (the trigger
                # must observe those visits' rate estimates), then process
                # the triggering entry on its own.
                flush()
                head = self._collurls.pop()
                if head is None:
                    break
                self.process_batch([head[0]], [slot_times[slot_index]])
                processed += 1
                slot_index += 1
                continue
            index_get = page_index.get
            intervals_get = intervals.get
            append_url = pending_urls.append
            append_time = pending_times.append
            pop_due = self._collurls.pop_due
            while slot_index < boundary:
                # Serve the head unconditionally (a crawl slot crawls the
                # earliest entry even when it is scheduled in the future),
                # then extend the run with pops bounded by the earliest
                # reschedule produced so far: an entry scheduled later than
                # that would be overtaken in the queue, ending the run.
                entries = pop_due(max_n=1)
                if not entries:
                    # Empty queue: every remaining slot is a no-op (only
                    # processing pushes entries back, and none is running).
                    queue_empty = True
                    break
                cut = 0
                earliest_reschedule = float("inf")
                reschedule_urls: List[str] = []
                reschedule_times: List[float] = []
                j = 0
                while True:
                    scheduled_time = entries[j][0]
                    if scheduled_time > earliest_reschedule:
                        # An earlier reschedule overtakes this entry (ties
                        # go to the older sequence number): end the run and
                        # put the tail back untouched.
                        self._collurls.restore(entries[j:])
                        break
                    url = entries[j][2]
                    slot_j = slot_times[slot_index + j]
                    page_id = index_get(url, -1)
                    snapshot_time = slot_j if slot_j < horizon else horizon
                    if (
                        page_id >= 0
                        and created[page_id] <= snapshot_time < deleted[page_id]
                    ):
                        # The fetch will succeed: its reschedule is frozen
                        # arithmetic. Failed fetches reschedule nothing, so
                        # they never tighten the run bound.
                        completed_j = slot_j + latency
                        if completed_j > horizon:
                            completed_j = horizon
                        interval = intervals_get(url)
                        if interval is None or interval <= 0:
                            interval = default_interval
                        next_visit = completed_j + interval
                        reschedule_urls.append(url)
                        reschedule_times.append(next_visit)
                        if next_visit < earliest_reschedule:
                            earliest_reschedule = next_visit
                    append_url(url)
                    append_time(slot_j)
                    cut = j = j + 1
                    if j == len(entries):
                        remaining = boundary - slot_index - j
                        if remaining <= 0:
                            break
                        more = pop_due(until=earliest_reschedule, max_n=remaining)
                        if not more:
                            break
                        entries.extend(more)
                self._collurls.schedule_many(reschedule_urls, reschedule_times)
                processed += cut
                slot_index += cut
        flush()
        return processed

    def _process_slots_faulty(
        self, slot_times: Sequence[float], tracker: FailureTracker
    ) -> int:
        """Failure-aware variant of :meth:`process_slots`.

        With a :class:`~repro.faults.FailureTracker` configured the queue
        dynamics depend on stateful per-fetch decisions (retry backoff,
        circuit breakers), but the *weather* does not: faults are pure
        functions of ``(url, site, slot_time, seed)`` and entry *j* of a
        popped run always takes slot *j* (a quarantined entry spends its
        slot too). So phase one works on popped runs like the plain and
        polite replays. Each round pops a speculative run with
        :meth:`~repro.core.collurls.CollUrls.pop_due`, resolves the whole
        run's fault codes in one :meth:`~repro.faults.FaultLayer.resolve`
        call (latency factors are time-only and resolve once per window),
        then walks the run with scalar tracker/breaker/retry logic over
        plain lists: each entry's status is predicted — success is an
        oracle existence test, so the prediction equals what the batched
        fetch will resolve — the tracker is mutated exactly once, and the
        reschedule (next visit, retry backoff or breaker probe) is
        committed immediately through ``schedule``, consuming CollUrls
        sequence numbers in exact fetch order. The walk tracks the earliest
        time committed so far and cuts the run at the first entry it would
        overtake (strict ``>``: ties go to the older sequence number); the
        untouched tail is :meth:`~repro.core.collurls.CollUrls.restore`-d
        and re-popped — against new slots, hence re-resolved — next round.
        The pop is sized from the previous round: twice its length when it
        was consumed whole, one more than it consumed when it was cut, so a
        queue whose reschedules land right behind its head (short rounds)
        never pays for a wide pop it will not use. Phase two still resolves
        the accumulated fetches through one :meth:`process_batch` call per
        region; the predicted statuses and retry decisions ride along so
        the tracker is never consulted twice.

        Reallocation boundaries match :meth:`process_next`: only a
        *successful* fetch can trigger one, the trigger restores the run's
        tail (the reallocation snapshots the whole queue) and flushes the
        pending batch first (it must see those observations), and the
        triggering entry runs as a single-entry batch so its reschedule
        uses the post-reallocation intervals.
        """
        fetcher = self._crawl_module.fetcher
        politeness = fetcher.politeness
        faults = fetcher.faults
        web = fetcher.web
        horizon = web.horizon_days
        realloc_interval = self._config.reallocation_interval_days
        arrays = web.oracle_arrays()
        index_get = arrays.index.get
        site_table = arrays.site_ids
        cache = self._existence_cache
        if cache is None or cache[0] is not arrays:
            cache = (arrays, arrays.created.tolist(), arrays.deleted.tolist())
            self._existence_cache = cache
        created = cache[1]
        deleted = cache[2]
        default_interval = self._config.default_interval_days
        use_starts = politeness is not None
        n_slots = len(slot_times)
        if faults.has_latency_models:
            latencies = (
                fetcher.latency_days * faults.latency_factors(slot_times)
            ).tolist()
        else:
            latencies = [fetcher.latency_days] * n_slots
        collurls = self._collurls
        schedule = collurls.schedule

        pending_urls: List[str] = []
        pending_times: List[float] = []
        pending_starts: List[float] = []
        pending_decisions: List[tuple] = []

        def flush() -> None:
            if pending_urls:
                self.process_batch(
                    pending_urls,
                    pending_times,
                    reschedule=False,
                    resolved_at=pending_starts if use_starts else None,
                    failure_decisions=pending_decisions,
                )
                pending_urls.clear()
                pending_times.clear()
                pending_starts.clear()
                pending_decisions.clear()

        processed = 0
        slot_index = 0
        speculate = 1
        while slot_index < n_slots:
            run = collurls.pop_due(max_n=min(speculate, n_slots - slot_index))
            if not run:
                # Empty queue: every remaining slot is a no-op.
                break
            base = slot_index
            urls = [entry[2] for entry in run]
            page_ids = [index_get(url, -1) for url in urls]
            sites = [site_table[p] if p >= 0 else None for p in page_ids]
            codes = hints = None
            earliest = float("inf")
            for j, entry in enumerate(run):
                if entry[0] > earliest:
                    # A reschedule committed this round overtakes the rest
                    # of the run: put the tail back untouched.
                    collurls.restore(run[j:])
                    break
                at = slot_times[slot_index]
                slot_latency = latencies[slot_index]
                slot_index += 1
                url = urls[j]
                page_id = page_ids[j]
                site = sites[j]
                if tracker.quarantined(site, at):
                    due = tracker.defer(url, site, at)
                    schedule(url, due)
                    if due < earliest:
                        earliest = due
                    continue
                if politeness is not None and site is not None:
                    start = politeness.earliest_allowed(site, at)
                    politeness.record_request(site, start)
                else:
                    start = at
                completed = start + slot_latency
                if completed > horizon:
                    completed = horizon
                if codes is None:
                    # One resolve for the whole run, deferred to the first
                    # entry that is fetched: a round of breaker skips (one
                    # quarantined URL spinning at the head of an otherwise
                    # idle queue) needs no weather at all.
                    code_array, hint_array = faults.resolve(
                        urls, sites, slot_times[base : base + len(run)]
                    )
                    codes = code_array.tolist()
                    hints = hint_array.tolist()
                # Unknown URLs never reach the fault models (fetch_many
                # masks them the same way).
                code = codes[j] if page_id >= 0 else STATUS_OK
                if STATUS_TIMEOUT <= code <= STATUS_RATE_LIMITED:
                    status = code
                else:
                    snapshot_time = start if start < horizon else horizon
                    alive = (
                        page_id >= 0
                        and created[page_id] <= snapshot_time < deleted[page_id]
                    )
                    if not alive:
                        status = STATUS_NOT_FOUND
                    elif code == STATUS_SOFT_404:
                        status = STATUS_SOFT_404
                    else:
                        status = STATUS_OK
                due = None
                if status == STATUS_OK:
                    tracker.on_success(url, site)
                    last = self._last_reallocation
                    if last is None or completed - last >= realloc_interval:
                        # Reallocation boundary (only successful fetches can
                        # trigger one, like process_next's early return).
                        collurls.restore(run[j + 1 :])
                        flush()
                        self.process_batch(
                            [url],
                            [at],
                            resolved_at=[start] if use_starts else None,
                            failure_decisions=[(STATUS_OK, None)],
                        )
                        processed += 1
                        break
                    interval = self._intervals.get(url)
                    if interval is None or interval <= 0:
                        interval = default_interval
                    due = completed + interval
                elif status != STATUS_NOT_FOUND:
                    due = tracker.on_failure(url, site, status, completed, hints[j])
                if due is not None:
                    schedule(url, due)
                    if due < earliest:
                        earliest = due
                pending_urls.append(url)
                pending_times.append(at)
                pending_starts.append(start)
                pending_decisions.append((status, due))
                processed += 1
            consumed = slot_index - base
            speculate = 2 * consumed if consumed == len(run) else consumed + 1
        flush()
        return processed

    def _process_slots_polite(self, slot_times: Sequence[float], politeness) -> int:
        """Politeness-aware variant of :meth:`process_slots`.

        Politeness shifts every fetch instant by per-site state, which
        breaks the plain engine's core shortcut: completion times are no
        longer monotone in pop order (a night-window snap can push one
        fetch days past its slot), so reallocation boundaries cannot be
        located by scanning slot times up front. Instead each round pops an
        optimistic candidate run, resolves the whole run's politeness in
        one batched peek (:meth:`PolitenessPolicy.earliest_allowed_many`,
        bit-identical to the sequential recurrence), predicts per-entry
        completions and reschedules with the frozen interval table, and
        cuts the run at the first entry that either

        * would be overtaken in the queue by an earlier reschedule of this
          round (ties go to the older sequence number, as in the plain
          engine), or
        * completes past the reallocation threshold — failed fetches never
          trigger a reallocation, matching :meth:`process_next`'s early
          return.

        The accepted prefix commits its politeness state
        (:meth:`PolitenessPolicy.record_requests`) and its reschedules, and
        joins the pending fetch batch with its resolved start instants; the
        tail is :meth:`~repro.core.collurls.CollUrls.restore`-d untouched
        and re-popped next round. A reallocation trigger flushes the
        pending batch and runs the triggering entry alone, exactly like the
        plain engine. Failed fetches still advance the per-site politeness
        state — the scalar fetch path records the request before it learns
        the page is gone.

        Like the plain engine, each round serves the queue head
        unconditionally and then extends with pops bounded by the earliest
        reschedule produced so far (``pop_due(until=...)``), so entries
        that an earlier reschedule would overtake are mostly never popped
        at all; the batched politeness peek runs once per extension chunk,
        not per entry.
        """
        fetcher = self._crawl_module.fetcher
        latency = fetcher.latency_days
        web = fetcher.web
        horizon = web.horizon_days
        realloc_interval = self._config.reallocation_interval_days
        arrays = web.oracle_arrays()
        page_index = arrays.index
        site_table = arrays.site_ids
        site_index_table = arrays.site_index
        site_names = arrays.site_names
        created = arrays.created
        deleted = arrays.deleted
        # Plain-list existence columns for the scalar single-entry path
        # (shared with the plain engine's cache; see process_slots).
        cache = self._existence_cache
        if cache is None or cache[0] is not arrays:
            cache = (arrays, arrays.created.tolist(), arrays.deleted.tolist())
            self._existence_cache = cache
        created_list = cache[1]
        deleted_list = cache[2]
        default_interval = self._config.default_interval_days

        pending_urls: List[str] = []
        pending_times: List[float] = []
        pending_starts: List[float] = []

        def flush() -> None:
            if pending_urls:
                self.process_batch(
                    pending_urls,
                    pending_times,
                    reschedule=False,
                    resolved_at=pending_starts,
                )
                pending_urls.clear()
                pending_times.clear()
                pending_starts.clear()

        processed = 0
        slot_index = 0
        n_slots = len(slot_times)
        while slot_index < n_slots:
            if self._last_reallocation is None:
                # The first stored completion reallocates, whatever it is:
                # single-step with the scalar politeness resolution until
                # the first region boundary exists.
                flush()
                head = self._collurls.pop()
                if head is None:
                    break
                url = head[0]
                at = slot_times[slot_index]
                page_id = page_index.get(url, -1)
                if page_id >= 0:
                    site_id = site_table[page_id]
                    start = politeness.earliest_allowed(site_id, at)
                    politeness.record_request(site_id, start)
                else:
                    start = at
                self.process_batch([url], [at], resolved_at=[start])
                processed += 1
                slot_index += 1
                continue
            # One round: serve the queue head unconditionally (a crawl slot
            # crawls the earliest entry even when scheduled in the future),
            # then extend with chunks bounded by the earliest reschedule.
            chunk = self._collurls.pop_due(max_n=1)
            if not chunk:
                # Empty queue: every remaining slot is a no-op.
                break
            earliest_reschedule = float("inf")
            intervals_get = self._intervals.get
            while chunk:
                m = len(chunk)
                if m == 1:
                    # Scalar fast path: every round starts with a
                    # single-entry head pop, and one entry has no
                    # intra-chunk politeness dependencies, so the scalar
                    # resolution (the identical float operations) applies
                    # directly and the NumPy fixed costs are skipped.
                    entry = chunk[0]
                    url = entry[2]
                    slot = slot_times[slot_index]
                    page_id = page_index.get(url, -1)
                    if page_id >= 0:
                        site_id = site_table[page_id]
                        start = politeness.earliest_allowed(site_id, slot)
                    else:
                        site_id = None
                        start = slot
                    if entry[0] > earliest_reschedule:
                        self._collurls.restore(chunk)
                        break
                    snapshot_time = start if start < horizon else horizon
                    ok_head = (
                        page_id >= 0
                        and created_list[page_id]
                        <= snapshot_time
                        < deleted_list[page_id]
                    )
                    completed_head = start + latency
                    if completed_head > horizon:
                        completed_head = horizon
                    if site_id is not None:
                        politeness.record_request(site_id, start)
                    if ok_head and not (
                        completed_head - self._last_reallocation < realloc_interval
                    ):
                        # Reallocation boundary.
                        flush()
                        self.process_batch([url], [slot], resolved_at=[start])
                        processed += 1
                        slot_index += 1
                        break
                    if ok_head:
                        interval = intervals_get(url)
                        if interval is None or interval <= 0:
                            interval = default_interval
                        next_visit_head = completed_head + interval
                        self._collurls.schedule(url, next_visit_head)
                        if next_visit_head < earliest_reschedule:
                            earliest_reschedule = next_visit_head
                    pending_urls.append(url)
                    pending_times.append(slot)
                    pending_starts.append(start)
                    processed += 1
                    slot_index += 1
                    remaining = n_slots - slot_index
                    if remaining <= 0:
                        break
                    chunk = self._collurls.pop_due(
                        until=earliest_reschedule, max_n=remaining
                    )
                    continue
                urls = [entry[2] for entry in chunk]
                ids_arr = np.fromiter(
                    (page_index.get(url, -1) for url in urls), dtype=np.int64, count=m
                )
                site_idx = np.where(
                    ids_arr >= 0, site_index_table[np.maximum(ids_arr, 0)], -1
                )
                slots = slot_times[slot_index : slot_index + m]
                starts = politeness.earliest_allowed_many_indexed(
                    site_idx, site_names, slots
                )
                snapshot_times = np.minimum(starts, horizon)
                ok = ids_arr >= 0
                known_pos = np.nonzero(ok)[0]
                if known_pos.size:
                    known_ids = ids_arr[known_pos]
                    known_snaps = snapshot_times[known_pos]
                    ok[known_pos] = (created[known_ids] <= known_snaps) & (
                        known_snaps < deleted[known_ids]
                    )
                completed = np.minimum(starts + latency, horizon)
                # Predicted reschedules under the frozen intervals; failed
                # fetches reschedule nothing and never trigger anything.
                ok_list = ok.tolist()
                completed_list = completed.tolist()
                next_visit = np.full(m, np.inf)
                for j, ok_j in enumerate(ok_list):
                    if ok_j:
                        interval = intervals_get(urls[j])
                        if interval is None or interval <= 0:
                            interval = default_interval
                        next_visit[j] = completed_list[j] + interval
                trigger = ok & (
                    (completed - self._last_reallocation) >= realloc_interval
                )
                # An entry is still the next pop only if no reschedule
                # produced before it (in this round) lands earlier; ties go
                # to the older sequence number, hence the strict >.
                bound = np.empty(m)
                bound[0] = earliest_reschedule
                if m > 1:
                    np.minimum.accumulate(
                        np.minimum(next_visit[:-1], earliest_reschedule),
                        out=bound[1:],
                    )
                scheduled = np.fromiter(
                    (entry[0] for entry in chunk), dtype=float, count=m
                )
                overtake = scheduled > bound
                cut_overtake = int(np.argmax(overtake)) if overtake.any() else m
                cut_realloc = int(np.argmax(trigger)) if trigger.any() else m
                cut = cut_overtake if cut_overtake < cut_realloc else cut_realloc
                if cut > 0:
                    politeness.record_requests_indexed(site_idx[:cut], starts[:cut])
                    reschedule_urls = [
                        url for url, ok_j in zip(urls[:cut], ok_list[:cut]) if ok_j
                    ]
                    reschedule_times = [
                        t
                        for t, ok_j in zip(next_visit[:cut].tolist(), ok_list[:cut])
                        if ok_j
                    ]
                    self._collurls.schedule_many(reschedule_urls, reschedule_times)
                    pending_urls.extend(urls[:cut])
                    pending_times.extend(slots[:cut])
                    pending_starts.extend(starts[:cut].tolist())
                    processed += cut
                    slot_index += cut
                    if reschedule_times:
                        chunk_min = min(reschedule_times)
                        if chunk_min < earliest_reschedule:
                            earliest_reschedule = chunk_min
                if cut < m:
                    if cut_overtake <= cut_realloc:
                        # Overtaken: the queue head changed; end the round
                        # and re-pop. An entry both overtaken and past the
                        # reallocation threshold is not actually the next
                        # pop, so overtake wins the tie.
                        self._collurls.restore(chunk[cut:])
                        break
                    # Reallocation boundary at entry `cut`: everything
                    # observed so far must fold into the estimates first,
                    # the rest of the chunk must be back in the queue when
                    # the reallocation snapshots it, and the triggering
                    # entry runs as a single-entry batch so its reschedule
                    # uses the post-reallocation intervals.
                    politeness.record_requests_indexed(
                        site_idx[cut : cut + 1], starts[cut : cut + 1]
                    )
                    self._collurls.restore(chunk[cut + 1 :])
                    flush()
                    self.process_batch(
                        [urls[cut]], [slots[cut]], resolved_at=[float(starts[cut])]
                    )
                    processed += 1
                    slot_index += 1
                    break
                remaining = n_slots - slot_index
                if remaining <= 0:
                    break
                chunk = self._collurls.pop_due(
                    until=earliest_reschedule, max_n=remaining
                )
        flush()
        return processed

    def process_batch(
        self,
        urls: Sequence[str],
        times: Sequence[float],
        reschedule: bool = True,
        resolved_at: Optional[Sequence[float]] = None,
        failure_decisions: Optional[Sequence[tuple]] = None,
    ) -> BatchCrawlOutcome:
        """Crawl a batch of URLs and fold the outcomes into the statistics.

        The batched counterpart of :meth:`process_next` minus the queue
        pop: fetches resolve through one
        :meth:`~repro.core.crawl_module.CrawlModule.crawl_many` call
        (batched oracle + vectorized change detection), change histories
        are appended in bulk, and rates are re-estimated through the
        estimator's
        :meth:`~repro.estimation.rate_estimators.ChangeRateEstimator.update_batch`.

        A URL may appear several times in one batch (a hot page revisited
        within a tick window); occurrences are folded in order. Estimator
        updates are chunked at URL repeats so strategies that consume one
        observation per call (EB) see each observation exactly once, in
        visit order. Callers must ensure batches do not straddle a
        reallocation boundary (see :meth:`process_slots`).

        Args:
            urls: URLs popped from CollUrls, in pop order.
            times: The crawl slot time of each URL.
            reschedule: Push each stored page's next visit back into
                CollUrls. :meth:`process_slots` passes ``False`` because it
                already replayed the reschedules while simulating the queue.
            resolved_at: Optional politeness-resolved start instant per URL
                (already recorded against the policy state), forwarded to
                the fetch layer.
            failure_decisions: Per-URL frozen ``(status, due)`` decisions
                from :meth:`_process_slots_faulty`: the predicted integer
                status code and the time the URL was rescheduled at
                (``None`` when it was not — the page is gone or its
                retries are exhausted). When given, the failure tracker
                has already been mutated (once per fetch, in fetch order)
                and is not consulted again here; when ``None`` with a
                tracker configured, the tracker is consulted inline per
                entry.

        Returns:
            The :class:`BatchCrawlOutcome` from the CrawlModule.
        """
        outcome = self._crawl_module.crawl_many(urls, times, resolved_at=resolved_at)
        self.pages_processed += len(urls)
        stored = outcome.stored
        changed = outcome.changed
        was_new = outcome.was_new
        completed = outcome.completed_at.tolist()

        chunk_urls: List[str] = []
        chunk_histories: List[ChangeHistory] = []
        chunk_members: set = set()
        reschedule_urls: List[str] = []
        reschedule_completed: List[float] = []
        first_completed: Optional[float] = None

        def flush_estimates() -> None:
            if not chunk_urls:
                return
            rates = self._estimator.update_batch(chunk_urls, chunk_histories)
            rate_estimates = self._rate_estimates
            for chunk_url, rate in zip(chunk_urls, rates):
                rate_estimates[chunk_url] = rate
            chunk_urls.clear()
            chunk_histories.clear()
            chunk_members.clear()

        histories = self._histories
        window_days = self._config.history_window_days
        tracker = self.failure_tracker
        if tracker is not None and failure_decisions is None:
            faults = self._crawl_module.fetcher.faults
            if faults is None or not (
                faults.has_status_models or faults.has_latency_models
            ):
                # No active fault weather: transient statuses cannot arise
                # and the tracker holds no per-site state, so the per-page
                # on_success/on_failure consults are guaranteed no-ops.
                tracker = None
        statuses = outcome.statuses
        retry_after = outcome.retry_after
        for i, (url, stored_i, changed_i, was_new_i, completed_i) in enumerate(
            zip(outcome.urls, stored, changed, was_new, completed)
        ):
            if not stored_i:
                transient = statuses is not None and statuses[i] in TRANSIENT_CODES
                if failure_decisions is not None:
                    retry = failure_decisions[i][1] is not None
                elif tracker is not None and transient:
                    # Inline tracker consult (direct process_batch callers):
                    # same decision the failure-aware engine would freeze.
                    retry_at = tracker.on_failure(
                        url,
                        self._crawl_module.site_of(url),
                        statuses[i],
                        completed_i,
                        0.0 if retry_after is None else retry_after[i],
                    )
                    retry = retry_at is not None
                    if retry and reschedule:
                        self._collurls.schedule(url, retry_at)
                else:
                    retry = False
                if retry:
                    # Transient failure with a retry scheduled: no
                    # observation was made, so the page's statistics and
                    # queue entry survive untouched. Terminal transient
                    # drops fall through to the forget path below.
                    continue
                # The page has disappeared (or is excluded), or its retries
                # are exhausted: drop its statistics and do not reschedule
                # it; the RankingModule will admit a replacement page on its
                # next scan. If an earlier visit of this page is awaiting
                # its estimator update, fold it first — its rate is set and
                # then forgotten, exactly as the per-URL order would have it.
                if url in chunk_members:
                    flush_estimates()
                self._forget(url)
                self._crawl_module.discard(url)
                continue
            if tracker is not None and failure_decisions is None:
                tracker.on_success(url, self._crawl_module.site_of(url))
            if first_completed is None:
                first_completed = completed_i
            if reschedule:
                reschedule_urls.append(url)
                reschedule_completed.append(completed_i)
            history = histories.get(url)
            if history is None or was_new_i:
                histories[url] = ChangeHistory(
                    first_visit=completed_i,
                    window_days=window_days,
                )
                self._estimator.reset_page(url)
                continue
            if url in chunk_members:
                # Second visit of the same page within the batch: the
                # estimator must fold the first observation before the
                # next one is recorded.
                flush_estimates()
            history.record_visit(completed_i, changed_i)
            if changed_i:
                self.changes_detected += 1
            chunk_urls.append(url)
            chunk_histories.append(history)
            chunk_members.add(url)

        flush_estimates()
        if first_completed is not None:
            self._maybe_reallocate(first_completed)
        if reschedule_urls:
            self._collurls.schedule_many(
                reschedule_urls,
                [
                    completed_i + self._interval_for(url)
                    for url, completed_i in zip(reschedule_urls, reschedule_completed)
                ],
            )
        journal = self._crawl_module.journal
        if journal is not None:
            journal.on_batch(outcome, self._crawl_module.collection)
        return outcome

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def estimated_rate(self, url: str) -> Optional[float]:
        """Latest change-rate estimate for ``url`` (changes/day)."""
        return self._rate_estimates.get(url)

    def estimated_rates(self) -> Dict[str, float]:
        """All current change-rate estimates."""
        return dict(self._rate_estimates)

    def set_importance(self, importance: Dict[str, float]) -> None:
        """Receive the latest importance scores from the RankingModule."""
        self._importance = dict(importance)

    def forget(self, url: str) -> None:
        """Drop all statistics for a page removed from the collection."""
        self._forget(url)

    def history(self, url: str) -> Optional[ChangeHistory]:
        """The change history of ``url`` (``None`` before its first visit)."""
        return self._histories.get(url)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _observe(self, url: str, at: float, outcome: CrawlOutcome) -> None:
        history = self._histories.get(url)
        if history is None or outcome.was_new:
            self._histories[url] = ChangeHistory(
                first_visit=at, window_days=self._config.history_window_days
            )
            self._estimator.reset_page(url)
            return
        history.record_visit(at, outcome.changed)
        if outcome.changed:
            self.changes_detected += 1
        self._rate_estimates[url] = self._estimator.update(url, history)

    def _maybe_reallocate(self, at: float) -> None:
        if (
            self._last_reallocation is not None
            and at - self._last_reallocation < self._config.reallocation_interval_days
        ):
            return
        self._last_reallocation = at
        # Queue order, not dict-insertion order: the allocation below sums
        # the rates, and float summation order matters at the ulp level.
        # Dict-insertion order depends on the operational path (the batched
        # engine's pop/restore round trips move entries to the dict end),
        # while (time, sequence) queue order is a pure function of the
        # queue contents both engines agree on bit-for-bit.
        urls = self._collurls.urls_in_queue_order() + list(
            self._rate_estimates.keys()
        )
        urls = list(dict.fromkeys(urls))
        if not urls:
            return
        # Scheduling rates with priors for unknown pages: a page with no
        # history yet is assumed to change about once per default revisit
        # interval; a page never seen to change gets a small floor rate
        # rather than exactly zero, so the optimal allocation keeps
        # re-checking it occasionally and the estimator can recover from an
        # initial "this page never changes" conclusion. Built inline — the
        # dict spans the whole collection at every reallocation.
        estimates = self._rate_estimates
        default_rate = 1.0 / self._config.default_interval_days
        floor_rate = 0.5 / (self._config.history_window_days or 180.0)
        rates = {}
        for url in urls:
            estimate = estimates.get(url)
            if estimate is None:
                rates[url] = default_rate
            else:
                rates[url] = estimate if estimate > floor_rate else floor_rate
        importance = self._importance if self._config.use_importance else None
        self._intervals = self._policy.intervals(
            rates, self._config.crawl_budget_per_day, importance
        )

    def _interval_for(self, url: str) -> float:
        interval = self._intervals.get(url)
        if interval is None or interval <= 0:
            return self._config.default_interval_days
        return interval

    def _forget(self, url: str) -> None:
        self._histories.pop(url, None)
        self._estimator.forget(url)
        self._rate_estimates.pop(url, None)
        self._intervals.pop(url, None)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-serializable module state.

        Dict key order is semantic and survives the JSON round trip (both
        ``json.dumps`` and ``json.loads`` preserve object member order):
        ``rate_estimates`` insertion order feeds :meth:`_maybe_reallocate`'s
        float reductions, which are ulp-sensitive to summation order.
        """
        state = {
            "histories": {
                url: history.state_dict()
                for url, history in self._histories.items()
            },
            "rate_estimates": dict(self._rate_estimates),
            "intervals": dict(self._intervals),
            "importance": dict(self._importance),
            "last_reallocation": self._last_reallocation,
            "estimator": self._estimator.state_dict(),
            "pages_processed": self.pages_processed,
            "changes_detected": self.changes_detected,
        }
        if self.failure_tracker is not None:
            # Key present only for failure-aware runs: fault-free snapshots
            # stay byte-identical to the pre-fault format.
            state["failures"] = self.failure_tracker.snapshot()
        return state

    @classmethod
    def merge_snapshots(cls, snapshots: Sequence[dict]) -> dict:
        """Combine per-shard :meth:`snapshot` payloads into one document.

        Shards own disjoint URL universes (site-affine partitioning), so
        the URL-keyed tables union without collisions; the union iterates
        ``snapshots`` in order, which makes the merged document a pure
        function of the (deterministically ordered) shard results. The
        module-level counters sum. Per-estimator internals are *not*
        blended into one estimator state — each shard's estimator observed
        only its own pages, so blending would fabricate a history no
        crawler ever had; instead the merged document keeps every shard's
        estimator state verbatim under ``"shards"`` and the scalar tables
        a consumer actually reads (rates, intervals, importance) merged.

        A single-shard merge returns that snapshot unchanged — this is
        what makes ``shards=1`` bit-identical to the unsharded engine.
        """
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("merge_snapshots needs at least one snapshot")
        if len(snapshots) == 1:
            return snapshots[0]
        merged = {
            "histories": {},
            "rate_estimates": {},
            "intervals": {},
            "importance": {},
            "last_reallocation": None,
            "estimator": None,
            "pages_processed": 0,
            "changes_detected": 0,
            "shards": [],
        }
        for snapshot in snapshots:
            for table in ("histories", "rate_estimates", "intervals"):
                for url, value in snapshot[table].items():
                    if url in merged[table]:
                        raise ValueError(
                            f"URL {url!r} appears in more than one shard "
                            "snapshot; shard universes must be disjoint"
                        )
                    merged[table][url] = value
            # Importance is *derived* data — the ranking scan scores every
            # link-graph node, including foreign-site link targets a shard
            # discovered but never crawled, so scores for a foreign root can
            # legitimately appear in several shards. First shard wins
            # (shard-index order), which keeps the merge deterministic; the
            # crawled-page tables above stay strictly disjoint.
            for url, value in snapshot["importance"].items():
                merged["importance"].setdefault(url, value)
            last = snapshot["last_reallocation"]
            if last is not None and (
                merged["last_reallocation"] is None
                or last > merged["last_reallocation"]
            ):
                merged["last_reallocation"] = last
            merged["pages_processed"] += int(snapshot["pages_processed"])
            merged["changes_detected"] += int(snapshot["changes_detected"])
            merged["shards"].append(snapshot["estimator"])
        failure_states = [s["failures"] for s in snapshots if "failures" in s]
        if failure_states:
            merged["failures"] = FailureTracker.merge_snapshots(failure_states)
        return merged

    def restore_snapshot(self, state: dict) -> None:
        """Rebuild module state exactly as captured by :meth:`snapshot`."""
        self._histories = {
            str(url): ChangeHistory.from_state(history_state)
            for url, history_state in state["histories"].items()
        }
        self._rate_estimates = {
            str(url): float(rate) for url, rate in state["rate_estimates"].items()
        }
        self._intervals = {
            str(url): float(interval)
            for url, interval in state["intervals"].items()
        }
        self._importance = {
            str(url): float(score) for url, score in state["importance"].items()
        }
        last = state["last_reallocation"]
        self._last_reallocation = None if last is None else float(last)
        self._estimator.load_state(state["estimator"])
        # Rebuildable cache over the web's oracle arrays; drop it so the
        # restored module lazily rebinds to the current web.
        self._existence_cache = None
        self.pages_processed = int(state["pages_processed"])
        self.changes_detected = int(state["changes_detected"])
        if self.failure_tracker is not None and "failures" in state:
            self.failure_tracker.restore_snapshot(state["failures"])
