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

from typing import Dict, List, Optional, Sequence

from repro.api.specs import CrawlerSpec, PolicySpec
from repro.core.collurls import CollUrls
from repro.core.crawl_module import BatchCrawlOutcome, CrawlModule
from repro.estimation.change_history import (
    ChangeHistory,
    histories_from_columns,
    histories_to_columns,
)
from repro.estimation.rate_estimators import ChangeRateEstimator, build_rate_estimator
from repro.faults import (
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_RATE_LIMITED,
    STATUS_SOFT_404,
    STATUS_TIMEOUT,
    FailureTracker,
)
from repro.storage.checkpoint import pack_floats, pack_urls, unpack_floats, unpack_urls


#: Trailing window of change history kept per page (the paper suggests
#: roughly six months).
HISTORY_WINDOW_DAYS = 180.0


class UpdateModule:
    """Schedules revisits and maintains per-page change statistics.

    Args:
        collurls: The collection URL priority queue.
        crawl_module: The CrawlModule used to fetch pages.
        crawler: Supplies the crawl budget the revisit policy spreads over
            the collection, the interval assumed for a page without change
            history, and the reallocation cadence.
        policy: Supplies the revisit policy mapping estimated rates to
            revisit intervals, the change-rate estimator, and whether the
            policy may weight pages by importance.
        failure_tracker: Optional retry/circuit-breaker state for
            failure-aware crawling. ``None`` (the default) keeps every code
            path byte-identical to the fault-free engine.
    """

    def __init__(
        self,
        collurls: CollUrls,
        crawl_module: CrawlModule,
        crawler: CrawlerSpec,
        policy: PolicySpec,
        failure_tracker: Optional[FailureTracker] = None,
    ) -> None:
        self._collurls = collurls
        self._crawl_module = crawl_module
        self._crawl_budget_per_day = crawler.crawl_budget_per_day
        self._default_interval_days = crawler.default_revisit_interval_days
        self._reallocation_interval_days = crawler.reallocation_interval_days
        self._use_importance = policy.use_importance
        self._policy = policy.build_revisit_policy()
        self.failure_tracker = failure_tracker
        self._histories: Dict[str, ChangeHistory] = {}
        self._estimator: ChangeRateEstimator = build_rate_estimator(policy.estimator)
        self._rate_estimates: Dict[str, float] = {}
        self._intervals: Dict[str, float] = {}
        self._importance: Dict[str, float] = {}
        self._last_reallocation: Optional[float] = None
        self._existence_cache: Optional[tuple] = None
        self.pages_processed = 0
        self.changes_detected = 0

    # ------------------------------------------------------------------ #
    # Batched loop steps
    # ------------------------------------------------------------------ #
    def process_slots(self, slot_times: Sequence[float]) -> int:
        """Drain CollUrls through a whole window of crawl slots at once.

        Exactly equivalent to popping, crawling and rescheduling one URL per
        slot time, in order (the per-URL step the test oracle
        ``tests/reference/crawl.py`` keeps) — including the subtle cases: a
        page rescheduled early enough to be popped *again* within the same
        window, the head of the queue changing between slots, a
        revisit-interval reallocation falling due mid-window, and, with a
        failure tracker, retries and breaker probes landing inside the
        window. This is the only replay the crawl loop runs: politeness,
        the fault layer and the failure tracker are optional concerns of
        one walk, each skipped when it is ``None``.

        The *queue dynamics* of a window are decidable without fetching
        anything. Whether a fetch succeeds is an oracle existence test at
        its start instant; fault weather is a pure function of ``(url,
        site, slot_time, seed)``; entry *j* of a popped run always takes
        slot *j* (a quarantined entry spends its slot too); and a
        successful fetch reschedules its page at ``completed + interval``
        where the interval table is frozen between reallocations. So each
        round

        1. **pops a run** with :meth:`~repro.core.collurls.CollUrls.pop_due`
           — sized from the previous round: twice its length when it was
           consumed whole, one more than it consumed when it was cut, so a
           queue whose reschedules land right behind its head (short
           rounds) never pays for a wide pop it will not use;
        2. **resolves start instants** entry by entry with the scalar
           politeness recurrence (``earliest_allowed`` + ``record_request``
           — the state of a site depends on the previous fetch of that
           site, and runs are too short for bulk passes to pay). Failed
           fetches advance that state too: the request is recorded before
           the crawler learns the page is gone;
        3. **resolves the weather** of the whole run in one
           :meth:`~repro.faults.FaultLayer.resolve` call, deferred to the
           first entry that is actually fetched (latency factors are
           time-only and resolve once per window);
        4. **walks the run**, predicting each entry's status — the same
           one the batched fetch will resolve — mutating the tracker
           exactly once per entry, and collecting the entry's reschedule
           (next visit, retry backoff or breaker probe). The walk tracks
           the earliest time rescheduled so far and cuts the run at the
           first entry that time would overtake (strict ``>``: ties go to
           the older sequence number), or at a reallocation trigger;
        5. **commits**: the round's reschedules land through one
           :meth:`~repro.core.collurls.CollUrls.schedule_many` call, which
           hands out CollUrls sequence numbers in exact fetch order, and
           the untouched tail is
           :meth:`~repro.core.collurls.CollUrls.restore`-d to be re-popped
           — against new slots, hence re-resolved — next round.

        The accumulated ``(url, slot)`` assignments — typically a whole
        tick window — then go to one :meth:`process_batch` call for the
        batched fetch/observe/estimate pipeline; with a tracker the
        predicted statuses and retry decisions ride along so it is never
        consulted twice.

        Reallocation boundaries match the per-URL step's: only a
        *successful* fetch can trigger one. The trigger commits the round
        and restores the tail first (the reallocation snapshots the whole
        queue), flushes the pending batch (the reallocation must see those
        observations), and runs as a single-entry batch so its reschedule
        uses the post-reallocation intervals.

        Args:
            slot_times: Virtual times of the crawl slots, ascending.

        Returns:
            Number of pages processed (slots with an empty queue are idle,
            as are slots spent on a quarantined site).
        """
        fetcher = self._crawl_module.fetcher
        politeness = fetcher.politeness
        faults = fetcher.faults
        tracker = self.failure_tracker
        if faults is None or not (
            faults.has_status_models or faults.has_latency_models
        ):
            # Without active weather no transient status and no breaker
            # state can ever arise, so an armed tracker is a guaranteed
            # no-op: skipping both is what keeps a zero-rate fault layer
            # byte-for-byte equal to no fault layer at all, at no cost.
            faults = tracker = None
        with_weather = faults is not None and faults.has_status_models
        with_sites = tracker is not None or politeness is not None or with_weather
        web = fetcher.web
        horizon = web.horizon_days
        realloc_interval = self._reallocation_interval_days
        default_interval = self._default_interval_days
        arrays = web.oracle_arrays()
        index_get = arrays.index.get
        site_table = arrays.site_ids
        # Plain lists: element access on NumPy arrays boxes a scalar per
        # read, which adds up over hundreds of thousands of slots. The
        # conversion is cached per OracleArrays instance (rebuilt with it
        # when the web mutates) instead of per tick window.
        cache = self._existence_cache
        if cache is None or cache[0] is not arrays:
            cache = (arrays, arrays.created.tolist(), arrays.deleted.tolist())
            self._existence_cache = cache
        _, created, deleted = cache
        n_slots = len(slot_times)
        if faults is not None and faults.has_latency_models:
            latencies = (
                fetcher.latency_days * faults.latency_factors(slot_times)
            ).tolist()
        else:
            latencies = [fetcher.latency_days] * n_slots
        collurls = self._collurls

        pending_urls: List[str] = []
        pending_times: List[float] = []
        pending_starts: Optional[List[float]] = None if politeness is None else []
        pending_decisions: Optional[List[tuple]] = None if tracker is None else []

        def flush() -> None:
            if pending_urls:
                self.process_batch(
                    pending_urls,
                    pending_times,
                    reschedule=False,
                    resolved_at=pending_starts,
                    failure_decisions=pending_decisions,
                )
                pending_urls.clear()
                pending_times.clear()
                if pending_starts is not None:
                    pending_starts.clear()
                if pending_decisions is not None:
                    pending_decisions.clear()

        # Overwritten per entry when sites / weather are in play.
        site = None
        code = STATUS_OK
        processed = 0
        slot_index = 0
        speculate = 1
        while slot_index < n_slots:
            run = collurls.pop_due(max_n=min(speculate, n_slots - slot_index))
            if not run:
                # Empty queue: every remaining slot is a no-op (only
                # processing pushes entries back, and none is running).
                break
            base = slot_index
            urls = [entry[2] for entry in run]
            page_ids = [index_get(url, -1) for url in urls]
            if with_sites:
                sites = [site_table[p] if p >= 0 else None for p in page_ids]
            codes = hints = None
            last = self._last_reallocation
            # Re-read every round: a reallocation rebinds the dict.
            intervals_get = self._intervals.get
            due_urls: List[str] = []
            due_times: List[float] = []
            earliest = float("inf")
            cut = len(run)
            trigger = False
            for j, entry in enumerate(run):
                if entry[0] > earliest:
                    # A reschedule of this round overtakes the rest of the
                    # run: the tail goes back untouched.
                    cut = j
                    break
                at = start = slot_times[slot_index]
                slot_latency = latencies[slot_index]
                slot_index += 1
                url = urls[j]
                page_id = page_ids[j]
                if with_sites:
                    site = sites[j]
                    if tracker is not None and tracker.quarantined(site, at):
                        # Circuit breaker: the slot is spent but nothing is
                        # fetched; the URL waits for the quarantine's probe.
                        due = tracker.defer(url, site, at)
                        due_urls.append(url)
                        due_times.append(due)
                        if due < earliest:
                            earliest = due
                        continue
                    if politeness is not None and site is not None:
                        start = politeness.earliest_allowed(site, at)
                        politeness.record_request(site, start)
                    if with_weather:
                        if codes is None:
                            # Deferred to the first fetched entry: a round
                            # of breaker skips (one quarantined URL spinning
                            # at the head of an otherwise idle queue) needs
                            # no weather at all.
                            code_array, hint_array = faults.resolve(
                                urls, sites, slot_times[base : base + len(run)]
                            )
                            codes = code_array.tolist()
                            hints = hint_array.tolist()
                        # Unknown URLs never reach the fault models
                        # (fetch_many masks them the same way).
                        code = codes[j] if page_id >= 0 else STATUS_OK
                completed = start + slot_latency
                if completed > horizon:
                    completed = horizon
                if STATUS_TIMEOUT <= code <= STATUS_RATE_LIMITED:
                    status = code
                else:
                    snapshot_time = start if start < horizon else horizon
                    if not (
                        page_id >= 0
                        and created[page_id] <= snapshot_time < deleted[page_id]
                    ):
                        status = STATUS_NOT_FOUND
                    elif code == STATUS_SOFT_404:
                        status = STATUS_SOFT_404
                    else:
                        status = STATUS_OK
                due = None
                if status == STATUS_OK:
                    if tracker is not None:
                        tracker.on_success(url, site)
                    if last is None or completed - last >= realloc_interval:
                        trigger = True
                        cut = j + 1
                        break
                    interval = intervals_get(url)
                    if interval is None or interval <= 0:
                        interval = default_interval
                    due = completed + interval
                elif tracker is not None and status != STATUS_NOT_FOUND:
                    # Transient failure: the retry policy decides whether
                    # the URL goes back into the queue. Without a tracker
                    # it is terminal.
                    due = tracker.on_failure(url, site, status, completed, hints[j])
                if due is not None:
                    due_urls.append(url)
                    due_times.append(due)
                    if due < earliest:
                        earliest = due
                pending_urls.append(url)
                pending_times.append(at)
                if pending_starts is not None:
                    pending_starts.append(start)
                if pending_decisions is not None:
                    pending_decisions.append((status, due))
                processed += 1
            collurls.schedule_many(due_urls, due_times)
            if cut < len(run):
                collurls.restore(run[cut:])
            if trigger:
                flush()
                self.process_batch(
                    [url],
                    [at],
                    resolved_at=None if politeness is None else [start],
                    failure_decisions=(
                        None if tracker is None else [(STATUS_OK, None)]
                    ),
                )
                processed += 1
            consumed = slot_index - base
            speculate = 2 * consumed if consumed == len(run) else consumed + 1
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

        The per-URL crawl step applied to many URLs, minus the queue pop:
        fetches resolve through one
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
                from :meth:`process_slots`, which has already mutated the
                failure tracker once per fetch, in fetch order: the
                predicted integer status code and the time the URL was
                rescheduled at (``None`` when it was not — the page is
                gone or its retries are exhausted). ``None`` means no
                tracker is in play and every failed fetch is terminal.

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
        for i, (url, stored_i, changed_i, was_new_i, completed_i) in enumerate(
            zip(outcome.urls, stored, changed, was_new, completed)
        ):
            if not stored_i:
                if (
                    failure_decisions is not None
                    and failure_decisions[i][1] is not None
                ):
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
            if first_completed is None:
                first_completed = completed_i
            if reschedule:
                reschedule_urls.append(url)
                reschedule_completed.append(completed_i)
            history = histories.get(url)
            if history is None or was_new_i:
                histories[url] = ChangeHistory(
                    first_visit=completed_i,
                    window_days=HISTORY_WINDOW_DAYS,
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
        """Receive the RankingModule's latest scores; only a policy that
        weights pages by importance reads them, so only its module keeps them."""
        if self._use_importance:
            self._importance = dict(importance)

    def history(self, url: str) -> Optional[ChangeHistory]:
        """The change history of ``url`` (``None`` before its first visit)."""
        return self._histories.get(url)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _maybe_reallocate(self, at: float) -> None:
        if (
            self._last_reallocation is not None
            and at - self._last_reallocation < self._reallocation_interval_days
        ):
            return
        self._last_reallocation = at
        # Queue order, not dict-insertion order: the allocation below sums
        # the rates, and float summation order matters at the ulp level.
        # Dict-insertion order depends on the operational path (the crawl
        # loop's pop/restore round trips move entries to the dict end),
        # while (time, sequence) queue order is a pure function of the
        # queue contents, which the per-URL oracle agrees on bit-for-bit.
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
        default_rate = 1.0 / self._default_interval_days
        floor_rate = 0.5 / HISTORY_WINDOW_DAYS
        rates = {}
        for url in urls:
            estimate = estimates.get(url)
            if estimate is None:
                rates[url] = default_rate
            else:
                rates[url] = estimate if estimate > floor_rate else floor_rate
        importance = self._importance if self._use_importance else None
        self._intervals = self._policy.intervals(
            rates, self._crawl_budget_per_day, importance
        )

    def _interval_for(self, url: str) -> float:
        interval = self._intervals.get(url)
        if interval is None or interval <= 0:
            return self._default_interval_days
        return interval

    def _forget(self, url: str) -> None:
        self._histories.pop(url, None)
        self._estimator.forget(url)
        self._rate_estimates.pop(url, None)
        self._intervals.pop(url, None)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self, ids: Dict[str, int]) -> dict:
        """JSON-serializable module state; URL-keyed tables become columns,
        their URLs index columns through ``ids``
        (:func:`~repro.storage.checkpoint.pack_urls`).

        Dict key order is semantic and survives as column order:
        ``rate_estimates`` insertion order feeds :meth:`_maybe_reallocate`'s
        float reductions, which are ulp-sensitive to summation order.
        """
        state = {
            "histories": histories_to_columns(self._histories, ids),
            "rate_estimates": _pack_table(self._rate_estimates, ids),
            "intervals": _pack_table(self._intervals, ids),
            "importance": _pack_table(self._importance, ids),
            "last_reallocation": self._last_reallocation,
            "estimator": self._estimator.state_dict(ids),
            "pages_processed": self.pages_processed,
            "changes_detected": self.changes_detected,
        }
        if self.failure_tracker is not None:
            # Key present only for failure-aware runs.
            state["failures"] = self.failure_tracker.snapshot(ids)
        return state

    def restore_snapshot(self, state: dict, table: Sequence[str]) -> None:
        """Rebuild module state exactly as captured by :meth:`snapshot`, its
        URLs looked up in ``table``."""
        self._histories = histories_from_columns(state["histories"], table, HISTORY_WINDOW_DAYS)
        self._rate_estimates = _unpack_table(state["rate_estimates"], table)
        self._intervals = _unpack_table(state["intervals"], table)
        self._importance = _unpack_table(state["importance"], table)
        last = state["last_reallocation"]
        self._last_reallocation = None if last is None else float(last)
        self._estimator.load_state(state["estimator"], table)
        # Rebuildable cache over the web's oracle arrays; drop it so the
        # restored module lazily rebinds to the current web.
        self._existence_cache = None
        self.pages_processed = int(state["pages_processed"])
        self.changes_detected = int(state["changes_detected"])
        if self.failure_tracker is not None and "failures" in state:
            self.failure_tracker.restore_snapshot(state["failures"], table)


def _pack_table(table: Dict[str, float], ids: Dict[str, int]) -> dict:
    """A URL-keyed float table as two columns, in dict insertion order."""
    return {"urls": pack_urls(list(table), ids), "values": pack_floats(list(table.values()))}


def _unpack_table(columns: dict, table: Sequence[str]) -> Dict[str, float]:
    return dict(zip(unpack_urls(columns["urls"], table), unpack_floats(columns["values"])))
