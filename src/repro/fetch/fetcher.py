"""The simulated fetcher.

:class:`SimulatedFetcher` is the only way crawler code observes the
synthetic web: it resolves a batch of URLs through the
:class:`~repro.simweb.web.SimulatedWeb` oracle at given virtual times and
returns a :class:`BatchFetchResult` carrying each content version — what
an HTTP fetch gives a real crawler, with the version standing in for the
body's checksum (two fetches see the same content exactly when they see
the same version); a fetched page's out-links come from
:meth:`SimulatedFetcher.outlinks_of`. Politeness is applied here, and each
fetch charges a configurable amount of virtual time, which is how crawl
bandwidth limits enter the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.faults import (
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_RATE_LIMITED,
    STATUS_SOFT_404,
    STATUS_TIMEOUT,
    FaultLayer,
)
from repro.fetch.politeness import PolitenessPolicy
from repro.simweb.web import SimulatedWeb


@dataclass
class BatchFetchResult:
    """Result of fetching many URLs in one batched oracle pass.

    The content *version* of the whole batch is resolved in one
    vectorized binary search; the version plays the paper's checksum, so
    callers detect a change by comparing it with the stored one.

    Attributes:
        urls: The requested URLs, in request order.
        requested_at: Virtual request time per URL.
        completed_at: Virtual completion time per URL (politeness delay
            and latency charged, clamped to the horizon).
        ok: Whether each fetch succeeded (page known and alive).
        versions: Content version per URL at fetch time (valid where
            ``ok``; 0 elsewhere).
        statuses: Integer status code per URL (see
            ``repro.faults.STATUS_*``), or ``None`` when no fault layer is
            configured — in that case ``ok`` fully determines the status
            (OK vs NOT_FOUND), exactly as before faults existed.
        retry_after: Retry-after hint per URL in virtual days (``None``
            when no fault layer is configured).
    """

    urls: Sequence[str]
    requested_at: np.ndarray
    completed_at: np.ndarray
    ok: np.ndarray
    versions: np.ndarray
    statuses: Optional[np.ndarray] = None
    retry_after: Optional[np.ndarray] = None


class SimulatedFetcher:
    """Fetches pages from a :class:`SimulatedWeb` at virtual times.

    Args:
        web: The ground-truth synthetic web.
        politeness: Optional per-site politeness policy; when given, fetches
            are delayed until the policy allows them.
        latency_days: Virtual time consumed by a single fetch (download and
            processing). The default corresponds to roughly 2 seconds per
            page, i.e. about 43,000 pages per virtual day for a single
            crawl process.
        faults: Optional fault layer; when given, fetches of known URLs may
            resolve to transient statuses and latency may be inflated, all
            as pure functions of ``(url, site, request_time, seed)``.
    """

    def __init__(
        self,
        web: SimulatedWeb,
        politeness: Optional[PolitenessPolicy] = None,
        latency_days: float = 2.0 / 86400.0,
        faults: Optional[FaultLayer] = None,
    ) -> None:
        if latency_days < 0:
            raise ValueError("latency_days must be non-negative")
        self._web = web
        self._politeness = politeness
        self._faults = faults
        self.latency_days = latency_days
        self._fetch_count = 0

    @property
    def web(self) -> SimulatedWeb:
        """The underlying synthetic web (exposed for metrics, not crawlers)."""
        return self._web

    @property
    def fetch_count(self) -> int:
        """Number of fetches issued so far."""
        return self._fetch_count

    @fetch_count.setter
    def fetch_count(self, value: int) -> None:
        """Restore the fetch counter (checkpoint/resume)."""
        if value < 0:
            raise ValueError("fetch_count cannot be negative")
        self._fetch_count = int(value)

    @property
    def politeness(self) -> Optional[PolitenessPolicy]:
        """The politeness policy, if one is configured (read-only access
        for the crawl loop, which resolves the delays itself and
        passes ``resolved_at`` to :meth:`fetch_many`)."""
        return self._politeness

    @property
    def faults(self) -> Optional[FaultLayer]:
        """The fault layer, if one is configured (read-only access for the
        crawl loop, which predicts statuses per popped run)."""
        return self._faults

    def fetch(self, url: str, at: float) -> None:
        """Not called: the crawl loop runs :meth:`fetch_many`. Defined only
        because the e2e benchmark's tracer table names it."""

    def fetch_many(
        self,
        urls: Sequence[str],
        times: Sequence[float],
        resolved_at: Optional[Sequence[float]] = None,
    ) -> BatchFetchResult:
        """Fetch many URLs in one call, resolving through the batched oracle.

        The requests are served in order, as one fetch at a time would
        serve them. With a politeness policy configured the per-site
        delays run through the policy's scalar recurrence
        (:meth:`PolitenessPolicy.earliest_allowed` then
        :meth:`PolitenessPolicy.record_request`), request by request, or
        arrive pre-resolved via ``resolved_at``; the oracle side of the
        whole batch costs one URL-id lookup, one existence mask and one
        vectorized version search.

        Args:
            urls: URLs to fetch.
            times: Virtual request time per URL (same length as ``urls``).
            resolved_at: Politeness-resolved start instant per URL, when
                the caller already resolved (and recorded) the delays —
                the crawl loop does, because it must cut batches
                on queue dynamics. ``None`` resolves them here.

        Returns:
            A :class:`BatchFetchResult`.
        """
        if len(urls) != len(times):
            raise ValueError("urls and times must have the same length")
        requested = np.asarray(times, dtype=float)
        horizon = self._web.horizon_days
        arrays = self._web.oracle_arrays()
        ids, known = arrays.lookup(urls)
        faults = self._faults
        with_faults = faults is not None and faults.has_status_models
        sites = None
        if with_faults or (self._politeness is not None and resolved_at is None):
            site_table = arrays.site_ids
            sites = [
                site_table[page_id] if page_id >= 0 else None
                for page_id in ids.tolist()
            ]
        if resolved_at is not None:
            starts = np.asarray(resolved_at, dtype=float)
        elif self._politeness is not None:
            politeness = self._politeness
            starts = requested.copy()
            for index, (site, at) in enumerate(zip(sites, requested.tolist())):
                if site is not None:
                    starts[index] = start = politeness.earliest_allowed(site, at)
                    politeness.record_request(site, start)
        else:
            starts = requested
        latency = self.latency_days
        if faults is not None and faults.has_latency_models:
            latency = latency * faults.latency_factors(requested)
        snapshot_times = np.minimum(starts, horizon)
        ok = known.copy()
        if known.any():
            ok[known] = arrays.exists(ids[known], snapshot_times[known])
        completed = np.minimum(starts + latency, horizon)
        self._fetch_count += len(urls)
        statuses = None
        retry_after = None
        if with_faults:
            codes, retry_after = faults.resolve(urls, sites, requested)
            codes[~known] = 0
            retry_after[~known] = 0.0
            statuses = np.where(ok, STATUS_OK, STATUS_NOT_FOUND)
            hard = (codes >= STATUS_TIMEOUT) & (codes <= STATUS_RATE_LIMITED)
            statuses[hard] = codes[hard]
            soft = ok & (codes == STATUS_SOFT_404)
            statuses[soft] = STATUS_SOFT_404
            ok = statuses == STATUS_OK
        versions = np.zeros(len(urls), dtype=np.int64)
        if ok.any():
            versions[ok] = arrays.versions(ids[ok], snapshot_times[ok])
        return BatchFetchResult(
            urls=list(urls),
            requested_at=requested,
            completed_at=completed,
            ok=ok,
            versions=versions,
            statuses=statuses,
            retry_after=retry_after,
        )

    def outlinks_of(self, url: str) -> Sequence[str]:
        """The (constant) out-links of ``url`` as the fetch would report them."""
        return self._web.page(url).outlinks
