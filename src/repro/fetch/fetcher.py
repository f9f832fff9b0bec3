"""The simulated fetcher.

:class:`SimulatedFetcher` is the only way crawler code observes the
synthetic web: it resolves a URL through the
:class:`~repro.simweb.web.SimulatedWeb` oracle at a given virtual time and
returns a :class:`FetchResult` carrying the content version and the
extracted out-links — what an HTTP fetch plus link extraction gives a real
crawler, with the version standing in for the body's checksum (two fetches
see the same content exactly when they see the same version). Politeness is
applied here, and each fetch charges a configurable amount of virtual time,
which is how crawl bandwidth limits enter the simulation.
"""

from __future__ import annotations

import enum
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


class FetchStatus(enum.Enum):
    """Outcome of a simulated fetch.

    ``OK``/``NOT_FOUND`` are the fair-weather outcomes; the rest but
    ``EXCLUDED`` are injected by a :class:`~repro.faults.FaultLayer` and
    are *transient* — they say nothing about whether the page exists, so
    the crawler must not treat them as deletions. ``EXCLUDED`` is never
    produced any more; it keeps its wire code so every stored code keeps
    its meaning.
    """

    OK = "ok"
    NOT_FOUND = "not_found"
    EXCLUDED = "excluded"
    TIMEOUT = "timeout"
    SERVER_ERROR = "server_error"
    RATE_LIMITED = "rate_limited"
    SOFT_404 = "soft_404"


#: FetchStatus member per integer wire code (see repro.faults.STATUS_*).
CODE_TO_STATUS = (
    FetchStatus.OK,
    FetchStatus.NOT_FOUND,
    FetchStatus.EXCLUDED,
    FetchStatus.TIMEOUT,
    FetchStatus.SERVER_ERROR,
    FetchStatus.RATE_LIMITED,
    FetchStatus.SOFT_404,
)

#: Integer wire code per FetchStatus member.
STATUS_TO_CODE = {status: code for code, status in enumerate(CODE_TO_STATUS)}


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
        version: Content version of the fetched snapshot at the
            politeness-delayed fetch instant (0 for non-OK fetches); it
            plays the paper's checksum in change detection.
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


@dataclass
class BatchFetchResult:
    """Result of fetching many URLs in one batched oracle pass.

    The content *version* of the whole batch is resolved in one
    vectorized binary search; the version plays the paper's checksum, so
    callers detect a change by comparing it with the stored one.

    Attributes:
        urls: The requested URLs, in request order.
        requested_at: Virtual request time per URL.
        completed_at: Virtual completion time per URL (latency charged,
            clamped to the horizon) — identical to the scalar path.
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

    def site_of(self, url: str) -> Optional[str]:
        """The owning site id of ``url`` (``None`` if the web doesn't know it)."""
        return self._site_id_of(url)

    def fetch(self, url: str, at: float) -> FetchResult:
        """Fetch ``url`` at virtual time ``at``.

        The returned result's ``completed_at`` reflects politeness delays and
        transfer latency; callers that simulate a sequential crawler should
        advance their clock to ``completed_at``.

        Args:
            url: URL to fetch.
            at: Virtual time the request is issued.

        Returns:
            A :class:`FetchResult`; ``status`` distinguishes success, a
            missing page and an injected fault.
        """
        site_id = self._site_id_of(url)
        start = at
        if self._politeness is not None and site_id is not None:
            start = self._politeness.earliest_allowed(site_id, at)
            self._politeness.record_request(site_id, start)
        latency = self.latency_days
        code = STATUS_OK
        retry_after = 0.0
        if self._faults is not None:
            # Faults are a function of the *request* time, and the scalar
            # path delegates to the vectorized resolution on a batch of one,
            # so scalar and batched fetches agree bit for bit.
            if self._faults.has_latency_models:
                latency = latency * self._faults.latency_factor_one(at)
            if site_id is not None and self._faults.has_status_models:
                code, retry_after = self._faults.resolve_one(url, site_id, at)
        completed = min(start + latency, self._web.horizon_days)
        self._fetch_count += 1
        if STATUS_TIMEOUT <= code <= STATUS_RATE_LIMITED:
            # Hard transient fault: the fetch never reached the page, so the
            # oracle is not consulted — the status says nothing about
            # whether the page exists.
            return FetchResult(
                url=url,
                status=CODE_TO_STATUS[code],
                requested_at=at,
                completed_at=completed,
                retry_after=retry_after,
            )
        snapshot = self._web.snapshot(url, min(start, self._web.horizon_days))
        if snapshot is None:
            return FetchResult(
                url=url,
                status=FetchStatus.NOT_FOUND,
                requested_at=at,
                completed_at=completed,
            )
        if code == STATUS_SOFT_404:
            # The page is alive but served an error body: a false deletion
            # signal, reported distinctly so the engine can ignore it.
            return FetchResult(
                url=url,
                status=FetchStatus.SOFT_404,
                requested_at=at,
                completed_at=completed,
            )
        return FetchResult(
            url=url,
            status=FetchStatus.OK,
            requested_at=at,
            completed_at=completed,
            outlinks=tuple(snapshot.outlinks),
            version=snapshot.version,
        )

    def fetch_many(
        self,
        urls: Sequence[str],
        times: Sequence[float],
        resolved_at: Optional[Sequence[float]] = None,
    ) -> BatchFetchResult:
        """Fetch many URLs in one call, resolving through the batched oracle.

        Semantically equivalent to one :meth:`fetch` per ``(url, time)``
        pair, in order: the same completion times, the same success
        criteria, the same fetch counting. With a politeness policy
        configured the per-site delays run through the policy's scalar
        recurrence, request by request (or arrive pre-resolved via
        ``resolved_at``); the oracle side of the whole batch costs one
        URL-id lookup, one existence mask and one vectorized version
        search.

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
            starts = self._politeness.earliest_allowed_many(sites, requested)
            self._politeness.record_requests(sites, starts)
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

    def _site_id_of(self, url: str) -> Optional[str]:
        """Map a URL to its owning site id via the oracle (None if unknown)."""
        if url in self._web:
            return self._web.page(url).site_id
        return None
