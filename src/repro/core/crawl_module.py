"""CrawlModule: fetch pages, store them, forward discovered URLs.

Figure 12: "the CrawlModule crawls a page and saves/updates the page in the
Collection, based on the request from the UpdateModule. Also, the
CrawlModule extracts all links/URLs in the crawled page and forwards the
URLs to AllUrls." Multiple CrawlModule instances may run in parallel in a
production deployment; in the simulation a single instance is sufficient
because fetch latency is charged on the virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.allurls import AllUrls
from repro.faults import STATUS_EXCLUDED, STATUS_NOT_FOUND
from repro.fetch.fetcher import SimulatedFetcher
from repro.storage.collection import Collection
from repro.storage.records import PageRecord

#: Status codes that are *permanent* verdicts on the URL itself. Only these
#: may reach ``AllUrls.record_failure`` (which excludes the URL from future
#: collection candidates); transient fault statuses say nothing about the
#: page and must not poison the discovered-URL registry.
_TERMINAL_CODES = (STATUS_NOT_FOUND, STATUS_EXCLUDED)


@dataclass
class BatchCrawlOutcome:
    """What happened when the CrawlModule processed a batch of URLs.

    Per-index sequences aligned with ``urls``. Flag sequences are plain
    lists (they are consumed element-wise on the hot path); the time
    columns stay NumPy arrays.

    Attributes:
        stored: Whether a copy was stored (False for failed fetches).
        changed: For a re-fetch of a stored page, whether the version
            differed from the stored copy's; always True for first fetches
            (the page is new to the collection).
        was_new: Whether the page was not previously in the working
            collection.
    """

    urls: Sequence[str]
    requested_at: np.ndarray
    completed_at: np.ndarray
    stored: Sequence[bool]
    changed: Sequence[bool]
    was_new: Sequence[bool]
    #: Integer status code per URL (``repro.faults.STATUS_*``), or ``None``
    #: when no fault layer is configured (``stored`` then implies OK vs
    #: NOT_FOUND, the pre-fault behaviour).
    statuses: Optional[Sequence[int]] = None
    #: Retry-after hint per URL in virtual days (``None`` without faults).
    retry_after: Optional[Sequence[float]] = None


class CrawlModule:
    """Fetches pages on request and maintains the collection and AllUrls.

    Args:
        fetcher: The fetch substrate.
        collection: The collection to store fetched copies in.
        allurls: The discovered-URL registry to forward extracted links to.
        link_filter: Optional predicate applied to extracted out-links
            before they are forwarded to AllUrls. A site-affine crawl shard
            keeps only links into sites it owns, so its discovered universe
            never leaves the shard. ``None`` forwards every link (the
            unsharded behaviour, byte for byte).
    """

    def __init__(
        self,
        fetcher: SimulatedFetcher,
        collection: Collection,
        allurls: AllUrls,
        link_filter: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self._fetcher = fetcher
        self._collection = collection
        self._allurls = allurls
        self._link_filter = link_filter
        self.pages_fetched = 0
        self.pages_failed = 0

    @property
    def collection(self) -> Collection:
        """The collection this module stores pages into."""
        return self._collection

    @property
    def fetcher(self) -> SimulatedFetcher:
        """The fetch substrate (exposed for the batched crawl engine)."""
        return self._fetcher

    def crawl(self, url: str, at: float) -> None:
        """Not called: the crawl loop runs :meth:`crawl_many`. Defined only
        because the e2e benchmark's tracer table names it."""

    def crawl_many(
        self,
        urls: Sequence[str],
        times: Sequence[float],
        resolved_at: Optional[Sequence[float]] = None,
    ) -> BatchCrawlOutcome:
        """Process a batch of URLs: one oracle pass, then bulk store/forward.

        Equivalent to crawling one ``(url, time)`` pair at a time in order
        (the per-URL crawl of ``tests/reference/crawl.py``) — the same
        counters, stored records and AllUrls state — but the fetches
        resolve through :meth:`SimulatedFetcher.fetch_many`, unchanged
        re-fetches refresh the stored record in place, and a page's links
        are forwarded only when its fetch stores a new record.
        A page's out-links are constant and AllUrls keeps the first
        discovery of a URL, so every later forward would change nothing.

        Args:
            urls: URLs to crawl (distinct within one batch).
            times: Virtual time each crawl is issued, aligned with ``urls``.
            resolved_at: Optional politeness-resolved start instant per URL,
                forwarded to :meth:`SimulatedFetcher.fetch_many` when the
                caller already resolved the per-site delays.

        Returns:
            A :class:`BatchCrawlOutcome` with per-URL flags.
        """
        fetch = self._fetcher.fetch_many(urls, times, resolved_at=resolved_at)
        n = len(fetch.urls)
        changed = [False] * n
        was_new = [False] * n
        ok = fetch.ok.tolist()
        n_ok = sum(ok)
        self.pages_fetched += n_ok
        self.pages_failed += n - n_ok

        collection = self._collection
        allurls = self._allurls
        versions = fetch.versions.tolist()
        completed = fetch.completed_at.tolist()
        requested = fetch.requested_at.tolist()
        statuses = None if fetch.statuses is None else fetch.statuses.tolist()
        for i, (url, ok_i, version_i, completed_i, requested_i) in enumerate(
            zip(fetch.urls, ok, versions, completed, requested)
        ):
            if not ok_i:
                if statuses is None or statuses[i] in _TERMINAL_CODES:
                    allurls.record_failure(url, requested_i)
                was_new[i] = collection.get_working(url) is None
                continue
            existing = collection.get_working(url)
            if existing is None:
                outlinks = self._fetcher.outlinks_of(url)
                self._forward_links(url, outlinks, completed_i)
                collection.store(
                    PageRecord(
                        url=url,
                        version=version_i,
                        fetched_at=completed_i,
                        first_fetched_at=completed_i,
                        outlinks=tuple(outlinks),
                    )
                )
                changed[i] = True
                was_new[i] = True
            elif existing.version == version_i:
                # Unchanged re-fetch: every field except the fetch
                # bookkeeping keeps its value, so the stored record is
                # refreshed in place.
                existing.fetched_at = completed_i
                existing.visit_count += 1
            else:
                # Changed re-fetch: a new record that keeps the page's
                # history and counts one more visit and one more change.
                collection.store(
                    PageRecord(
                        url=url,
                        version=version_i,
                        fetched_at=completed_i,
                        first_fetched_at=existing.first_fetched_at,
                        outlinks=tuple(self._fetcher.outlinks_of(url)),
                        importance=existing.importance,
                        visit_count=existing.visit_count + 1,
                        change_count=existing.change_count + 1,
                    )
                )
                changed[i] = True
        return BatchCrawlOutcome(
            urls=fetch.urls,
            requested_at=fetch.requested_at,
            completed_at=fetch.completed_at,
            stored=ok,
            changed=changed,
            was_new=was_new,
            statuses=statuses,
            retry_after=(
                None if fetch.retry_after is None else fetch.retry_after.tolist()
            ),
        )

    def _forward_links(self, url: str, outlinks: Sequence[str], at: float) -> None:
        """Register a fetched page and the links the filter keeps in AllUrls."""
        self._allurls.add(url, discovered_at=at)
        if self._link_filter is not None:
            outlinks = filter(self._link_filter, outlinks)
        self._allurls.record_links(url, outlinks, at)

    def discard(self, url: str) -> Optional[PageRecord]:
        """Remove a page from the working collection (refinement decision)."""
        return self._collection.discard(url)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-serializable module state: the two counters."""
        return {
            "pages_fetched": self.pages_fetched,
            "pages_failed": self.pages_failed,
        }

    def restore_snapshot(self, state: dict) -> None:
        """Rebuild module state exactly as captured by :meth:`snapshot`."""
        self.pages_fetched = int(state["pages_fetched"])
        self.pages_failed = int(state["pages_failed"])
