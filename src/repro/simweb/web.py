"""The simulated web: the ground-truth oracle queried by the fetch substrate.

:class:`SimulatedWeb` aggregates all sites and pages, provides URL lookup,
and exposes the oracle queries the rest of the system needs:

* :meth:`SimulatedWeb.oracle_arrays` — :class:`OracleArrays`, a lazily
  built flat array of every page's change times plus per-page offsets,
  whose ``lookup``/``exists``/``versions`` answer a whole batch of fetches
  (and a freshness measurement over an N-page collection) in a few NumPy
  passes instead of N Python-level oracle calls;
* per-domain and per-site enumeration used by the experiment package.

The web also owns the ground truth the crawler's *quality* is scored
against (Section 5.1): :meth:`SimulatedWeb.true_importance`, PageRank over
the whole link graph, which the crawler itself never sees. Like the oracle
arrays it is computed once, on first use, and shared by every crawler run
on the web.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ranking.sparse import LinkGraph, pagerank_scores
from repro.simweb.page import SimulatedPage
from repro.simweb.site import SimulatedSite

TimeLike = Union[float, np.ndarray, Sequence[float]]


def _segment_searchsorted_right(
    flat: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    queries: np.ndarray,
) -> np.ndarray:
    """``np.searchsorted(segment, query, side="right")`` for many segments.

    ``flat`` concatenates independently sorted segments; segment ``k`` of
    a query occupies ``flat[starts[k] : starts[k] + lengths[k]]``. The
    search runs as one vectorized binary search across all queries, so the
    cost is ``O(n_queries * log(max_segment))`` NumPy element operations
    with no Python-level per-segment loop — and, unlike composite-key
    tricks, it is exact for any float inputs.
    """
    n = queries.size
    lo = np.zeros(n, dtype=np.int64)
    hi = lengths.astype(np.int64, copy=True)
    if flat.size == 0 or n == 0:
        return lo
    active = np.nonzero(lo < hi)[0]
    while active.size:
        mid = (lo[active] + hi[active]) >> 1
        below = flat[starts[active] + mid] <= queries[active]
        lo[active] = np.where(below, mid + 1, lo[active])
        hi[active] = np.where(below, hi[active], mid)
        active = active[lo[active] < hi[active]]
    return lo


class OracleArrays:
    """Array-of-structs view of every page, for batched oracle queries.

    Built lazily by :meth:`SimulatedWeb.oracle_arrays` and cached until the
    web is mutated. All change times are stored relative to each page's
    creation day (as :meth:`SimulatedPage.change_times_array` holds them),
    concatenated into one flat array with per-page offsets.
    """

    def __init__(self, pages: Sequence[SimulatedPage]) -> None:
        n = len(pages)
        self.index: Dict[str, int] = {page.url: i for i, page in enumerate(pages)}
        # Owning site per page id, as a plain list: the batched politeness
        # path maps url -> page id -> site id on every candidate run, and
        # list indexing avoids boxing a NumPy scalar per read.
        self.site_ids: List[str] = [page.site_id for page in pages]
        # Dense integer encoding of the same column: site_index[page_id]
        # indexes site_names. The batched politeness peek gathers per-site
        # state through these instead of hashing site-name strings.
        name_to_index: Dict[str, int] = {}
        site_index = np.empty(n, dtype=np.int64)
        for i, site_id in enumerate(self.site_ids):
            site_index[i] = name_to_index.setdefault(site_id, len(name_to_index))
        self.site_index: np.ndarray = site_index
        self.site_names: List[str] = list(name_to_index)
        self.created = np.array([page.created_at for page in pages], dtype=float)
        self.deleted = np.array(
            [np.inf if page.deleted_at is None else page.deleted_at for page in pages],
            dtype=float,
        )
        self.materialised = np.array(
            [page.change_process.is_materialised for page in pages], dtype=bool
        )
        per_page: List[np.ndarray] = []
        empty = np.empty(0)
        for page in pages:
            if page.change_process.is_materialised:
                per_page.append(page.change_times_array())
            else:
                per_page.append(empty)
        self.lengths = np.array([len(a) for a in per_page], dtype=np.int64)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=self.offsets[1:])
        self.flat = np.concatenate(per_page) if n else np.empty(0)

    def lookup(self, urls: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """Map URLs to page ids; unknown URLs get id ``-1``.

        Returns ``(ids, known)`` where ``known`` flags the resolvable URLs.
        """
        ids = np.array([self.index.get(url, -1) for url in urls], dtype=np.int64)
        return ids, ids >= 0

    def exists(self, ids: np.ndarray, t: TimeLike) -> np.ndarray:
        """Whether each page exists (is inside its window) at time ``t``."""
        t = np.asarray(t, dtype=float)
        return (t >= self.created[ids]) & (t < self.deleted[ids])

    def versions(self, ids: np.ndarray, t: TimeLike) -> np.ndarray:
        """Content version of each page at time ``t`` (scalar or per-page).

        A page's version is the number of its changes at or before ``t``;
        queries before a page's creation read version 0.

        Raises:
            RuntimeError: If any queried page's change process has not been
                materialised.
        """
        if not self.materialised[ids].all():
            raise RuntimeError(
                "change process has not been materialised; call materialise() first"
            )
        relative = np.maximum(0.0, np.asarray(t, dtype=float) - self.created[ids])
        relative = np.broadcast_to(relative, ids.shape)
        return _segment_searchsorted_right(
            self.flat, self.offsets[ids], self.lengths[ids], relative
        )

    def next_change_relative(self, ids: np.ndarray, versions: np.ndarray) -> np.ndarray:
        """First change time strictly after version ``versions`` was current.

        Given the version counts at some instant (i.e. the number of changes
        at or before it), the next change is simply the event at that index
        in each page's segment — ``inf`` when the page never changes again.
        Times are relative to each page's creation, like the change times
        themselves.
        """
        next_times = np.full(ids.shape, np.inf)
        selected = np.nonzero(versions < self.lengths[ids])[0]
        if selected.size:
            next_times[selected] = self.flat[
                self.offsets[ids[selected]] + versions[selected]
            ]
        return next_times


class SimulatedWeb:
    """Container for all sites and pages of the synthetic web.

    Args:
        horizon_days: The virtual-time horizon over which every page's change
            process has been materialised; the fetcher clamps its fetch
            instants to it, so no query reads unsampled behaviour.
    """

    def __init__(self, horizon_days: float) -> None:
        if horizon_days <= 0:
            raise ValueError("horizon_days must be positive")
        self.horizon_days = horizon_days
        self._sites: Dict[str, SimulatedSite] = {}
        self._pages: Dict[str, SimulatedPage] = {}
        self._oracle_arrays: Optional[OracleArrays] = None
        self._true_importance: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_site(self, site: SimulatedSite) -> None:
        """Register a site and all of its pages."""
        if site.site_id in self._sites:
            raise ValueError(f"duplicate site id {site.site_id}")
        self._sites[site.site_id] = site
        for page in site.all_pages:
            self._register_page(page)

    def _register_page(self, page: SimulatedPage) -> None:
        if page.url in self._pages:
            raise ValueError(f"duplicate URL {page.url}")
        self._pages[page.url] = page
        self._oracle_arrays = None
        self._true_importance = None

    def add_page(self, page: SimulatedPage) -> None:
        """Register a page created after its site was added."""
        site = self._sites.get(page.site_id)
        if site is None:
            raise KeyError(f"unknown site {page.site_id}")
        if page.url not in site:
            site.add_page(page)
        self._register_page(page)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def sites(self) -> Sequence[SimulatedSite]:
        """All registered sites."""
        return tuple(self._sites.values())

    @property
    def n_sites(self) -> int:
        """Number of registered sites."""
        return len(self._sites)

    @property
    def n_pages(self) -> int:
        """Number of registered pages (alive or not)."""
        return len(self._pages)

    def site(self, site_id: str) -> SimulatedSite:
        """Look up a site by id."""
        return self._sites[site_id]

    def page(self, url: str) -> SimulatedPage:
        """Look up a page by URL."""
        return self._pages[url]

    def __contains__(self, url: str) -> bool:
        return url in self._pages

    def pages(self) -> Iterator[SimulatedPage]:
        """Iterate over every page in the web."""
        return iter(self._pages.values())

    def urls(self) -> Iterable[str]:
        """All known URLs."""
        return self._pages.keys()

    def seed_urls(self) -> List[str]:
        """Root URLs of every site — the natural crawl seeds."""
        return [site.root_url for site in self._sites.values()]

    def sites_in_domain(self, domain: str) -> List[SimulatedSite]:
        """All sites belonging to the given top-level domain."""
        return [site for site in self._sites.values() if site.domain == domain]

    def links_within(self) -> Iterator[Tuple[str, Tuple[str, ...]]]:
        """The whole-web link graph: ``(url, outlinks)`` for every page.

        Pages come in page order; links to URLs outside the web are dropped.
        """
        pages = self._pages
        return (
            (url, tuple(link for link in page.outlinks if link in pages))
            for url, page in pages.items()
        )

    def true_importance(self) -> Dict[str, float]:
        """Ground-truth importance: PageRank (damping 0.85) over the whole web.

        Computed on first use and cached like :meth:`oracle_arrays` (the
        same mutations drop both). The table is shared: do not mutate it.
        """
        if self._true_importance is None:
            graph = LinkGraph()
            graph.set_outlinks_many(self.links_within())
            ids, scores = pagerank_scores(graph, damping=0.85)
            urls = graph.urls()
            self._true_importance = {
                urls[node]: score for node, score in zip(ids.tolist(), scores.tolist())
            }
        return self._true_importance

    # ------------------------------------------------------------------ #
    # Oracle queries
    # ------------------------------------------------------------------ #
    def oracle_arrays(self) -> OracleArrays:
        """The cached array view of all pages for batched queries.

        Rebuilt lazily after any mutation of the page set. If a page's
        change process is re-materialised, or its out-links change, after
        the caches were built, call :meth:`invalidate_oracle_cache` manually
        (the generator materialises every process and wires every link
        before the web is queried, so this only matters for hand-built webs
        in tests).
        """
        if self._oracle_arrays is None:
            self._oracle_arrays = OracleArrays(list(self._pages.values()))
        return self._oracle_arrays

    def invalidate_oracle_cache(self) -> None:
        """Drop the cached :class:`OracleArrays` and :meth:`true_importance`.

        Both are rebuilt on next use.
        """
        self._oracle_arrays = None
        self._true_importance = None

    def mean_change_rate(self) -> float:
        """Average page change rate over the whole web (changes/day)."""
        if not self._pages:
            return 0.0
        total = sum(page.change_process.mean_rate for page in self._pages.values())
        return total / len(self._pages)
