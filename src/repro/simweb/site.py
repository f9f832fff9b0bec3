"""Simulated web sites and their monitoring windows.

The paper's experiment monitors a *window* of pages per site: starting from
the site's root page, a breadth-first crawl of up to 3,000 pages
(Section 2.3). Pages enter and leave the window over time as they are
created and deleted.

A :class:`SimulatedSite` owns its pages, knows its root, and can answer
"which pages are inside the window at virtual time t" by walking the live
link structure breadth-first, exactly as the monitoring crawler would.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

from repro.simweb.page import SimulatedPage


class SimulatedSite:
    """A site: a root page plus the pages reachable below it.

    Args:
        site_id: Unique identifier, e.g. ``"site007.com"``.
        domain: Top-level domain (com/edu/netorg/gov).
        window_size: Maximum number of pages the monitoring window holds
            (the paper used 3,000; scaled-down simulations use less).
    """

    def __init__(self, site_id: str, domain: str, window_size: int) -> None:
        if window_size < 1:
            raise ValueError("window_size must be at least 1")
        self.site_id = site_id
        self.domain = domain
        self.window_size = window_size
        self._pages: Dict[str, SimulatedPage] = {}
        self._root_url: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @property
    def root_url(self) -> str:
        """URL of the site's root page."""
        if self._root_url is None:
            raise RuntimeError(f"site {self.site_id} has no root page yet")
        return self._root_url

    def add_page(self, page: SimulatedPage, is_root: bool = False) -> None:
        """Register a page with the site.

        Args:
            page: The page to add; its ``site_id`` must match this site.
            is_root: Mark this page as the site root. The root is expected to
                be permanent (the monitoring experiment always starts from
                the root page).
        """
        if page.site_id != self.site_id:
            raise ValueError(
                f"page {page.url} belongs to site {page.site_id}, not {self.site_id}"
            )
        if page.url in self._pages:
            raise ValueError(f"duplicate page URL {page.url}")
        self._pages[page.url] = page
        if is_root:
            if page.lifespan is not None:
                raise ValueError("the root page must be permanent")
            self._root_url = page.url

    def page(self, url: str) -> SimulatedPage:
        """Look up a page of this site by URL."""
        return self._pages[url]

    def __contains__(self, url: str) -> bool:
        return url in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def all_pages(self) -> Sequence[SimulatedPage]:
        """Every page ever attached to the site, regardless of liveness."""
        return tuple(self._pages.values())

    # ------------------------------------------------------------------ #
    # Window semantics
    # ------------------------------------------------------------------ #
    def live_pages_at(self, t: float) -> List[SimulatedPage]:
        """All pages of the site that exist at time ``t`` (window ignored)."""
        return [page for page in self._pages.values() if page.exists_at(t)]

    def window_at(self, t: float) -> List[SimulatedPage]:
        """Pages inside the monitoring window at time ``t``.

        The window is computed the way the paper's monitor works: a
        breadth-first traversal from the root over pages that exist at ``t``,
        truncated at ``window_size`` pages. Pages that exist but are not
        reachable from the root (e.g. their parent was deleted) are appended
        in increasing depth order if space remains, mirroring the fact that
        real sites expose orphan pages through navigation aids.
        """
        if self._root_url is None:
            return []
        live = {page.url: page for page in self.live_pages_at(t)}
        if self._root_url not in live:
            return []
        ordered: List[SimulatedPage] = []
        seen = set()
        queue = deque([self._root_url])
        while queue and len(ordered) < self.window_size:
            url = queue.popleft()
            if url in seen or url not in live:
                continue
            seen.add(url)
            page = live[url]
            ordered.append(page)
            for link in page.outlinks:
                if link in live and link not in seen:
                    queue.append(link)
        if len(ordered) < self.window_size:
            remaining = sorted(
                (page for url, page in live.items() if url not in seen),
                key=lambda page: (page.depth, page.url),
            )
            for page in remaining:
                if len(ordered) >= self.window_size:
                    break
                ordered.append(page)
        return ordered

    # ------------------------------------------------------------------ #
    # Convenience statistics
    # ------------------------------------------------------------------ #
    def mean_change_rate(self) -> float:
        """Average change rate (changes/day) over all pages of the site."""
        if not self._pages:
            return 0.0
        total = sum(page.change_process.mean_rate for page in self._pages.values())
        return total / len(self._pages)

    def urls(self) -> Iterable[str]:
        """All page URLs attached to the site."""
        return self._pages.keys()
