"""Simulated web pages.

A :class:`SimulatedPage` is the ground-truth ("real world") object: it knows
when it was created, when (if ever) it disappears from its site's window,
how its content evolves over virtual time, and which pages it links to.

A page has no body: its content at an instant *is* its version, the number
of changes so far. Two fetches see the same content exactly when they see
the same version, so the version plays the part of the paper's checksum
(Section 5.3) without hashing anything.

Crawlers never read a page object directly; they receive a
:class:`PageSnapshot` from the fetch substrate, which is what an HTTP fetch
would have returned at that virtual instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.simweb.change_models import ChangeProcess


@dataclass(frozen=True)
class PageSnapshot:
    """What a fetch of a page returns at a particular virtual time.

    Attributes:
        url: The page URL.
        fetched_at: Virtual time (days) of the fetch.
        version: Content version at fetch time (0 for the original content).
        outlinks: URLs the page links to at fetch time.
    """

    url: str
    fetched_at: float
    version: int
    outlinks: Sequence[str]


class SimulatedPage:
    """Ground truth for a single page in the synthetic web.

    Args:
        url: Unique URL of the page.
        site_id: Identifier of the owning site.
        domain: Top-level domain of the owning site (com/edu/netorg/gov).
        depth: Breadth-first depth of the page below the site root (the root
            itself has depth 0). The monitoring window keeps the shallowest
            pages, mirroring the paper's "3,000 page window".
        created_at: Virtual day the page entered the window.
        lifespan: Visible lifespan in days, or ``None`` for a page that stays
            in the window for the whole simulation.
        change_process: The page's content change process. It must already be
            materialised (the generator materialises it over the horizon).
    """

    def __init__(
        self,
        url: str,
        site_id: str,
        domain: str,
        depth: int,
        created_at: float,
        lifespan: Optional[float],
        change_process: ChangeProcess,
    ) -> None:
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if created_at < 0:
            raise ValueError("created_at must be non-negative")
        if lifespan is not None and lifespan <= 0:
            raise ValueError("lifespan must be positive when given")
        self.url = url
        self.site_id = site_id
        self.domain = domain
        self.depth = depth
        self.created_at = created_at
        self.lifespan = lifespan
        self.change_process = change_process
        self._outlinks: List[str] = []
        self._outlinks_tuple: Optional[Sequence[str]] = None

    # ------------------------------------------------------------------ #
    # Existence
    # ------------------------------------------------------------------ #
    @property
    def deleted_at(self) -> Optional[float]:
        """Virtual day the page leaves the window, or None if it never does."""
        if self.lifespan is None:
            return None
        return self.created_at + self.lifespan

    def exists_at(self, t: float) -> bool:
        """True when the page is inside its site's window at time ``t``."""
        if t < self.created_at:
            return False
        deleted_at = self.deleted_at
        return deleted_at is None or t < deleted_at

    def visible_lifespan(self, horizon: float) -> float:
        """Number of days the page is visible within ``[0, horizon]``.

        This is the quantity the Section 3.2 lifespan analysis estimates; the
        ground-truth value is exposed for calibration tests.
        """
        start = min(self.created_at, horizon)
        end = horizon if self.deleted_at is None else min(self.deleted_at, horizon)
        return max(0.0, end - start)

    # ------------------------------------------------------------------ #
    # Content
    # ------------------------------------------------------------------ #
    @property
    def outlinks(self) -> Sequence[str]:
        """URLs this page links to (constant over the simulation).

        The tuple is cached: links are frozen once generation finishes, and
        the batched fetch path reads this per fetch.
        """
        if self._outlinks_tuple is None:
            self._outlinks_tuple = tuple(self._outlinks)
        return self._outlinks_tuple

    def set_outlinks(self, urls: Sequence[str]) -> None:
        """Set the page's out-links (called once by the web generator)."""
        self._outlinks = list(dict.fromkeys(urls))
        self._outlinks_tuple = None

    def add_outlink(self, url: str) -> None:
        """Append a single out-link if not already present."""
        if url not in self._outlinks:
            self._outlinks.append(url)
            self._outlinks_tuple = None

    def version_at(self, t: float) -> int:
        """Content version at time ``t`` (number of changes so far)."""
        return self.change_process.version_at(max(0.0, t - self.created_at))

    def change_times_array(self) -> np.ndarray:
        """The page's change times (relative to creation) as a cached array.

        Used by the batched :class:`~repro.simweb.web.SimulatedWeb` oracle to
        build its flat event arrays without touching per-call Python lists.
        """
        return self.change_process.change_times_array()

    def changed_between(self, t0: float, t1: float) -> bool:
        """True when the content changed in the interval ``(t0, t1]``."""
        return self.version_at(t1) != self.version_at(t0)

    def snapshot_at(self, t: float) -> PageSnapshot:
        """Build the :class:`PageSnapshot` a fetch at time ``t`` would return.

        Raises:
            LookupError: If the page does not exist at ``t``.
        """
        if not self.exists_at(t):
            raise LookupError(f"page {self.url} does not exist at t={t}")
        return PageSnapshot(
            url=self.url,
            fetched_at=t,
            version=self.version_at(t),
            outlinks=self.outlinks,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedPage(url={self.url!r}, domain={self.domain!r}, "
            f"depth={self.depth}, created_at={self.created_at}, "
            f"lifespan={self.lifespan})"
        )
