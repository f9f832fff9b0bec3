"""Collection quality.

The second goal of the incremental crawler (Section 5.1) is to "improve
quality of the local collection by replacing less-important pages with more
important ones". To evaluate that goal in the simulation, every page has a
ground-truth importance — PageRank over the *entire* synthetic web, which
the crawler never sees, cached on the web as
:meth:`~repro.simweb.web.SimulatedWeb.true_importance` — and a collection is
scored by how much of the best attainable importance mass it captures.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.simweb.web import SimulatedWeb


class CollectionQualityCache:
    """Repeated quality sampling against a fixed ground truth, made cheap.

    The best-``capacity`` attainable mass is computed once; each sample is
    then a single pass of dictionary lookups over the collection's URLs.

    Args:
        web: The synthetic web (ground truth).
        capacity: Collection capacity the denominator is computed for.
        subset: Optional URL universe the denominator is restricted to —
            a site-affine crawl shard can only ever collect pages of the
            sites it owns, so its attainable mass is the best ``capacity``
            pages *within that subset*. Importance itself stays the
            whole-web ground truth. ``None`` keeps the full-web denominator.
    """

    def __init__(
        self,
        web: SimulatedWeb,
        capacity: int,
        subset: Optional[Iterable[str]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._importance = web.true_importance()
        if subset is None:
            scores = list(self._importance.values())
        else:
            scores = [self._importance.get(url, 0.0) for url in subset]
        best_scores = sorted(scores, reverse=True)[:capacity]
        self._attainable = sum(best_scores)

    @property
    def importance(self) -> Dict[str, float]:
        """The ground-truth importance table (shared, do not mutate)."""
        return self._importance

    @property
    def attainable_mass(self) -> float:
        """The denominator: best-``capacity`` importance mass attainable."""
        return self._attainable

    def quality(self, collected_urls: Iterable[str]) -> float:
        """Quality of a collection given its current URLs.

        Returns a value in [0, 1]; 1 means the collection holds exactly the
        most important pages it could hold. Unknown URLs contribute nothing.
        """
        urls = list(collected_urls)
        if not urls:
            return 0.0
        achieved = sum(self._importance.get(url, 0.0) for url in urls)
        if self._attainable <= 0:
            return 0.0
        return min(1.0, achieved / self._attainable)
