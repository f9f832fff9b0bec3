"""Revisit policies the UpdateModule can plug in.

A revisit policy turns per-page change-rate estimates (and optionally
importance scores) into per-page revisit intervals under a crawl bandwidth
budget. Three policies are provided, matching the Section 4 discussion:

* :class:`UniformRevisitPolicy` — the fixed-frequency policy (every page at
  the same interval), natural for a batch-mode crawler;
* :class:`ProportionalRevisitPolicy` — visit a page more often the more it
  changes; intuitive but suboptimal, as the paper's two-page example shows;
* :class:`OptimalRevisitPolicy` — the freshness-optimal allocation of
  [CGM99b] (Figure 9), optionally importance-weighted.

Each policy registers itself in :data:`repro.api.registry.REVISIT_POLICIES`
under its configuration name (``"uniform"``, ``"proportional"``,
``"optimal"``); :meth:`repro.api.specs.PolicySpec.build_revisit_policy`
resolves a spec's name to a policy instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional

from repro.api.registry import register_revisit_policy
from repro.freshness.optimal_allocation import (
    optimal_revisit_frequencies,
    proportional_revisit_frequencies,
    uniform_revisit_frequencies,
)

#: Interval assigned to pages the policy decides never to revisit. Keeping it
#: finite (rather than infinite) means even "hopeless" pages are eventually
#: re-checked, which lets the crawler notice estimation errors.
MAX_REVISIT_INTERVAL_DAYS = 365.0


class RevisitPolicy(ABC):
    """Maps change-rate estimates to revisit intervals under a budget."""

    @abstractmethod
    def frequencies(
        self,
        rates: Mapping[str, float],
        budget_per_day: float,
        importance: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Per-URL revisit frequencies (visits per day) summing to the budget.

        Args:
            rates: Mapping from URL to estimated change rate (changes/day).
            budget_per_day: Total page fetches per day available for
                refreshing.
            importance: Optional per-URL importance weights.

        Returns:
            Mapping from URL to revisit frequency.

        Raises:
            ValueError: If a rate is negative, or the budget is not positive
                while there are pages (checked once, by the allocation
                function the policy calls).
        """

    def intervals(
        self,
        rates: Mapping[str, float],
        budget_per_day: float,
        importance: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Per-URL revisit intervals in days (capped at a year).

        Pages the policy assigns zero frequency get
        :data:`MAX_REVISIT_INTERVAL_DAYS`.
        """
        frequencies = self.frequencies(rates, budget_per_day, importance)
        intervals: Dict[str, float] = {}
        for url, frequency in frequencies.items():
            if frequency <= 0:
                intervals[url] = MAX_REVISIT_INTERVAL_DAYS
            else:
                intervals[url] = min(MAX_REVISIT_INTERVAL_DAYS, 1.0 / frequency)
        return intervals


@register_revisit_policy("uniform")
class UniformRevisitPolicy(RevisitPolicy):
    """Every page is revisited at the same frequency (fixed-frequency)."""

    def frequencies(
        self,
        rates: Mapping[str, float],
        budget_per_day: float,
        importance: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        urls = list(rates.keys())
        values = uniform_revisit_frequencies([rates[url] for url in urls], budget_per_day)
        return dict(zip(urls, values))


@register_revisit_policy("proportional")
class ProportionalRevisitPolicy(RevisitPolicy):
    """Revisit frequency proportional to the estimated change rate."""

    def frequencies(
        self,
        rates: Mapping[str, float],
        budget_per_day: float,
        importance: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        urls = list(rates.keys())
        values = proportional_revisit_frequencies(
            [rates[url] for url in urls], budget_per_day
        )
        return dict(zip(urls, values))


@register_revisit_policy("optimal")
class OptimalRevisitPolicy(RevisitPolicy):
    """Freshness-optimal allocation, optionally importance-weighted.

    Args:
        use_importance: When True and importance scores are provided, the
            allocation maximises importance-weighted freshness, implementing
            the Section 5.3 remark that highly important pages may deserve
            more frequent revisits than their change rate alone would
            justify.
    """

    def __init__(self, use_importance: bool = False) -> None:
        self.use_importance = use_importance

    def frequencies(
        self,
        rates: Mapping[str, float],
        budget_per_day: float,
        importance: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        urls = list(rates.keys())
        weights = None
        if self.use_importance and importance:
            # Guard against all-zero importance (e.g. before the first
            # PageRank computation) which would starve every page.
            raw = [max(0.0, importance.get(url, 0.0)) for url in urls]
            if any(weight > 0 for weight in raw):
                floor = max(raw) * 1e-3 if max(raw) > 0 else 1.0
                weights = [max(weight, floor) for weight in raw]
        values = optimal_revisit_frequencies(
            [rates[url] for url in urls], budget_per_day, weights=weights
        )
        return dict(zip(urls, values))

