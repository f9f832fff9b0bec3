"""How long does it take for 50% of the web to change? (Section 3.3, Figure 5)

Starting from the pages present on the first day of the experiment, the
analysis tracks, for each subsequent day, the fraction of those pages that
have neither changed nor disappeared from the window. The day at which this
curve crosses 0.5 is the paper's "time for 50% of the web to change": about
50 days overall, only 11 days for the com domain and almost four months for
gov.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiment.monitor import ObservationLog, PageObservationHistory

@dataclass(frozen=True)
class SurvivalCurve:
    """Fraction of initially present pages still unchanged, per day."""

    days: Sequence[int]
    unchanged_fraction: Sequence[float]

    def half_change_day(self) -> Optional[float]:
        """First day at which at most half of the pages remain unchanged.

        Returns ``None`` when the curve never reaches 0.5 within the
        experiment (as the paper observed for the gov domain, where 50%
        change takes almost the full four months).
        """
        for day, fraction in zip(self.days, self.unchanged_fraction):
            if fraction <= 0.5:
                return float(day)
        return None

    def fraction_at(self, day: int) -> float:
        """Unchanged fraction at ``day`` (clamped to the curve's range)."""
        if not self.days:
            return 0.0
        if day <= self.days[0]:
            return self.unchanged_fraction[0]
        for d, fraction in zip(self.days, self.unchanged_fraction):
            if d >= day:
                return fraction
        return self.unchanged_fraction[-1]


@dataclass(frozen=True)
class SurvivalAnalysis:
    """Result of the Figure 5 analysis.

    Attributes:
        overall: Survival curve over all domains (Figure 5(a)).
        by_domain: Survival curve per domain (Figure 5(b)).
    """

    overall: SurvivalCurve
    by_domain: Dict[str, SurvivalCurve]

    def half_change_days(self) -> Dict[str, Optional[float]]:
        """Days to 50% change, overall and per domain."""
        result: Dict[str, Optional[float]] = {"overall": self.overall.half_change_day()}
        for domain, curve in self.by_domain.items():
            result[domain] = curve.half_change_day()
        return result


def analyze_survival(log: ObservationLog) -> SurvivalAnalysis:
    """Build the Figure 5 survival curves from an observation log."""
    initial_pages = log.pages_present_at_start()
    days = list(range(log.start_day, log.end_day + 1))
    overall = _survival_curve(initial_pages, days, log.start_day)
    by_domain: Dict[str, SurvivalCurve] = {}
    for domain in sorted({history.domain for history in initial_pages}):
        domain_pages = [
            history for history in initial_pages if history.domain == domain
        ]
        by_domain[domain] = _survival_curve(domain_pages, days, log.start_day)
    return SurvivalAnalysis(overall=overall, by_domain=by_domain)


def _survival_curve(
    pages: List[PageObservationHistory], days: Sequence[int], start_day: int
) -> SurvivalCurve:
    """Fraction of ``pages`` unchanged and still present on each day."""
    if not pages:
        return SurvivalCurve(days=tuple(days), unchanged_fraction=tuple(0.0 for _ in days))
    # A page "survives" until its first detected change or its disappearance
    # from the window, whichever comes first.
    survival_end: List[float] = []
    for history in pages:
        first_change = history.change_days[0] if history.change_days else None
        disappearance = (
            history.last_seen_day + 1
            if history.last_seen_day is not None
            else None
        )
        candidates = [c for c in (first_change, disappearance) if c is not None]
        survival_end.append(min(candidates) if candidates else float("inf"))
    fractions = []
    n = len(pages)
    for day in days:
        surviving = sum(1 for end in survival_end if end > day)
        fractions.append(surviving / n)
    return SurvivalCurve(days=tuple(days), unchanged_fraction=tuple(fractions))
