"""Average change-interval analysis (Section 3.1, Figure 2).

For every observed page, the average change interval is estimated as the
observed span divided by the number of detected changes; pages with no
detected change fall into the ``> 4 months`` bucket (the paper cannot tell
how often such pages change either — it only knows the interval exceeds the
experiment length). The per-page estimates are then bucketed into the
Figure 2 histogram, overall and per domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.histograms import (
    CHANGE_INTERVAL_BUCKETS,
    BucketedHistogram,
)
from repro.experiment.monitor import ObservationLog, PageObservationHistory

@dataclass(frozen=True)
class ChangeIntervalAnalysis:
    """Result of the Figure 2 analysis.

    Attributes:
        overall: Histogram over all observed pages (Figure 2(a)).
        by_domain: Histogram per domain (Figure 2(b)).
        mean_interval_estimate_days: Crude estimate of the overall average
            change interval obtained the way the paper does it: assume the
            always-changing pages change every day and the never-changing
            pages change once a year.
    """

    overall: BucketedHistogram
    by_domain: Dict[str, BucketedHistogram]
    mean_interval_estimate_days: float

    def overall_fractions(self) -> Dict[str, float]:
        """Bucket label to fraction, over all domains."""
        return self.overall.labelled_fractions()

    def domain_fractions(self, domain: str) -> Dict[str, float]:
        """Bucket label to fraction for one domain."""
        return self.by_domain[domain].labelled_fractions()


def analyze_change_intervals(
    log: ObservationLog,
    assumed_fast_interval_days: float = 1.0,
    assumed_slow_interval_days: float = 365.0,
    min_days_observed: int = 2,
) -> ChangeIntervalAnalysis:
    """Build the Figure 2 histograms from an observation log.

    Args:
        log: The monitoring output.
        assumed_fast_interval_days: Interval assumed for pages that changed
            at every visit (the paper's "pages in the first bar change every
            day" approximation).
        assumed_slow_interval_days: Interval assumed for pages that never
            changed (the paper's "pages in the fifth bar change every year"
            approximation).
        min_days_observed: Pages observed fewer days than this are skipped —
            a single observation says nothing about change behaviour.

    Returns:
        The :class:`ChangeIntervalAnalysis`.
    """
    overall = BucketedHistogram(CHANGE_INTERVAL_BUCKETS)
    by_domain: Dict[str, BucketedHistogram] = {}
    crude_intervals: List[float] = []

    for history in log.pages.values():
        if history.days_observed < min_days_observed:
            continue
        interval = _estimated_interval(history)
        bucket_value = interval if interval is not None else float("inf")
        overall.add(bucket_value)
        domain_histogram = by_domain.setdefault(
            history.domain, BucketedHistogram(CHANGE_INTERVAL_BUCKETS)
        )
        domain_histogram.add(bucket_value)
        crude_intervals.append(
            _crude_interval(
                interval, assumed_fast_interval_days, assumed_slow_interval_days
            )
        )

    mean_estimate = (
        sum(crude_intervals) / len(crude_intervals) if crude_intervals else 0.0
    )
    return ChangeIntervalAnalysis(
        overall=overall,
        by_domain=by_domain,
        mean_interval_estimate_days=mean_estimate,
    )


def _estimated_interval(history: PageObservationHistory) -> Optional[float]:
    """Per-page average change interval, or None when no change was seen."""
    return history.average_change_interval()


def _crude_interval(
    interval: Optional[float],
    assumed_fast_interval_days: float,
    assumed_slow_interval_days: float,
) -> float:
    """The paper's crude overall-average approximation for one page."""
    if interval is None:
        return assumed_slow_interval_days
    if interval <= 1.0:
        return assumed_fast_interval_days
    return interval
