"""Visible-lifespan analysis (Section 3.2, Figure 4).

The visible lifespan of a page is how long it stays inside its site's
monitoring window. Because the experiment ran for a finite period, lifespans
are censored (Figure 3): pages present on the first day may have existed
long before, and pages present on the last day may persist long after. The
paper handles this with two estimates:

* **Method 1** uses the observed span ``s`` as the lifespan;
* **Method 2** uses ``2s`` for pages whose span touches either end of the
  experiment (cases (a), (c) and (d) of Figure 3) and ``s`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.histograms import LIFESPAN_BUCKETS, BucketedHistogram
from repro.experiment.monitor import ObservationLog, PageObservationHistory

@dataclass(frozen=True)
class LifespanAnalysis:
    """Result of the Figure 4 analysis.

    Attributes:
        method1_overall: Lifespan histogram using Method 1 (span as is).
        method2_overall: Lifespan histogram using Method 2 (censored spans
            doubled).
        method1_by_domain: Method 1 histogram per domain (Figure 4(b)).
        censored_fraction: Fraction of observed pages whose span touches an
            end of the experiment (the pages the two methods disagree on).
    """

    method1_overall: BucketedHistogram
    method2_overall: BucketedHistogram
    method1_by_domain: Dict[str, BucketedHistogram]
    censored_fraction: float

    def fraction_longer_than_a_month_method1(self) -> float:
        """Fraction of pages visible for more than one month (Method 1)."""
        fractions = self.method1_overall.labelled_fractions()
        return fractions[">1month,<=4months"] + fractions[">4months"]


def analyze_lifespans(log: ObservationLog) -> LifespanAnalysis:
    """Build the Figure 4 histograms from an observation log."""
    method1 = BucketedHistogram(LIFESPAN_BUCKETS)
    method2 = BucketedHistogram(LIFESPAN_BUCKETS)
    by_domain: Dict[str, BucketedHistogram] = {}
    censored_count = 0
    total = 0

    for history in log.pages.values():
        span = float(history.observed_span_days)
        censored = _is_censored(history, log)
        method1.add(span)
        method2.add(2.0 * span if censored else span)
        domain_histogram = by_domain.setdefault(
            history.domain, BucketedHistogram(LIFESPAN_BUCKETS)
        )
        domain_histogram.add(span)
        censored_count += 1 if censored else 0
        total += 1

    censored_fraction = censored_count / total if total else 0.0
    return LifespanAnalysis(
        method1_overall=method1,
        method2_overall=method2,
        method1_by_domain=by_domain,
        censored_fraction=censored_fraction,
    )


def _is_censored(history: PageObservationHistory, log: ObservationLog) -> bool:
    """True when the page's span touches either end of the experiment.

    These are the Figure 3 cases (a), (c) and (d): the page already existed
    when monitoring started and/or still existed when monitoring ended, so
    its true lifespan is only known to be at least the observed span.
    """
    starts_at_beginning = history.first_seen_day <= log.start_day
    ends_at_end = history.last_seen_day >= log.end_day
    return starts_at_beginning or ends_at_end
