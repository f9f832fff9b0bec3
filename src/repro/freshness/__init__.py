"""Freshness and age models (Section 4, Figures 7-9, Table 2).

The paper evaluates crawl-policy choices with the *freshness* metric of
[CGM99b]: the fraction of pages in the local collection whose stored copy
equals the live page. This package provides

* empirical freshness/age of a collection against the simulated-web oracle
  (:mod:`repro.freshness.metrics`);
* closed-form freshness/age under the Poisson change model for the four
  policy combinations — steady/batch crossed with in-place/shadowing —
  both time-averaged values and instantaneous trajectories
  (:mod:`repro.freshness.analytic`), which generate Figures 7 and 8 and
  Table 2;
* the freshness-optimal allocation of revisit frequencies under a bandwidth
  constraint (:mod:`repro.freshness.optimal_allocation`), which generates
  the Figure 9 curve and the 10-23% improvement claim;
* revisit policies (uniform, proportional, optimal) that the UpdateModule
  can plug in (:mod:`repro.freshness.policies`).
"""

from repro.freshness.metrics import (
    collection_age,
    collection_freshness,
    measure_collection,
    time_average,
)
from repro.freshness.analytic import (
    CrawlMode,
    CrawlPolicy,
    UpdateMode,
    batch_inplace_freshness_at,
    batch_shadow_freshness_at,
    expected_age_periodic,
    expected_freshness_periodic,
    expected_freshness_poisson_revisit,
    freshness_trajectory,
    steady_inplace_freshness_at,
    steady_shadow_freshness_at,
    time_averaged_freshness,
)
from repro.freshness.optimal_allocation import (
    optimal_frequency_curve,
    optimal_revisit_frequencies,
    proportional_revisit_frequencies,
    total_freshness,
    uniform_revisit_frequencies,
)
from repro.freshness.policies import (
    OptimalRevisitPolicy,
    ProportionalRevisitPolicy,
    RevisitPolicy,
    UniformRevisitPolicy,
)

__all__ = [
    "collection_freshness",
    "collection_age",
    "measure_collection",
    "time_average",
    "CrawlMode",
    "UpdateMode",
    "CrawlPolicy",
    "expected_freshness_periodic",
    "expected_age_periodic",
    "expected_freshness_poisson_revisit",
    "time_averaged_freshness",
    "freshness_trajectory",
    "steady_inplace_freshness_at",
    "batch_inplace_freshness_at",
    "steady_shadow_freshness_at",
    "batch_shadow_freshness_at",
    "optimal_revisit_frequencies",
    "optimal_frequency_curve",
    "uniform_revisit_frequencies",
    "proportional_revisit_frequencies",
    "total_freshness",
    "RevisitPolicy",
    "UniformRevisitPolicy",
    "ProportionalRevisitPolicy",
    "OptimalRevisitPolicy",
]
