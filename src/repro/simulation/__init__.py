"""Crawl simulation: Monte-Carlo policy runs, event streams, freshness.

The analytic freshness formulas of :mod:`repro.freshness.analytic` assume an
idealised crawler; this package provides a Monte-Carlo simulator that plays
out the same policies against sampled Poisson change processes, which serves
two purposes:

* it cross-checks the closed-form results (the integration tests assert the
  simulator and the formulas agree within sampling noise);
* it evaluates policies the formulas do not cover, such as arbitrary
  per-page revisit allocations (used in the Figure 9/10 benchmarks).

It also contains the event-stream scheduler and the freshness tracker that
the incremental-crawler architecture in :mod:`repro.core` runs on.
"""

from repro.simulation.freshness_tracker import FreshnessTimeSeries, FreshnessTracker
from repro.simulation.crawler_sim import (
    PolicySimulationResult,
    simulate_crawl_policy,
    simulate_revisit_allocation,
)
from repro.simulation.scenarios import (
    paper_table2_policies,
    sensitivity_example_policies,
    table2_scenario_rate,
)

__all__ = [
    "FreshnessTracker",
    "FreshnessTimeSeries",
    "PolicySimulationResult",
    "simulate_crawl_policy",
    "simulate_revisit_allocation",
    "paper_table2_policies",
    "sensitivity_example_policies",
    "table2_scenario_rate",
]
