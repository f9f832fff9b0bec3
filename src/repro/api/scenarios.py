"""The paper's canned experiments as named scenario registry entries.

Each scenario is a plain function registered in
:data:`repro.api.registry.SCENARIOS`. Scenarios take keyword parameters
(everything has a default, so a bare ``{"kind": "scenario", "scenario":
"table2"}`` spec reproduces the numbers the paper-claims tests assert) and
return a JSON-serializable payload

``{"series": {...}, "summary": {...}, "tables": {...}}``

that :func:`repro.api.runner.run` wraps into an
:class:`~repro.api.runner.ExperimentResult`. All Monte-Carlo work routes
through the vectorized kernels of :mod:`repro.simulation.crawler_sim` and
:mod:`repro.freshness.optimal_allocation`.

The module also holds the paper's Section 4 parameters, so the scenarios,
tests and examples all agree on them. Table 2 assumes that "all pages
change with an average 4 month interval", that "the steady crawler
revisits pages steadily over a month", and that "the batch-mode crawler
recrawls pages only in the first week of every month". The sensitivity
example uses pages that change every month and a batch crawler that works
for the first two weeks of each month.

Crawl experiments are specs, not scenarios: a sweep over crawl settings is
a :class:`~repro.api.runner.ScenarioMatrix` (``examples/specs/
polite_crawl.json`` and ``chaos_sweep.json``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api.registry import REVISIT_POLICIES, register_scenario
from repro.freshness.analytic import (
    CrawlMode,
    CrawlPolicy,
    UpdateMode,
    batch_inplace_freshness_at,
    batch_shadow_freshness_at,
    freshness_trajectory,
    steady_inplace_freshness_at,
    steady_shadow_freshness_at,
    time_averaged_freshness,
)
from repro.freshness.optimal_allocation import total_freshness
from repro.simulation.crawler_sim import simulate_crawl_policy, simulate_revisit_allocation
from repro.simweb.domains import sample_calibrated_rates


# --------------------------------------------------------------------- #
# Section 4 parameters
# --------------------------------------------------------------------- #
#: Days per month used by the Section 4 scenarios.
DAYS_PER_MONTH = 30.0

#: The paper's Table 2 values, for paper-vs-measured comparisons.
PAPER_TABLE2_FRESHNESS: Dict[str, float] = {
    "steady / in-place": 0.88,
    "batch / in-place": 0.88,
    "steady / shadowing": 0.77,
    "batch / shadowing": 0.86,
}

#: The paper's sensitivity-example values (Section 4, design choice 2).
PAPER_SENSITIVITY_FRESHNESS: Dict[str, float] = {
    "batch / in-place": 0.63,
    "batch / shadowing": 0.50,
}


def table2_scenario_rate() -> float:
    """Page change rate of the Table 2 scenario (4-month mean interval)."""
    return 1.0 / (4.0 * DAYS_PER_MONTH)


def sensitivity_scenario_rate() -> float:
    """Page change rate of the sensitivity example (1-month mean interval)."""
    return 1.0 / DAYS_PER_MONTH


def paper_table2_policies() -> Dict[str, CrawlPolicy]:
    """The four Table 2 policy combinations with the paper's parameters."""
    cycle = DAYS_PER_MONTH
    batch_duration = 7.0
    return {
        "steady / in-place": CrawlPolicy(
            CrawlMode.STEADY, UpdateMode.IN_PLACE, cycle_days=cycle
        ),
        "batch / in-place": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.IN_PLACE, cycle_days=cycle,
            batch_duration_days=batch_duration,
        ),
        "steady / shadowing": CrawlPolicy(
            CrawlMode.STEADY, UpdateMode.SHADOW, cycle_days=cycle
        ),
        "batch / shadowing": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.SHADOW, cycle_days=cycle,
            batch_duration_days=batch_duration,
        ),
    }


def sensitivity_example_policies() -> Dict[str, CrawlPolicy]:
    """The two policies of the Section 4 sensitivity example.

    Pages change every month; the batch crawler operates for the first two
    weeks of each monthly cycle.
    """
    cycle = DAYS_PER_MONTH
    batch_duration = 14.0
    return {
        "batch / in-place": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.IN_PLACE, cycle_days=cycle,
            batch_duration_days=batch_duration,
        ),
        "batch / shadowing": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.SHADOW, cycle_days=cycle,
            batch_duration_days=batch_duration,
        ),
    }


def figure7_policies() -> Dict[str, CrawlPolicy]:
    """Policies for the Figure 7 trajectories (batch vs. steady, in place).

    The paper notes it uses "a high page change rate to obtain curves that
    more clearly show the trends"; the scenario uses a rate of one change
    per week with a monthly cycle and a one-week batch window.
    """
    return {
        "batch-mode": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.IN_PLACE, cycle_days=DAYS_PER_MONTH,
            batch_duration_days=7.0,
        ),
        "steady": CrawlPolicy(
            CrawlMode.STEADY, UpdateMode.IN_PLACE, cycle_days=DAYS_PER_MONTH
        ),
    }


def figure8_policies() -> Dict[str, CrawlPolicy]:
    """Policies for the Figure 8 trajectories (shadowing variants)."""
    return {
        "steady with shadowing": CrawlPolicy(
            CrawlMode.STEADY, UpdateMode.SHADOW, cycle_days=DAYS_PER_MONTH
        ),
        "batch-mode with shadowing": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.SHADOW, cycle_days=DAYS_PER_MONTH,
            batch_duration_days=7.0,
        ),
    }


def figure7_change_rate() -> float:
    """The illustrative (high) change rate used for Figures 7 and 8."""
    return 1.0 / 7.0


# --------------------------------------------------------------------- #
# Table 2 and the Section 4 sensitivity example
# --------------------------------------------------------------------- #
@register_scenario("table2")
def table2(n_pages: int = 500, n_cycles: int = 8, seed: int = 21,
           simulate: bool = True) -> Dict[str, Any]:
    """Table 2: freshness of the four design-choice combinations.

    All pages change with a four-month mean interval; every page is
    revisited once per monthly cycle; the batch crawler works in the first
    week of the cycle. Analytic values come from the closed forms, measured
    values from the vectorized Monte-Carlo simulator.
    """
    rate = table2_scenario_rate()
    policies = paper_table2_policies()
    analytic = {
        name: time_averaged_freshness(policy, rate) for name, policy in policies.items()
    }
    simulated: Dict[str, float] = {}
    if simulate:
        simulated = {
            name: simulate_crawl_policy(
                [rate] * n_pages, policy, n_cycles=n_cycles, seed=seed
            ).mean_freshness
            for name, policy in policies.items()
        }
    return {
        "summary": {"scenario_rate_per_day": rate, "n_pages": n_pages},
        "tables": {
            "paper": dict(PAPER_TABLE2_FRESHNESS),
            "analytic": analytic,
            "simulated": simulated,
        },
    }


@register_scenario("sensitivity")
def sensitivity() -> Dict[str, Any]:
    """Section 4 sensitivity example: monthly changes, two-week batch crawl."""
    rate = sensitivity_scenario_rate()
    analytic = {
        name: time_averaged_freshness(policy, rate)
        for name, policy in sensitivity_example_policies().items()
    }
    return {
        "summary": {"scenario_rate_per_day": rate},
        "tables": {
            "paper": dict(PAPER_SENSITIVITY_FRESHNESS),
            "analytic": analytic,
        },
    }


# --------------------------------------------------------------------- #
# Figures 7 and 8: freshness evolution
# --------------------------------------------------------------------- #
@register_scenario("figure7")
def figure7(rate: Optional[float] = None, duration_days: float = 90.0,
            n_points: int = 90, n_pages: int = 300, n_cycles: int = 6,
            seed: int = 7) -> Dict[str, Any]:
    """Figure 7: batch-mode saw-tooth vs. steady stability, in-place updates.

    Returns the analytic trajectories as series (``"<name>/times"`` /
    ``"<name>/freshness"``) plus analytic and simulated time averages.
    """
    rate = figure7_change_rate() if rate is None else rate
    policies = figure7_policies()
    series: Dict[str, List[float]] = {}
    analytic_mean: Dict[str, float] = {}
    simulated_mean: Dict[str, float] = {}
    for name, policy in policies.items():
        times, values = freshness_trajectory(
            policy, rate, duration_days=duration_days, n_points=n_points
        )
        series[f"{name}/times"] = list(times)
        series[f"{name}/freshness"] = list(values)
        analytic_mean[name] = time_averaged_freshness(policy, rate)
        simulated_mean[name] = simulate_crawl_policy(
            [rate] * n_pages, policy, n_cycles=n_cycles, seed=seed
        ).mean_freshness
    return {
        "series": series,
        "summary": {"rate_per_day": rate},
        "tables": {"analytic_mean": analytic_mean, "simulated_mean": simulated_mean},
    }


@register_scenario("figure8")
def figure8(variant: str = "steady", rate: Optional[float] = None,
            n_points: Optional[int] = None) -> Dict[str, Any]:
    """Figure 8: shadowing vs. in-place freshness trajectories.

    Args:
        variant: ``"steady"`` (Figure 8(a): crawler's and current collection
            over two cycles, plus the in-place curve) or ``"batch"``
            (Figure 8(b): shadowed vs. in-place current collection over one
            cycle).
        rate: Page change rate; defaults to the illustrative Figure 7 rate.
        n_points: Trajectory points; defaults to 401 for steady and 301
            for batch.
    """
    if variant not in ("steady", "batch"):
        raise ValueError('variant must be "steady" or "batch"')
    rate = figure7_change_rate() if rate is None else rate
    policy = figure8_policies()[
        "steady with shadowing" if variant == "steady" else "batch-mode with shadowing"
    ]
    cycle = policy.cycle_days
    series: Dict[str, List[float]] = {}
    if variant == "steady":
        n_points = 401 if n_points is None else n_points
        times = [2.0 * cycle * i / (n_points - 1) for i in range(n_points)]
        series["times"] = times
        series["crawler"] = [
            steady_shadow_freshness_at(t, rate, cycle, "crawler") for t in times
        ]
        series["current"] = [
            steady_shadow_freshness_at(t, rate, cycle, "current") for t in times
        ]
        series["in_place"] = [
            steady_inplace_freshness_at(t, rate, cycle) for t in times
        ]
    else:
        batch = policy.batch_duration_days
        n_points = 301 if n_points is None else n_points
        times = [cycle * i / (n_points - 1) for i in range(n_points)]
        series["times"] = times
        series["current"] = [
            batch_shadow_freshness_at(t, rate, cycle, batch, "current") for t in times
        ]
        series["in_place"] = [
            batch_inplace_freshness_at(t, rate, cycle, batch) for t in times
        ]
    gap = [i - c for i, c in zip(series["in_place"], series["current"])]
    return {
        "series": series,
        "summary": {
            "variant": variant,
            "rate_per_day": rate,
            "cycle_days": cycle,
            "min_inplace_advantage": min(gap),
            "max_inplace_advantage": max(gap),
        },
        "tables": {},
    }


# --------------------------------------------------------------------- #
# Figure 10 / Section 4.3: revisit-frequency policies
# --------------------------------------------------------------------- #
@register_scenario("revisit-policies")
def revisit_policies(
    policy: Union[str, Sequence[str]] = ("uniform", "proportional", "optimal"),
    n_pages: int = 400,
    rates_seed: int = 5,
    budget_days_per_page: float = 15.0,
    duration_days: float = 240.0,
    n_samples: int = 200,
    sim_seed: int = 9,
    simulate: bool = True,
) -> Dict[str, Any]:
    """Section 4.3 / Figure 10: fixed vs. proportional vs. optimal revisits.

    One calibrated-rate population is drawn and shared by every requested
    policy; each policy's allocation is solved by the corresponding
    vectorized kernel and evaluated both analytically
    (:func:`total_freshness`) and with the Monte-Carlo allocation simulator.

    Args:
        policy: One registered policy name or a list of them, all
            evaluated on the same rate population.
        n_pages: Population size drawn from the calibrated domain mix.
        rates_seed: Seed of the rate-population draw.
        budget_days_per_page: The crawl budget expressed as "each page can
            be visited once every this many days on average".
        duration_days: Monte-Carlo measurement window.
        n_samples: Monte-Carlo freshness samples.
        sim_seed: Monte-Carlo seed.
        simulate: Skip the Monte-Carlo pass when False.
    """
    names = [policy] if isinstance(policy, str) else list(policy)
    policies = {name: REVISIT_POLICIES.create(name) for name in names}
    rates = sample_calibrated_rates(n_pages, seed=rates_seed)
    rate_map = {f"page{index:05d}": rate for index, rate in enumerate(rates)}
    budget = len(rates) / budget_days_per_page
    analytic: Dict[str, float] = {}
    simulated: Dict[str, float] = {}
    for name, policy_impl in policies.items():
        frequency_map = policy_impl.frequencies(rate_map, budget)
        frequencies = [frequency_map[url] for url in rate_map]
        analytic[name] = total_freshness(rates, frequencies)
        if simulate:
            # Raw reciprocal intervals (no MAX_REVISIT_INTERVAL_DAYS cap):
            # a zero-frequency page is genuinely never revisited here.
            intervals = [1.0 / f if f > 0 else float("inf") for f in frequencies]
            simulated[name] = simulate_revisit_allocation(
                rates, intervals, duration_days=duration_days,
                n_samples=n_samples, seed=sim_seed,
            ).mean_freshness
    return {
        "summary": {
            "n_pages": len(rates),
            "budget_per_day": budget,
            "policies": names,
        },
        "tables": {"analytic": analytic, "simulated": simulated},
    }
