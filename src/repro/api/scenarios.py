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
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api.registry import ESTIMATORS, REVISIT_POLICIES, register_scenario
from repro.api.specs import CrawlerSpec, FaultModelSpec, FaultsSpec, PolicySpec, RetrySpec
from repro.core.incremental_crawler import IncrementalCrawler
from repro.freshness.analytic import freshness_trajectory, time_averaged_freshness
from repro.freshness.analytic import (
    batch_inplace_freshness_at,
    batch_shadow_freshness_at,
    steady_inplace_freshness_at,
    steady_shadow_freshness_at,
)
from repro.freshness.optimal_allocation import total_freshness
from repro.simulation.crawler_sim import simulate_crawl_policy, simulate_revisit_allocation
from repro.simulation.scenarios import (
    PAPER_SENSITIVITY_FRESHNESS,
    PAPER_TABLE2_FRESHNESS,
    figure7_change_rate,
    figure7_policies,
    figure8_policies,
    paper_table2_policies,
    sensitivity_example_policies,
    sensitivity_scenario_rate,
    table2_scenario_rate,
)
from repro.simweb.domains import sample_calibrated_rates
from repro.simweb.generator import WebGeneratorConfig, generate_web


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
# Section 5: polite incremental crawling
# --------------------------------------------------------------------- #
@register_scenario("polite-crawl")
def polite_crawl(
    site_scale: float = 0.05,
    pages_per_site: int = 12,
    duration_days: float = 10.0,
    collection_capacity: int = 60,
    crawl_budget_per_day: float = 300.0,
    min_delay_seconds: float = 10.0,
    night_window: bool = True,
    revisit_policy: str = "optimal",
    estimator: str = "ep",
    seed: int = 31,
) -> Dict[str, Any]:
    """Incremental crawl under the paper's politeness constraints.

    Runs the Section 5 incremental crawler twice on the same synthetic
    multi-site web — once unconstrained, once with the per-site minimum
    delay and (optionally) the nightly crawl window — so the freshness
    cost of politeness is directly visible. Politeness is resolved inside
    the crawl loop's one replay.

    Args:
        site_scale: Site-count scale of the generated web.
        pages_per_site: Mean pages per generated site.
        duration_days: Virtual days to crawl.
        collection_capacity: Target collection size.
        crawl_budget_per_day: Pages fetched per virtual day.
        min_delay_seconds: Minimum (virtual) seconds between two requests
            to one site; the paper used 10.
        night_window: Also restrict fetching to the nightly crawl window.
        revisit_policy: Registered revisit-policy name.
        estimator: Registered change-rate estimator name.
        seed: Web-generation seed.
    """
    policy = PolicySpec(revisit_policy=revisit_policy, estimator=estimator)
    web_config = WebGeneratorConfig(
        site_scale=site_scale,
        pages_per_site=pages_per_site,
        horizon_days=duration_days + 30.0,
        seed=seed,
    )

    def _run(polite: bool):
        crawler = IncrementalCrawler(
            generate_web(web_config),
            CrawlerSpec(
                collection_capacity=collection_capacity,
                crawl_budget_per_day=crawl_budget_per_day,
                measurement_interval_days=0.5,
                track_quality=False,
                use_politeness=polite,
                politeness_min_delay_seconds=min_delay_seconds,
                politeness_night_window=night_window,
            ),
            policy,
        )
        return crawler.run(duration_days)

    impolite = _run(False)
    polite = _run(True)
    series: Dict[str, List[float]] = {}
    for name, outcome in (("impolite", impolite), ("polite", polite)):
        times, freshness = outcome.freshness.as_series()
        series[f"{name}/times"] = [float(t) for t in times]
        series[f"{name}/freshness"] = [float(f) for f in freshness]
    return {
        "series": series,
        "summary": {
            "min_delay_seconds": min_delay_seconds,
            "night_window": night_window,
            "duration_days": duration_days,
            "pages_crawled_impolite": impolite.pages_crawled,
            "pages_crawled_polite": polite.pages_crawled,
        },
        "tables": {
            "mean_freshness": {
                "impolite": impolite.mean_freshness(),
                "polite": polite.mean_freshness(),
            },
            "changes_detected": {
                "impolite": impolite.changes_detected,
                "polite": polite.changes_detected,
            },
        },
    }


# --------------------------------------------------------------------- #
# Fault regimes: which policies/estimators degrade under failures
# --------------------------------------------------------------------- #
#: Default fault regimes of the ``chaos-crawl`` scenario, each a stack of
#: ``(kind, params)`` fault models (see :data:`repro.api.registry.FAULT_MODELS`).
DEFAULT_CHAOS_REGIMES: Dict[str, List] = {
    "transient": [("transient", {"rate": 0.1})],
    "outages": [
        ("site_outage", {"rate": 0.3, "period_days": 5.0, "duration_days": 1.0})
    ],
    "rate_limited": [("rate_limit", {"rate": 0.1, "retry_after_days": 0.5})],
    "soft_404": [("soft_404", {"rate": 0.08, "flap_period_days": 3.0})],
}


@register_scenario("chaos-crawl")
def chaos_crawl(
    site_scale: float = 0.03,
    pages_per_site: int = 10,
    duration_days: float = 15.0,
    collection_capacity: int = 80,
    crawl_budget_per_day: float = 300.0,
    policies: Sequence[str] = ("uniform", "optimal"),
    estimators: Sequence[str] = ("ep", "eb"),
    regimes: Optional[Dict[str, Sequence]] = None,
    fault_seed: int = 3,
    max_attempts: int = 3,
    seed: int = 31,
) -> Dict[str, Any]:
    """Incremental crawls under seeded fault regimes, per policy/estimator.

    Runs every ``revisit policy x estimator`` combination once without
    faults and once per fault regime on the same synthetic web, with the
    failure-aware engine (retry, backoff, circuit breaker) armed for the
    faulty runs. The result tables show which combinations degrade under
    which failure mode — e.g. soft-404 flapping hurts change-frequency
    estimators more than correlated site outages do.

    Args:
        site_scale: Site-count scale of the generated web.
        pages_per_site: Mean pages per generated site.
        duration_days: Virtual days to crawl.
        collection_capacity: Target collection size.
        crawl_budget_per_day: Pages fetched per virtual day.
        policies: Registered revisit-policy names to cross.
        estimators: Registered change-rate estimator names to cross.
        regimes: ``name -> list of (kind, params)`` fault-model stacks;
            defaults to :data:`DEFAULT_CHAOS_REGIMES`.
        fault_seed: Seed of the fault layer and retry jitter.
        max_attempts: Retry attempts per URL in the faulty runs.
        seed: Web-generation seed.
    """
    for name in policies:
        REVISIT_POLICIES.validate(name)
    for name in estimators:
        ESTIMATORS.validate(name)
    if regimes is None:
        regimes = DEFAULT_CHAOS_REGIMES
    regime_faults = {
        str(name): FaultsSpec(
            models=tuple(
                FaultModelSpec(kind=str(kind), params=dict(params))
                for kind, params in models
            ),
            seed=fault_seed,
        )
        for name, models in regimes.items()
    }
    web_config = WebGeneratorConfig(
        site_scale=site_scale,
        pages_per_site=pages_per_site,
        horizon_days=duration_days + 30.0,
        seed=seed,
    )

    def _run(policy: str, estimator: str, faults: Optional[FaultsSpec]):
        crawler = IncrementalCrawler(
            generate_web(web_config),
            CrawlerSpec(
                collection_capacity=collection_capacity,
                crawl_budget_per_day=crawl_budget_per_day,
                measurement_interval_days=0.5,
                track_quality=False,
                faults=faults,
                retry=RetrySpec(max_attempts=max_attempts) if faults else None,
            ),
            PolicySpec(revisit_policy=policy, estimator=estimator),
        )
        outcome = crawler.run(duration_days)
        return outcome, crawler.failure_counters()

    mean_freshness: Dict[str, Dict[str, float]] = {}
    degradation: Dict[str, Dict[str, float]] = {}
    failures: Dict[str, Dict[str, int]] = {}
    for policy in policies:
        for estimator in estimators:
            combo = f"{policy}/{estimator}"
            baseline, _ = _run(policy, estimator, None)
            base = baseline.mean_freshness()
            mean_freshness[combo] = {"none": base}
            degradation[combo] = {}
            for regime, faults in regime_faults.items():
                outcome, counters = _run(policy, estimator, faults)
                value = outcome.mean_freshness()
                mean_freshness[combo][regime] = value
                degradation[combo][regime] = base - value
                failures[f"{combo}/{regime}"] = counters
    worst: Dict[str, Dict[str, Any]] = {}
    for regime in regime_faults:
        combo = max(degradation, key=lambda c: degradation[c][regime])
        worst[regime] = {
            "combo": combo,
            "freshness_loss": degradation[combo][regime],
        }
    return {
        "summary": {
            "duration_days": duration_days,
            "regimes": sorted(regime_faults),
            "combos": sorted(mean_freshness),
            "worst_degradation": worst,
        },
        "tables": {
            "mean_freshness": mean_freshness,
            "degradation": degradation,
            "failures": failures,
        },
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
