"""The paper's claims, checked end to end.

Every claim the reproduction makes about the paper is asserted here, grouped
by paper section: Section 3's monitoring results (Table 1, Figures 2 and 4-6)
on one monitored synthetic web, Section 4's freshness analysis (Table 2,
Figures 7-10) and Section 5's architecture argument (the change-frequency
estimators, the crawler's internal design choices, incremental vs periodic
crawling). A test runs its experiment's spec through :func:`repro.api.run`
where the spec API expresses it and calls the library otherwise. Absolute
agreement is not expected — the substrate is a calibrated simulator, not the
1999 web — but the shape is: orderings, crossovers, who wins. EXPERIMENTS.md
records each claim's measured value next to the paper's; select one figure
with ``-k`` (e.g. ``-k fig5``).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.statistics import fit_exponential
from repro.api import CrawlerSpec, ExperimentSpec, PolicySpec, WebSpec, run
from repro.api.runner import build_web
from repro.api.scenarios import (
    PAPER_TABLE2_FRESHNESS,
    figure8_policies,
    paper_table2_policies,
    table2_scenario_rate,
)
from repro.estimation.bayesian_estimator import BayesianClassEstimator
from repro.estimation.change_history import ChangeHistory
from repro.estimation.poisson_estimator import (
    corrected_rate_estimate,
    naive_rate_estimate,
)
from repro.experiment.poisson_fit import fit_poisson_model
from repro.freshness.analytic import time_averaged_freshness
from repro.freshness.optimal_allocation import (
    optimal_frequency_curve,
    optimal_revisit_frequencies,
    proportional_revisit_frequencies,
    total_freshness,
    uniform_revisit_frequencies,
)
from repro.simulation.crawler_sim import simulate_crawl_policy
from repro.simweb.domains import sample_calibrated_rates


def scenario(name, **params):
    """Run one registered scenario through the spec API."""
    return run(ExperimentSpec(
        name=f"paper/{name}", kind="scenario", scenario=name, params=params
    ))


# --------------------------------------------------------------------- #
# Section 3: how the web evolves (Table 1, Figures 2, 4, 5 and 6)
# --------------------------------------------------------------------- #
#: The monitored web: larger than the unit-test web so the figure
#: statistics are smooth, still small enough to monitor in about a second.
SECTION3_SPEC = ExperimentSpec(
    name="paper/section3",
    kind="monitor",
    web=WebSpec(
        site_scale=0.1,
        pages_per_site=40,
        horizon_days=127.0,
        new_page_fraction=0.25,
        seed=2026,
    ),
)


@pytest.fixture(scope="module")
def section3():
    """The artifacts of a 127-day monitoring run over the Section 3 web."""
    return run(SECTION3_SPEC).artifacts


class TestSection3Monitoring:
    def test_table1_com_dominates_the_selected_sites(self, section3):
        """Selecting sites by popularity with the paper's 270/400 consent
        rate keeps its domain mix: com most, then edu, gov least."""
        selection = replace(
            SECTION3_SPEC, params={"consent_rate": 270.0 / 400.0, "selection_seed": 3}
        )
        counts = run(selection, web=section3["web"]).tables["monitored_sites_per_domain"]
        assert counts.get("com", 0) >= counts.get("edu", 0)
        assert counts.get("edu", 0) >= counts.get("gov", 0)

    def test_fig2a_a_large_share_changes_every_day(self, section3):
        assert section3["change"].overall_fractions()["<=1day"] > 0.15

    def test_fig2b_com_changes_daily_edu_and_gov_stay_static(self, section3):
        change = section3["change"]
        com = change.domain_fractions("com")
        gov = change.domain_fractions("gov")
        edu = change.domain_fractions("edu")
        assert com["<=1day"] > 0.3
        assert gov["<=1day"] < 0.1
        assert edu[">4months"] > 0.4
        assert gov[">4months"] > 0.4

    def test_fig4a_most_pages_live_longer_than_a_month(self, section3):
        method1 = section3["lifespan"].method1_overall.labelled_fractions()
        method2 = section3["lifespan"].method2_overall.labelled_fractions()
        assert method1[">1month,<=4months"] + method1[">4months"] > 0.5
        # Method 2 doubles the censored spans, so it never shortens a page.
        assert method2[">4months"] >= method1[">4months"]

    def test_fig4b_com_pages_are_the_shortest_lived(self, section3):
        by_domain = section3["lifespan"].method1_by_domain
        com, edu, gov = (
            by_domain[domain].labelled_fractions()[">4months"]
            for domain in ("com", "edu", "gov")
        )
        assert com < edu and com < gov

    def test_fig5a_half_the_web_changes_within_the_run(self, section3):
        curve = section3["survival"].overall
        assert curve.half_change_day() is not None
        assert curve.unchanged_fraction[0] >= 0.9

    def test_fig5b_com_reaches_half_change_first(self, section3):
        half_days = section3["survival"].half_change_days()
        com, gov, edu = half_days["com"], half_days.get("gov"), half_days.get("edu")
        assert com is not None and gov is not None and edu is not None
        assert gov > com
        assert edu > com

    def test_fig6a_ten_day_pages_change_like_poisson(self, section3):
        result = fit_poisson_model(section3["log"], target_interval_days=10.0)
        assert result.fit is not None
        assert result.fit.log_r_squared > 0.85

    def test_fig6b_twenty_day_pages_change_like_poisson(self, section3):
        result = fit_poisson_model(section3["log"], target_interval_days=20.0)
        assert result.fit is not None
        assert result.fit.log_r_squared > 0.8

    def test_fig6_negative_control_clockwork_changes_are_not_poisson(self):
        """The Figure 6 statistic must be able to reject non-Poisson
        behaviour, or the positive results above would be vacuous."""
        rng = np.random.default_rng(0)
        exponential = fit_exponential(rng.exponential(10.0, size=2000))
        periodic = fit_exponential(rng.normal(10.0, 0.2, size=2000).clip(0.1))
        assert exponential.is_plausibly_exponential
        assert not periodic.is_plausibly_exponential


# --------------------------------------------------------------------- #
# Section 4: freshness of the crawler's design choices (Table 2, Figs 7-10)
# --------------------------------------------------------------------- #
class TestTable2EndToEnd:
    """Claim: the Table 2 numbers follow from the Poisson model, and an
    independent Monte-Carlo simulation agrees with the closed form."""

    def test_analytic_matches_paper_values(self):
        rate = table2_scenario_rate()
        for label, policy in paper_table2_policies().items():
            assert time_averaged_freshness(policy, rate) == pytest.approx(
                PAPER_TABLE2_FRESHNESS[label], abs=0.015
            )

    def test_simulation_matches_analytic(self):
        rate = table2_scenario_rate()
        rates = [rate] * 300
        for label, policy in paper_table2_policies().items():
            simulated = simulate_crawl_policy(rates, policy, n_cycles=6, seed=3)
            analytic = time_averaged_freshness(policy, rate)
            assert simulated.mean_freshness == pytest.approx(analytic, abs=0.05), label

    def test_table2_scenario_simulation_and_orderings(self):
        tables = scenario("table2").tables
        analytic, simulated = tables["analytic"], tables["simulated"]
        for name in tables["paper"]:
            assert abs(simulated[name] - analytic[name]) < 0.04, name
        # The orderings the paper draws its conclusions from.
        assert analytic["steady / in-place"] == analytic["batch / in-place"]
        assert analytic["steady / shadowing"] < analytic["batch / shadowing"]

    def test_sensitivity_example(self):
        """Monthly changes and a two-week batch crawl favour in-place updates."""
        tables = scenario("sensitivity").tables
        analytic = tables["analytic"]
        for name, paper in tables["paper"].items():
            assert abs(analytic[name] - paper) < 0.01, name
        assert analytic["batch / in-place"] > analytic["batch / shadowing"]


class TestFreshnessEvolution:
    """Figures 7 and 8: how freshness moves over a crawl cycle."""

    def test_fig7_batch_sawtooth_and_steady_have_equal_time_average(self):
        result = scenario("figure7")
        analytic, simulated = result.tables["analytic_mean"], result.tables["simulated_mean"]
        assert analytic["batch-mode"] == analytic["steady"]
        for name in ("batch-mode", "steady"):
            assert abs(simulated[name] - analytic[name]) < 0.05, name
        batch = result.series["batch-mode/freshness"]
        steady = result.series["steady/freshness"]
        assert max(batch) - min(batch) > 0.2
        assert max(steady) - min(steady) < 1e-9

    def test_fig8a_shadowing_always_hurts_a_steady_crawler(self):
        result = scenario("figure8", variant="steady")
        crawler = result.series["crawler"]
        gap = [i - c for i, c in zip(result.series["in_place"], result.series["current"])]
        assert min(gap) >= -1e-9
        assert max(gap) > 0.05
        assert result.summary["min_inplace_advantage"] >= -1e-9
        # The crawler's collection restarts from zero at each cycle boundary.
        assert crawler[0] < 0.01
        assert crawler[199] > crawler[10]

    def test_fig8b_shadowing_only_hurts_a_batch_crawler_while_it_crawls(self):
        batch = figure8_policies()["batch-mode with shadowing"].batch_duration_days
        series = scenario("figure8", variant="batch").series
        gaps = list(zip(series["times"], series["in_place"], series["current"]))
        crawling = [i - s for t, i, s in gaps if t < batch]
        idle = [i - s for t, i, s in gaps if t >= batch]
        assert max(crawling) > 0.05
        assert max(idle) < 1e-6


class TestSchedulingClaims:
    """Claims of Section 4.3 / Figures 9 and 10 on the calibrated page mix."""

    def test_optimal_policy_beats_fixed_frequency_by_paper_margin(self):
        rates = sample_calibrated_rates(400, seed=1)
        budget = len(rates) / 15.0
        fixed = total_freshness(rates, uniform_revisit_frequencies(rates, budget))
        optimal = total_freshness(rates, optimal_revisit_frequencies(rates, budget))
        improvement = (optimal - fixed) / fixed
        # The paper (citing CGM99b) reports 10-23%; require a material gain
        # and nothing beyond the plausible range.
        assert 0.05 < improvement < 0.40

    def test_proportional_policy_is_not_optimal(self):
        """The intuitive policy the paper warns about actually loses."""
        rates = sample_calibrated_rates(400, seed=2)
        budget = len(rates) / 15.0
        fixed = total_freshness(rates, uniform_revisit_frequencies(rates, budget))
        proportional = total_freshness(
            rates, proportional_revisit_frequencies(rates, budget)
        )
        optimal = total_freshness(rates, optimal_revisit_frequencies(rates, budget))
        assert optimal > proportional
        assert proportional < fixed

    def test_very_fast_pages_are_abandoned(self):
        """Figure 9: pages changing much faster than the budget allows are
        not worth visiting at all."""
        rates = [0.05] * 50 + [100.0] * 10
        budget = 5.0
        allocation = optimal_revisit_frequencies(rates, budget)
        fast_allocation = sum(allocation[50:])
        assert fast_allocation < 0.01 * budget

    def test_fig9_optimal_revisit_frequency_rises_then_falls(self):
        rates = [0.002 * (1.45 ** i) for i in range(36)]
        curve = optimal_frequency_curve(rates, budget=len(rates) / 20.0)
        peak = curve.index(max(curve))
        assert 0 < peak < len(curve) - 1
        assert all(curve[i] <= curve[i + 1] + 1e-9 for i in range(peak))
        assert all(curve[i] >= curve[i + 1] - 1e-9 for i in range(peak, len(curve) - 1))
        assert curve[-1] < 0.5 * max(curve)

    def test_fig9_two_page_example_skips_the_per_second_page(self):
        """One fetch a day: nothing goes to the page that changes every second."""
        frequencies = optimal_revisit_frequencies([1.0, 86400.0], budget=1.0)
        assert frequencies[1] < 0.01

    def test_fig10_variable_revisit_frequency_beats_fixed(self):
        tables = scenario("revisit-policies").tables
        analytic, simulated = tables["analytic"], tables["simulated"]
        assert (analytic["optimal"] - analytic["uniform"]) / analytic["uniform"] > 0.05
        assert analytic["optimal"] >= analytic["proportional"] - 1e-9
        assert abs(simulated["optimal"] - analytic["optimal"]) < 0.06


class TestDesignSpaceOrdering:
    """Figure 10: the incremental crawler's design choices dominate."""

    def test_incremental_archetype_has_highest_freshness(self):
        rate = table2_scenario_rate()
        policies = paper_table2_policies()
        freshness = {
            name: time_averaged_freshness(policy, rate)
            for name, policy in policies.items()
        }
        assert freshness["steady / in-place"] == max(freshness.values())
        assert freshness["steady / shadowing"] == min(freshness.values())

    def test_shadowing_penalty_grows_with_change_rate(self):
        """The Section 4 sensitivity argument: the more dynamic the pages,
        the more in-place updates matter."""
        policies = paper_table2_policies()
        slow, fast = 1.0 / 120.0, 1.0 / 15.0
        penalty_slow = time_averaged_freshness(
            policies["steady / in-place"], slow
        ) - time_averaged_freshness(policies["steady / shadowing"], slow)
        penalty_fast = time_averaged_freshness(
            policies["steady / in-place"], fast
        ) - time_averaged_freshness(policies["steady / shadowing"], fast)
        assert penalty_fast > penalty_slow


# --------------------------------------------------------------------- #
# Section 5: the incremental crawler's architecture
# --------------------------------------------------------------------- #
def _poisson_history(rate, visit_interval, n_visits, rng):
    history = ChangeHistory(first_visit=0.0)
    time = 0.0
    for _ in range(n_visits):
        time += visit_interval
        history.record_visit(time, rng.random() < 1.0 - np.exp(-rate * visit_interval))
    return history


class TestChangeEstimators:
    """Section 5.3: the EP and EB estimators on known Poisson rates."""

    def test_ep_corrects_the_naive_estimators_bias(self):
        """Daily visits detect at most one change a day (Figure 1(a))."""
        rng = np.random.default_rng(12)
        rows = []
        for rate in (0.05, 0.2, 0.5, 1.0, 2.0):
            naive, corrected = [], []
            for _ in range(40):
                history = _poisson_history(rate, 1.0, 180, rng)
                naive.append(naive_rate_estimate(history.n_changes, history.observation_time))
                corrected.append(
                    corrected_rate_estimate(history.n_visits, history.n_changes, 1.0)
                )
            rows.append((rate, float(np.mean(naive)), float(np.mean(corrected))))
        for rate, naive, corrected in rows:
            assert abs(corrected - rate) <= abs(naive - rate) + 0.02
        rate, naive, _ = rows[-1]
        assert naive < 0.7 * rate, "naive estimator saturates for fast pages"

    def test_eb_classifies_daily_and_monthly_pages(self):
        rng = np.random.default_rng(13)
        accuracy = {}
        for expected, interval in (("daily", 1.0), ("weekly", 7.0), ("monthly", 30.0)):
            correct = 0
            for _ in range(30):
                estimator = BayesianClassEstimator()
                for _ in range(120):
                    estimator.observe(1.0, rng.random() < 1.0 - np.exp(-1.0 / interval))
                correct += estimator.most_likely_class().name == expected
            accuracy[expected] = correct / 30
        assert accuracy["daily"] > 0.8
        assert accuracy["monthly"] > 0.5

    def test_site_level_estimates_help_only_when_pages_behave_alike(self):
        rng = np.random.default_rng(14)

        def errors(page_rates):
            page_errors, pooled_changes, pooled_time = [], 0, 0.0
            for rate in page_rates:
                history = _poisson_history(rate, 1.0, 60, rng)
                estimate = corrected_rate_estimate(history.n_visits, history.n_changes, 1.0)
                page_errors.append(abs(estimate - rate))
                pooled_changes += history.n_changes
                pooled_time += history.observation_time
            pooled = pooled_changes / pooled_time
            return np.mean(page_errors), np.mean([abs(pooled - rate) for rate in page_rates])

        homogeneous = errors([0.1] * 30)
        heterogeneous = errors([0.02] * 15 + [1.0] * 15)
        assert homogeneous[1] < homogeneous[0]
        assert heterogeneous[1] > heterogeneous[0]


#: The crawler-ablation web and crawl: a budget that refreshes each page
#: about every four days, scarce enough that scheduling choices matter.
ABLATION_SPEC = ExperimentSpec(
    name="paper/ablation",
    kind="crawl",
    web=WebSpec(
        site_scale=0.04,
        pages_per_site=25,
        horizon_days=50.0,
        new_page_fraction=0.2,
        seed=314,
    ),
    crawler=CrawlerSpec(
        collection_capacity=120,
        crawl_budget_per_day=30.0,
        duration_days=40.0,
        ranking_interval_days=5.0,
        measurement_interval_days=1.0,
        track_quality=False,
    ),
)


@pytest.fixture(scope="module")
def ablation():
    """Steady-state (after day 15) freshness of each crawler variant. Each
    variant changes one field of the default policy (optimal revisits, EP
    estimates, no importance weighting)."""
    web = build_web(ABLATION_SPEC.web)
    variants = {
        "default": PolicySpec(),
        "uniform": PolicySpec(revisit_policy="uniform"),
        "proportional": PolicySpec(revisit_policy="proportional"),
        "eb": PolicySpec(estimator="eb"),
        "importance": PolicySpec(use_importance=True),
    }
    return {
        name: run(replace(ABLATION_SPEC, policy=policy), web=web)
        .artifacts["outcome"].freshness.after(15.0).mean_freshness()
        for name, policy in variants.items()
    }


class TestCrawlerDesignChoices:
    """Design choices inside the incremental crawler, on one web and budget."""

    def test_ablation_optimal_revisit_policy_does_not_lose(self, ablation):
        # With rates estimated from change histories rather than known, part
        # of the optimal allocation's advantage erodes; it must not lose
        # materially to either alternative.
        optimal = ablation["default"]
        assert optimal >= ablation["proportional"] - 0.03
        assert optimal >= ablation["uniform"] - 0.06

    def test_ablation_ep_and_eb_both_drive_the_scheduler(self, ablation):
        ep, eb = ablation["default"], ablation["eb"]
        assert ep > 0.5 and eb > 0.5
        assert abs(ep - eb) < 0.2

    def test_ablation_importance_weighting_costs_little_freshness(self, ablation):
        plain, weighted = ablation["default"], ablation["importance"]
        assert weighted > 0.4
        assert plain >= weighted - 0.05


#: The incremental-vs-periodic web and crawls: the same average crawl speed,
#: which the periodic crawler compresses into a batch at 4x the peak speed.
CRAWLER_WEB_SPEC = WebSpec(
    site_scale=0.05,
    pages_per_site=25,
    horizon_days=70.0,
    new_page_fraction=0.25,
    seed=99,
)
CAPACITY, CYCLE_DAYS, DURATION_DAYS = 150, 10.0, 60.0
AVERAGE_BUDGET = 4.0 * CAPACITY / CYCLE_DAYS


@pytest.fixture(scope="module")
def crawler_web():
    return build_web(CRAWLER_WEB_SPEC)


class TestIncrementalVsPeriodic:
    """Section 5.1's goals: a fresher collection of at least equal quality."""

    def test_incremental_is_fresher_than_periodic(self, crawler_web):
        common = dict(
            collection_capacity=CAPACITY,
            duration_days=DURATION_DAYS,
            measurement_interval_days=1.0,
            track_quality=True,
        )
        incremental = run(ExperimentSpec(
            name="paper/incremental", kind="crawl", web=CRAWLER_WEB_SPEC,
            crawler=CrawlerSpec(kind="incremental", crawl_budget_per_day=AVERAGE_BUDGET,
                                ranking_interval_days=5.0, **common),
            policy=PolicySpec(revisit_policy="optimal", estimator="ep"),
        ), web=crawler_web)
        periodic = run(ExperimentSpec(
            name="paper/periodic", kind="crawl", web=CRAWLER_WEB_SPEC,
            crawler=CrawlerSpec(kind="periodic", crawl_budget_per_day=AVERAGE_BUDGET * 4.0,
                                cycle_days=CYCLE_DAYS, **common),
        ), web=crawler_web)
        steady = [
            result.artifacts["outcome"].freshness.after(CYCLE_DAYS).mean_freshness()
            for result in (incremental, periodic)
        ]
        assert steady[0] > steady[1]
        assert incremental.summary["final_quality"] > 0.3

    def test_update_vs_refinement_separation(self, crawler_web):
        """Running the RankingModule rarely, apart from the UpdateModule, is
        what lets the crawler fetch at full speed (Section 5.3): recomputing
        importance after every fetch costs throughput."""

        def fetches_per_second(ranking_interval_days):
            result = run(ExperimentSpec(
                name="paper/refinement-separation", kind="crawl", web=CRAWLER_WEB_SPEC,
                crawler=CrawlerSpec(
                    collection_capacity=100,
                    crawl_budget_per_day=300.0,
                    duration_days=20.0,
                    ranking_interval_days=ranking_interval_days,
                    measurement_interval_days=5.0,
                    track_quality=False,
                ),
                policy=PolicySpec(revisit_policy="uniform"),
            ), web=crawler_web)
            return result.summary["pages_crawled"] / max(result.wall_time_seconds, 1e-9)

        assert fetches_per_second(5.0) > fetches_per_second(1.0 / 300.0)
