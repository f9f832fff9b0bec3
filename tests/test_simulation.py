"""Tests for the simulation package: tracker and policy simulator."""

import pytest

from repro.freshness.analytic import CrawlMode, CrawlPolicy, UpdateMode, time_averaged_freshness
from repro.simulation.crawler_sim import (
    simulate_crawl_policy,
    simulate_revisit_allocation,
)
from repro.simulation.freshness_tracker import FreshnessTimeSeries
from repro.simulation.scenarios import (
    figure7_change_rate,
    figure7_policies,
    figure8_policies,
    paper_table2_policies,
    table2_scenario_rate,
)


class TestFreshnessTimeSeries:
    def test_add_and_mean(self):
        series = FreshnessTimeSeries()
        series.add(0.0, 1.0)
        series.add(1.0, 0.0)
        series.add(2.0, 0.0)
        assert series.mean_freshness() == pytest.approx(0.5)

    def test_rejects_out_of_order(self):
        series = FreshnessTimeSeries()
        series.add(1.0, 0.5)
        with pytest.raises(ValueError):
            series.add(0.5, 0.5)

    def test_rejects_out_of_range_freshness(self):
        series = FreshnessTimeSeries()
        with pytest.raises(ValueError):
            series.add(0.0, 1.5)

    def test_after_trims_warmup(self):
        series = FreshnessTimeSeries()
        for t in range(10):
            series.add(float(t), 0.1 if t < 5 else 0.9)
        trimmed = series.after(5.0)
        assert len(trimmed) == 5
        assert trimmed.mean_freshness() == pytest.approx(0.9)

    def test_as_series(self):
        series = FreshnessTimeSeries()
        series.add(0.0, 0.5)
        times, values = series.as_series()
        assert times == (0.0,)
        assert values == (0.5,)


class TestSimulateCrawlPolicy:
    def test_matches_analytic_for_all_table2_policies(self):
        """The Monte-Carlo simulator agrees with the closed-form freshness."""
        rate = table2_scenario_rate()
        rates = [rate] * 400
        for label, policy in paper_table2_policies().items():
            result = simulate_crawl_policy(rates, policy, n_cycles=6, seed=11)
            expected = time_averaged_freshness(policy, rate)
            assert result.mean_freshness == pytest.approx(expected, abs=0.04), label

    def test_batch_inplace_oscillates_more_than_steady(self):
        rate = figure7_change_rate()
        rates = [rate] * 300
        policies = figure7_policies()
        batch = simulate_crawl_policy(rates, policies["batch-mode"], n_cycles=4, seed=1)
        steady = simulate_crawl_policy(rates, policies["steady"], n_cycles=4, seed=1)
        batch_spread = max(batch.freshness) - min(batch.freshness)
        steady_spread = max(steady.freshness) - min(steady.freshness)
        assert batch_spread > steady_spread

    def test_freshness_values_bounded(self):
        rates = [0.1] * 50
        policy = paper_table2_policies()["batch / shadowing"]
        result = simulate_crawl_policy(rates, policy, n_cycles=3, seed=5)
        assert all(0.0 <= f <= 1.0 for f in result.freshness)

    def test_static_pages_always_fresh(self):
        rates = [0.0] * 20
        policy = paper_table2_policies()["steady / in-place"]
        result = simulate_crawl_policy(rates, policy, n_cycles=2, seed=2)
        assert result.mean_freshness == pytest.approx(1.0)

    def test_invalid_inputs(self):
        policy = paper_table2_policies()["steady / in-place"]
        with pytest.raises(ValueError):
            simulate_crawl_policy([], policy)
        with pytest.raises(ValueError):
            simulate_crawl_policy([0.1], policy, n_cycles=0)
        with pytest.raises(ValueError):
            simulate_crawl_policy([-0.1], policy)


class TestSimulateRevisitAllocation:
    def test_matches_analytic_per_page_formula(self):
        rates = [0.1] * 200
        intervals = [5.0] * 200
        result = simulate_revisit_allocation(rates, intervals, duration_days=200.0, seed=3)
        from repro.freshness.analytic import expected_freshness_periodic

        assert result.mean_freshness == pytest.approx(
            expected_freshness_periodic(0.1, 5.0), abs=0.05
        )

    def test_optimal_allocation_beats_uniform_in_simulation(self):
        from repro.freshness.optimal_allocation import (
            optimal_revisit_frequencies,
            uniform_revisit_frequencies,
        )

        rates = [2.0] * 30 + [0.1] * 50 + [0.01] * 120
        budget = 20.0
        uniform = uniform_revisit_frequencies(rates, budget)
        optimal = optimal_revisit_frequencies(rates, budget)
        to_intervals = lambda freqs: [1.0 / f if f > 0 else float("inf") for f in freqs]
        uniform_result = simulate_revisit_allocation(
            rates, to_intervals(uniform), duration_days=300.0, seed=4
        )
        optimal_result = simulate_revisit_allocation(
            rates, to_intervals(optimal), duration_days=300.0, seed=4
        )
        assert optimal_result.mean_freshness > uniform_result.mean_freshness

    def test_infinite_interval_pages_stay_stale(self):
        rates = [1.0] * 20
        intervals = [float("inf")] * 20
        result = simulate_revisit_allocation(
            rates, intervals, duration_days=100.0, warmup_days=10.0, seed=6
        )
        assert result.mean_freshness < 0.1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate_revisit_allocation([0.1], [1.0, 2.0])
        with pytest.raises(ValueError):
            simulate_revisit_allocation([], [])
        with pytest.raises(ValueError):
            simulate_revisit_allocation([0.1], [1.0], duration_days=0.0)


class TestScenarios:
    def test_table2_scenario_rate(self):
        assert table2_scenario_rate() == pytest.approx(1.0 / 120.0)

    def test_figure8_policies_are_shadowing(self):
        for policy in figure8_policies().values():
            assert policy.update_mode is UpdateMode.SHADOW

    def test_figure7_policies_are_inplace(self):
        for policy in figure7_policies().values():
            assert policy.update_mode is UpdateMode.IN_PLACE

    def test_paper_policies_cover_all_four_combinations(self):
        policies = paper_table2_policies()
        combos = {(p.crawl_mode, p.update_mode) for p in policies.values()}
        assert len(combos) == 4
