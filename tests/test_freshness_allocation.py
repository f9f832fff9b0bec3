"""Tests for the optimal revisit-frequency allocation (Figure 9) and policies."""

import math

import pytest

from repro.freshness.optimal_allocation import (
    marginal_freshness,
    optimal_frequency_curve,
    optimal_revisit_frequencies,
    page_freshness,
    proportional_revisit_frequencies,
    total_freshness,
    uniform_revisit_frequencies,
)
from repro.freshness.policies import (
    MAX_REVISIT_INTERVAL_DAYS,
    OptimalRevisitPolicy,
    ProportionalRevisitPolicy,
    UniformRevisitPolicy,
)


class TestPageFreshness:
    def test_static_page(self):
        assert page_freshness(0.0, 1.0) == 1.0

    def test_unvisited_changing_page(self):
        assert page_freshness(1.0, 0.0) == 0.0

    def test_monotone_in_frequency(self):
        values = [page_freshness(0.5, f) for f in (0.1, 1.0, 10.0)]
        assert values[0] < values[1] < values[2]

    def test_marginal_decreasing_in_frequency(self):
        values = [marginal_freshness(0.5, f) for f in (0.01, 0.1, 1.0, 10.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_marginal_limit_at_zero(self):
        assert marginal_freshness(2.0, 0.0) == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            page_freshness(-1.0, 1.0)
        with pytest.raises(ValueError):
            marginal_freshness(-1.0, 1.0)


class TestSimpleAllocations:
    def test_uniform(self):
        assert uniform_revisit_frequencies([0.1, 0.2, 0.3], 3.0) == [1.0, 1.0, 1.0]

    def test_proportional(self):
        freqs = proportional_revisit_frequencies([1.0, 3.0], 4.0)
        assert freqs == pytest.approx([1.0, 3.0])

    def test_proportional_all_static_falls_back_to_uniform(self):
        assert proportional_revisit_frequencies([0.0, 0.0], 2.0) == [1.0, 1.0]

    def test_empty_population(self):
        assert uniform_revisit_frequencies([], 1.0) == []
        assert optimal_revisit_frequencies([], 1.0) == []

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            uniform_revisit_frequencies([0.1], 0.0)
        with pytest.raises(ValueError):
            proportional_revisit_frequencies([0.1], -1.0)


class TestOptimalAllocation:
    def test_budget_exhausted(self):
        rates = [0.01, 0.1, 0.5, 1.0]
        freqs = optimal_revisit_frequencies(rates, budget=2.0)
        assert sum(freqs) == pytest.approx(2.0, rel=1e-6)
        assert all(f >= 0 for f in freqs)

    def test_static_pages_get_nothing(self):
        freqs = optimal_revisit_frequencies([0.0, 0.5], budget=1.0)
        assert freqs[0] == 0.0
        assert freqs[1] == pytest.approx(1.0)

    def test_beats_uniform_and_proportional(self):
        """The paper (citing CGM99b): optimising revisit frequencies improves
        freshness over the alternatives."""
        rates = [0.02] * 40 + [0.2] * 40 + [2.0] * 20
        budget = 20.0
        optimal = total_freshness(rates, optimal_revisit_frequencies(rates, budget))
        uniform = total_freshness(rates, uniform_revisit_frequencies(rates, budget))
        proportional = total_freshness(
            rates, proportional_revisit_frequencies(rates, budget)
        )
        assert optimal > uniform
        assert optimal > proportional

    def test_improvement_within_paper_band(self):
        """The paper quotes a 10-23% freshness improvement over the uniform
        policy for realistic mixes; check the improvement is material."""
        rates = [1.0 / 0.7] * 25 + [1.0 / 3.5] * 15 + [1.0 / 15] * 15 + \
                [1.0 / 70] * 15 + [0.0001] * 30
        budget = len(rates) / 15.0  # each page visited every 15 days on average
        optimal = total_freshness(rates, optimal_revisit_frequencies(rates, budget))
        uniform = total_freshness(rates, uniform_revisit_frequencies(rates, budget))
        improvement = (optimal - uniform) / uniform
        assert improvement > 0.05

    def test_two_page_example_from_paper(self):
        """Section 4's example: p1 changes daily, p2 every second; with one
        fetch per day available it is better to spend it on p1."""
        rates = [1.0, 86400.0]
        freqs = optimal_revisit_frequencies(rates, budget=1.0)
        assert freqs[0] > freqs[1]
        assert freqs[0] == pytest.approx(1.0, rel=1e-3)

    def test_figure9_shape_unimodal(self):
        """Figure 9: optimal frequency rises with the change rate, peaks, and
        then falls back toward zero for very fast-changing pages."""
        rates = [0.001 * (1.6 ** i) for i in range(30)]
        curve = optimal_frequency_curve(rates, budget=len(rates) / 30.0)
        peak_index = curve.index(max(curve))
        assert 0 < peak_index < len(curve) - 1
        assert curve[-1] < max(curve) * 0.5
        # Rising before the peak, falling after it (allowing numerical noise).
        assert all(curve[i] <= curve[i + 1] + 1e-9 for i in range(peak_index))
        assert all(curve[i] >= curve[i + 1] - 1e-9 for i in range(peak_index, len(curve) - 1))

    def test_weighted_allocation_favours_important_pages(self):
        rates = [0.1, 0.1]
        weights = [10.0, 1.0]
        freqs = optimal_revisit_frequencies(rates, budget=1.0, weights=weights)
        assert freqs[0] > freqs[1]

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            optimal_revisit_frequencies([0.1], 1.0, weights=[1.0, 2.0])

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, budget):
        # NaN used to return [nan, nan]; inf returned [inf, nan].
        with pytest.raises(ValueError, match="budget must be finite"):
            optimal_revisit_frequencies([1.0, 2.0], budget)

    def test_nan_rate_rejected(self):
        # A NaN rate used to get frequency 0 silently.
        with pytest.raises(ValueError, match="NaN"):
            optimal_revisit_frequencies([1.0, math.nan], 1.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="weights must be finite"):
            optimal_revisit_frequencies([1.0, 2.0], 1.0, weights=[1.0, weight])

    def test_infinite_rates_get_nothing(self):
        # A page that changes infinitely often is never worth a visit; a
        # registered estimator may report one.
        assert optimal_revisit_frequencies([math.inf, 1.0], 1.0) == [0.0, 1.0]
        assert optimal_revisit_frequencies([math.inf, math.inf], 1.0) == [0.0, 0.0]

    def test_total_freshness_validation(self):
        with pytest.raises(ValueError):
            total_freshness([0.1], [1.0, 2.0])
        assert total_freshness([], []) == 0.0


class TestRevisitPolicies:
    def test_uniform_policy_intervals(self):
        policy = UniformRevisitPolicy()
        intervals = policy.intervals({"a": 0.1, "b": 1.0}, budget_per_day=2.0)
        assert intervals["a"] == intervals["b"] == pytest.approx(1.0)

    def test_proportional_policy_faster_pages_visited_more(self):
        policy = ProportionalRevisitPolicy()
        intervals = policy.intervals({"slow": 0.01, "fast": 1.0}, budget_per_day=2.0)
        assert intervals["fast"] < intervals["slow"]

    def test_optimal_policy_ignores_extremely_fast_pages(self):
        policy = OptimalRevisitPolicy()
        intervals = policy.intervals(
            {"normal": 0.1, "crazy": 1000.0}, budget_per_day=1.0
        )
        assert intervals["crazy"] == MAX_REVISIT_INTERVAL_DAYS
        assert intervals["normal"] < MAX_REVISIT_INTERVAL_DAYS

    def test_optimal_policy_with_importance(self):
        policy = OptimalRevisitPolicy(use_importance=True)
        intervals = policy.intervals(
            {"a": 0.1, "b": 0.1},
            budget_per_day=1.0,
            importance={"a": 0.9, "b": 0.1},
        )
        assert intervals["a"] < intervals["b"]

    def test_optimal_policy_ignores_all_zero_importance(self):
        policy = OptimalRevisitPolicy(use_importance=True)
        intervals = policy.intervals(
            {"a": 0.1, "b": 0.1}, budget_per_day=1.0, importance={"a": 0.0, "b": 0.0}
        )
        assert intervals["a"] == pytest.approx(intervals["b"])

    def test_policy_budget_validation(self):
        with pytest.raises(ValueError):
            UniformRevisitPolicy().frequencies({"a": 0.1}, budget_per_day=0.0)
        with pytest.raises(ValueError):
            UniformRevisitPolicy().frequencies({"a": -0.1}, budget_per_day=1.0)

    def test_empty_rates(self):
        assert UniformRevisitPolicy().intervals({}, budget_per_day=1.0) == {}
