"""Tests for the closed-form freshness models (Figures 7-8, Table 2)."""

import math

import pytest

from repro.api.scenarios import (
    PAPER_SENSITIVITY_FRESHNESS,
    PAPER_TABLE2_FRESHNESS,
    paper_table2_policies,
    sensitivity_example_policies,
    sensitivity_scenario_rate,
    table2_scenario_rate,
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
    freshness_at,
    freshness_trajectory,
    steady_inplace_freshness_at,
    steady_shadow_freshness_at,
    time_averaged_freshness,
)


class TestPerPageFormulas:
    def test_freshness_periodic_basic_value(self):
        # lambda*I = 1 -> F = 1 - e^-1
        assert expected_freshness_periodic(1.0, 1.0) == pytest.approx(1 - math.exp(-1))

    def test_freshness_periodic_never_changing_page(self):
        assert expected_freshness_periodic(0.0, 30.0) == 1.0

    def test_freshness_periodic_never_revisited(self):
        assert expected_freshness_periodic(0.5, float("inf")) == 0.0

    def test_freshness_decreases_with_change_rate(self):
        values = [expected_freshness_periodic(rate, 10.0) for rate in (0.01, 0.1, 1.0)]
        assert values[0] > values[1] > values[2]

    def test_freshness_increases_with_revisit_frequency(self):
        values = [expected_freshness_periodic(0.1, interval) for interval in (1.0, 10.0, 100.0)]
        assert values[0] > values[1] > values[2]

    def test_freshness_bounds(self):
        for rate in (0.0, 0.01, 1.0, 100.0):
            for interval in (0.1, 1.0, 1000.0):
                assert 0.0 <= expected_freshness_periodic(rate, interval) <= 1.0

    def test_age_zero_for_static_page(self):
        assert expected_age_periodic(0.0, 30.0) == 0.0

    def test_age_increases_with_interval(self):
        ages = [expected_age_periodic(0.1, interval) for interval in (1.0, 10.0, 100.0)]
        assert ages[0] < ages[1] < ages[2]

    def test_age_bounded_by_half_interval(self):
        # Age cannot exceed the revisit interval (and in fact stays below I/2).
        assert expected_age_periodic(10.0, 10.0) < 10.0

    def test_poisson_revisit_formula(self):
        assert expected_freshness_poisson_revisit(1.0, 1.0) == pytest.approx(0.5)
        assert expected_freshness_poisson_revisit(0.0, 1.0) == 1.0
        assert expected_freshness_poisson_revisit(1.0, 0.0) == 0.0

    def test_poisson_revisit_below_periodic(self):
        """Random (Poisson) revisiting is less effective than periodic."""
        rate, frequency = 0.2, 0.5
        periodic = expected_freshness_periodic(rate, 1.0 / frequency)
        poisson = expected_freshness_poisson_revisit(rate, frequency)
        assert poisson < periodic

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            expected_freshness_periodic(-1.0, 1.0)
        with pytest.raises(ValueError):
            expected_freshness_periodic(1.0, 0.0)
        with pytest.raises(ValueError):
            expected_age_periodic(1.0, -1.0)
        with pytest.raises(ValueError):
            expected_freshness_poisson_revisit(-1.0, 1.0)


class TestCrawlPolicy:
    def test_labels(self):
        policies = paper_table2_policies()
        assert set(policies.keys()) == set(PAPER_TABLE2_FRESHNESS.keys())
        for label, policy in policies.items():
            assert policy.label() == label

    def test_batch_duration_validated(self):
        with pytest.raises(ValueError):
            CrawlPolicy(CrawlMode.BATCH, UpdateMode.IN_PLACE, cycle_days=30.0,
                        batch_duration_days=45.0)
        with pytest.raises(ValueError):
            CrawlPolicy(CrawlMode.STEADY, UpdateMode.IN_PLACE, cycle_days=0.0)

    def test_active_duration(self):
        policies = paper_table2_policies()
        assert policies["steady / in-place"].active_duration_days == 30.0
        assert policies["batch / in-place"].active_duration_days == 7.0


class TestTable2:
    """The headline Table 2 reproduction: analytic values vs. the paper."""

    def test_all_four_entries_match_paper(self):
        rate = table2_scenario_rate()
        for label, policy in paper_table2_policies().items():
            measured = time_averaged_freshness(policy, rate)
            assert measured == pytest.approx(PAPER_TABLE2_FRESHNESS[label], abs=0.015), label

    def test_steady_and_batch_inplace_identical(self):
        """The paper: time-averaged freshness is the same for both."""
        rate = table2_scenario_rate()
        policies = paper_table2_policies()
        assert time_averaged_freshness(policies["steady / in-place"], rate) == pytest.approx(
            time_averaged_freshness(policies["batch / in-place"], rate)
        )

    def test_shadowing_hurts_steady_more_than_batch(self):
        rate = table2_scenario_rate()
        policies = paper_table2_policies()
        steady_loss = time_averaged_freshness(
            policies["steady / in-place"], rate
        ) - time_averaged_freshness(policies["steady / shadowing"], rate)
        batch_loss = time_averaged_freshness(
            policies["batch / in-place"], rate
        ) - time_averaged_freshness(policies["batch / shadowing"], rate)
        assert steady_loss > batch_loss

    def test_sensitivity_example_matches_paper(self):
        """Monthly-changing pages, two-week batch: 0.63 vs 0.50."""
        rate = sensitivity_scenario_rate()
        for label, policy in sensitivity_example_policies().items():
            measured = time_averaged_freshness(policy, rate)
            assert measured == pytest.approx(
                PAPER_SENSITIVITY_FRESHNESS[label], abs=0.01
            ), label

    def test_static_pages_always_fresh(self):
        for policy in paper_table2_policies().values():
            assert time_averaged_freshness(policy, 0.0) == 1.0


class TestTrajectories:
    def test_steady_inplace_constant(self):
        values = [steady_inplace_freshness_at(t, 0.1, 30.0) for t in (0.0, 10.0, 45.0)]
        assert values[0] == pytest.approx(values[1]) == pytest.approx(values[2])

    def test_batch_inplace_sawtooth(self):
        """Figure 7(a): freshness rises during the crawl, decays when idle."""
        rate, cycle, batch = 1.0 / 7.0, 30.0, 7.0
        rising = batch_inplace_freshness_at(6.9, rate, cycle, batch)
        start = batch_inplace_freshness_at(0.1, rate, cycle, batch)
        idle_mid = batch_inplace_freshness_at(15.0, rate, cycle, batch)
        idle_end = batch_inplace_freshness_at(29.9, rate, cycle, batch)
        assert rising > start
        assert rising > idle_mid > idle_end

    def test_batch_inplace_periodic(self):
        rate, cycle, batch = 0.1, 30.0, 7.0
        assert batch_inplace_freshness_at(5.0, rate, cycle, batch) == pytest.approx(
            batch_inplace_freshness_at(35.0, rate, cycle, batch)
        )

    def test_batch_inplace_average_matches_closed_form(self):
        rate, cycle, batch = 1.0 / 120.0, 30.0, 7.0
        samples = [
            batch_inplace_freshness_at(t, rate, cycle, batch)
            for t in [cycle * i / 2000 for i in range(2000)]
        ]
        assert sum(samples) / len(samples) == pytest.approx(
            expected_freshness_periodic(rate, cycle), rel=0.01
        )

    def test_steady_shadow_crawler_grows_from_zero(self):
        """Figure 8(a) top: the shadow collection starts from scratch."""
        rate, cycle = 1.0 / 7.0, 30.0
        assert steady_shadow_freshness_at(0.0, rate, cycle, "crawler") == pytest.approx(0.0)
        quarter = steady_shadow_freshness_at(7.5, rate, cycle, "crawler")
        end = steady_shadow_freshness_at(29.9, rate, cycle, "crawler")
        assert 0.0 < quarter < end

    def test_steady_shadow_current_decays_from_swap(self):
        """Figure 8(a) bottom: the current collection decays between swaps."""
        rate, cycle = 1.0 / 7.0, 30.0
        just_after_swap = steady_shadow_freshness_at(0.0, rate, cycle, "current")
        later = steady_shadow_freshness_at(20.0, rate, cycle, "current")
        assert just_after_swap > later

    def test_steady_shadow_average_matches_closed_form(self):
        rate, cycle = table2_scenario_rate(), 30.0
        samples = [
            steady_shadow_freshness_at(t, rate, cycle, "current")
            for t in [cycle * i / 2000 for i in range(2000)]
        ]
        policy = paper_table2_policies()["steady / shadowing"]
        assert sum(samples) / len(samples) == pytest.approx(
            time_averaged_freshness(policy, rate), rel=0.01
        )

    def test_batch_shadow_swap_continuity(self):
        """At the swap instant the current collection equals the crawler's."""
        rate, cycle, batch = 1.0 / 7.0, 30.0, 7.0
        crawler_at_swap = batch_shadow_freshness_at(batch, rate, cycle, batch, "crawler")
        current_at_swap = batch_shadow_freshness_at(batch, rate, cycle, batch, "current")
        assert crawler_at_swap == pytest.approx(current_at_swap)

    def test_batch_shadow_average_matches_closed_form(self):
        rate, cycle, batch = table2_scenario_rate(), 30.0, 7.0
        samples = [
            batch_shadow_freshness_at(t, rate, cycle, batch, "current")
            for t in [cycle * i / 2000 for i in range(2000)]
        ]
        policy = paper_table2_policies()["batch / shadowing"]
        assert sum(samples) / len(samples) == pytest.approx(
            time_averaged_freshness(policy, rate), rel=0.01
        )

    def test_inplace_dominates_shadowing_pointwise_for_steady(self):
        """Figure 8(a): the dashed (in-place) line is always above the solid."""
        rate, cycle = 1.0 / 7.0, 30.0
        for t in [0.5, 5.0, 12.0, 25.0]:
            assert steady_inplace_freshness_at(t, rate, cycle) >= steady_shadow_freshness_at(
                t, rate, cycle, "current"
            )

    def test_freshness_at_dispatch(self):
        rate = 0.1
        for policy in paper_table2_policies().values():
            value = freshness_at(policy, 3.0, rate)
            assert 0.0 <= value <= 1.0

    def test_trajectory_shape(self):
        policy = paper_table2_policies()["batch / in-place"]
        times, values = freshness_trajectory(policy, 0.1, duration_days=60.0, n_points=50)
        assert len(times) == len(values) == 50
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(60.0)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_trajectory_validation(self):
        policy = paper_table2_policies()["steady / in-place"]
        with pytest.raises(ValueError):
            freshness_trajectory(policy, 0.1, duration_days=0.0)
        with pytest.raises(ValueError):
            freshness_trajectory(policy, 0.1, duration_days=10.0, n_points=1)

    def test_invalid_collection_name(self):
        with pytest.raises(ValueError):
            steady_shadow_freshness_at(1.0, 0.1, 30.0, collection="bogus")

    def test_zero_rate_trajectories(self):
        assert batch_inplace_freshness_at(3.0, 0.0, 30.0, 7.0) == 1.0
        assert batch_shadow_freshness_at(10.0, 0.0, 30.0, 7.0, "current") == 1.0


class TestDenormalRates:
    """Regression: denormal rates (e.g. 5e-324) underflow products like
    ``rate * batch_duration`` to exactly 0.0, which used to divide by zero
    in the trajectory formulas; such pages must behave as never-changing."""

    DENORMAL = 5e-324

    def test_trajectories_treat_denormal_rate_as_static(self):
        assert batch_inplace_freshness_at(3.0, self.DENORMAL, 30.0, 0.05) == 1.0
        assert steady_shadow_freshness_at(3.0, self.DENORMAL, 0.05) == 1.0
        assert batch_shadow_freshness_at(3.0, self.DENORMAL, 30.0, 0.05, "current") == 1.0
        crawler = batch_shadow_freshness_at(3.0, self.DENORMAL, 30.0, 0.05, "crawler")
        assert 0.0 <= crawler <= 1.0

    def test_freshness_at_dispatch_is_bounded(self):
        for policy in paper_table2_policies().values():
            for collection in ("current", "crawler"):
                value = freshness_at(policy, 2.5, self.DENORMAL, collection)
                assert 0.0 <= value <= 1.0

    def test_expected_age_denormal_rate_is_negligible(self):
        assert 0.0 <= expected_age_periodic(self.DENORMAL, 0.05) < 1e-12
        assert 0.0 <= expected_age_periodic(self.DENORMAL, 90.0) < 1e-12

    def test_expected_age_small_rates_stable(self):
        """Regression: small-but-normal rates used to either divide by an
        underflowed ``rate * x`` (1e-300) or cancel catastrophically to a
        huge negative age (1e-18); the series branch keeps the limit
        ``rate * I^2 / 6`` instead."""
        assert expected_age_periodic(1e-300, 1.0) == pytest.approx(1e-300 / 6.0)
        assert expected_age_periodic(1e-18, 1.0) == pytest.approx(1e-18 / 6.0)
        # The series and closed-form branches agree where they meet.
        below, above = expected_age_periodic(0.00999, 1.0), expected_age_periodic(0.0101, 1.0)
        assert 0.0 < below < above
        assert above == pytest.approx(0.0101 / 6.0, rel=1e-2)
