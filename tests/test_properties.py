"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.histograms import CHANGE_INTERVAL_BUCKETS, BucketedHistogram
from repro.core.collurls import CollUrls
from repro.estimation.bayesian_estimator import BayesianClassEstimator
from repro.estimation.change_history import ChangeHistory
from repro.estimation.poisson_estimator import corrected_rate_estimate
from repro.freshness.analytic import (
    CrawlMode,
    CrawlPolicy,
    UpdateMode,
    expected_freshness_periodic,
    freshness_at,
    time_averaged_freshness,
)
from repro.freshness.optimal_allocation import (
    optimal_revisit_frequencies,
    page_freshness,
    total_freshness,
    uniform_revisit_frequencies,
)
from repro.ranking.pagerank import pagerank
from repro.simweb.change_models import PoissonChangeProcess
from repro.storage.collection import CollectionFullError, InPlaceCollection
from repro.storage.records import PageRecord, records_from_columns, records_to_columns

from reference.crawl import pop, refreshed, schedule
from reference.oracle import changes_between, version_at

# Strategies -------------------------------------------------------------- #

rates = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
positive_rates = st.floats(min_value=1e-4, max_value=50.0, allow_nan=False)
intervals = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)


class TestFreshnessProperties:
    @given(rate=rates, interval=intervals)
    def test_periodic_freshness_in_unit_interval(self, rate, interval):
        value = expected_freshness_periodic(rate, interval)
        assert 0.0 <= value <= 1.0

    @given(rate=positive_rates, interval=intervals)
    def test_periodic_freshness_decreases_with_interval(self, rate, interval):
        shorter = expected_freshness_periodic(rate, interval)
        longer = expected_freshness_periodic(rate, interval * 2.0)
        assert longer <= shorter + 1e-12

    @given(
        rate=rates,
        t=st.floats(min_value=0.0, max_value=300.0),
        cycle=st.floats(min_value=1.0, max_value=90.0),
        batch_fraction=st.floats(min_value=0.05, max_value=1.0),
        crawl_mode=st.sampled_from(list(CrawlMode)),
        update_mode=st.sampled_from(list(UpdateMode)),
        collection=st.sampled_from(["current", "crawler"]),
    )
    def test_instantaneous_freshness_in_unit_interval(
        self, rate, t, cycle, batch_fraction, crawl_mode, update_mode, collection
    ):
        policy = CrawlPolicy(
            crawl_mode, update_mode, cycle_days=cycle,
            batch_duration_days=cycle * batch_fraction,
        )
        value = freshness_at(policy, t, rate, collection)
        assert 0.0 <= value <= 1.0 + 1e-12

    @given(
        rate=rates,
        cycle=st.floats(min_value=1.0, max_value=90.0),
        batch_fraction=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_in_place_never_worse_than_shadowing(self, rate, cycle, batch_fraction):
        """A structural claim of Section 4: freshness of the current
        collection is always at least as high without shadowing."""
        for crawl_mode in CrawlMode:
            in_place = CrawlPolicy(
                crawl_mode, UpdateMode.IN_PLACE, cycle, cycle * batch_fraction
            )
            shadow = CrawlPolicy(
                crawl_mode, UpdateMode.SHADOW, cycle, cycle * batch_fraction
            )
            assert time_averaged_freshness(in_place, rate) >= time_averaged_freshness(
                shadow, rate
            ) - 1e-12


class TestAllocationProperties:
    @given(
        rate_list=st.lists(rates, min_size=1, max_size=25),
        budget=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_optimal_allocation_meets_budget_and_nonnegative(self, rate_list, budget):
        frequencies = optimal_revisit_frequencies(rate_list, budget)
        assert len(frequencies) == len(rate_list)
        assert all(f >= 0 for f in frequencies)
        if any(r > 1e-9 for r in rate_list):
            assert sum(frequencies) == pytest.approx(budget, rel=1e-3)

    @given(
        rate_list=st.lists(positive_rates, min_size=2, max_size=15),
        budget=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_optimal_at_least_as_good_as_uniform(self, rate_list, budget):
        optimal = total_freshness(
            rate_list, optimal_revisit_frequencies(rate_list, budget)
        )
        uniform = total_freshness(
            rate_list, uniform_revisit_frequencies(rate_list, budget)
        )
        assert optimal >= uniform - 1e-6

    @given(rate=rates, frequency=st.floats(min_value=0.0, max_value=100.0))
    def test_page_freshness_bounded(self, rate, frequency):
        assert 0.0 <= page_freshness(rate, frequency) <= 1.0


class TestEstimatorProperties:
    @given(
        n_visits=st.integers(min_value=1, max_value=500),
        data=st.data(),
        interval=st.floats(min_value=0.1, max_value=30.0),
    )
    def test_corrected_estimate_nonnegative_and_finite(self, n_visits, data, interval):
        n_changes = data.draw(st.integers(min_value=0, max_value=n_visits))
        estimate = corrected_rate_estimate(n_visits, n_changes, interval)
        assert estimate >= 0.0
        assert math.isfinite(estimate)

    @given(
        n_visits=st.integers(min_value=2, max_value=200),
        data=st.data(),
    )
    def test_corrected_estimate_monotone_in_changes(self, n_visits, data):
        fewer = data.draw(st.integers(min_value=0, max_value=n_visits - 1))
        estimate_low = corrected_rate_estimate(n_visits, fewer, 1.0)
        estimate_high = corrected_rate_estimate(n_visits, fewer + 1, 1.0)
        assert estimate_high > estimate_low

    @given(
        observations=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=40.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_bayesian_posterior_stays_normalised(self, observations):
        estimator = BayesianClassEstimator()
        for interval, changed in observations:
            estimator.observe(interval, changed)
        assert sum(estimator.posterior().values()) == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 for p in estimator.posterior().values())

    @given(
        interval_list=st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=50
        ),
        data=st.data(),
    )
    def test_change_history_summary_consistency(self, interval_list, data):
        changes = data.draw(
            st.lists(st.booleans(), min_size=len(interval_list), max_size=len(interval_list))
        )
        history = ChangeHistory(first_visit=0.0)
        time = 0.0
        for interval, changed in zip(interval_list, changes):
            time += interval
            history.record_visit(time, changed)
        assert history.n_visits == len(interval_list)
        assert history.n_changes == sum(changes)
        assert history.observation_time == pytest.approx(sum(interval_list))


class TestChangeProcessProperties:
    @given(
        rate=st.floats(min_value=0.0, max_value=5.0),
        horizon=st.floats(min_value=1.0, max_value=200.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        t0=st.floats(min_value=0.0, max_value=200.0),
        t1=st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_change_counts_additive_and_monotone(self, rate, horizon, seed, t0, t1):
        assume(t0 <= t1)
        process = PoissonChangeProcess(rate)
        process.materialise(horizon, np.random.default_rng(seed))
        assert changes_between(process, t0, t1) >= 0
        assert version_at(process, t1) >= version_at(process, t0)
        assert version_at(process, t1) == version_at(process, t0) + changes_between(process, t0, t1)


class TestCollUrlsProperties:
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_pop_order_is_nondecreasing_in_final_schedule(self, entries):
        queue = CollUrls()
        final_time = {}
        for key, time in entries:
            url = f"http://page{key}/"
            schedule(queue, url, time)
            final_time[url] = time
        popped = []
        while True:
            head = pop(queue)
            if head is None:
                break
            popped.append(head)
        assert len(popped) == len(final_time)
        times = [time for _, time in popped]
        assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))
        for url, time in popped:
            assert final_time[url] == time


class TestHistogramProperties:
    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=200))
    def test_fractions_sum_to_one_or_zero(self, values):
        histogram = BucketedHistogram(CHANGE_INTERVAL_BUCKETS)
        histogram.add_many(values)
        total = sum(histogram.fractions())
        if values:
            assert total == pytest.approx(1.0)
        else:
            assert total == 0.0
        assert sum(histogram.counts()) == len(values)


class TestPageRankProperties:
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_pagerank_is_a_probability_distribution(self, edges):
        graph = {}
        for source, target in edges:
            graph.setdefault(f"n{source}", []).append(f"n{target}")
        scores = pagerank(graph)
        assert sum(scores.values()) == pytest.approx(1.0)
        assert all(score >= 0 for score in scores.values())


class TestRepositoryProperties:
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["save", "discard"]), st.integers(0, 15)),
            max_size=60,
        ),
        capacity=st.integers(min_value=1, max_value=10),
    )
    def test_capacity_never_exceeded(self, operations, capacity):
        collection = InPlaceCollection(capacity=capacity)
        for operation, key in operations:
            url = f"http://page{key}/"
            if operation == "save":
                record = PageRecord(
                    url=url, version=0,
                    fetched_at=1.0, first_fetched_at=1.0,
                )
                full = collection.current_size() >= capacity
                if full and collection.get_working(url) is None:
                    with pytest.raises(CollectionFullError):
                        collection.store(record)
                else:
                    collection.store(record)
            else:
                collection.discard(url)
            assert collection.current_size() <= capacity


class TestPageRecordProperties:
    @given(versions=st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_change_count_is_the_number_of_version_steps(self, versions):
        record = PageRecord(
            url="http://p/", version=versions[0], fetched_at=0.0, first_fetched_at=0.0
        )
        for day, version in enumerate(versions[1:], start=1):
            record = refreshed(record, version, fetched_at=float(day), outlinks=())
        steps = sum(a != b for a, b in zip(versions, versions[1:]))
        assert record.change_count == steps
        assert record.visit_count == len(versions)
        assert record.version == versions[-1]

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**62),
                st.floats(0.0, 1e6, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            max_size=20,
        )
    )
    def test_record_columns_roundtrip(self, rows):
        records = [
            PageRecord(
                url=f"http://p{i}/", version=version, fetched_at=fetched_at,
                first_fetched_at=fetched_at, outlinks=(f"http://q{i}/",),
                importance=importance,
            )
            for i, (version, fetched_at, importance) in enumerate(rows)
        ]
        ids = {}
        columns = records_to_columns(records, ids)
        assert records_from_columns(columns, list(ids)) == records
