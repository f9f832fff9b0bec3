"""End-to-end tests for the incremental and periodic crawlers."""

import pytest

from repro.api.specs import CrawlerSpec, PolicySpec
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.periodic_crawler import PeriodicCrawler

POLICY = PolicySpec(revisit_policy="optimal", estimator="ep")


def incremental_spec(**overrides):
    defaults = dict(
        collection_capacity=80,
        crawl_budget_per_day=400.0,
        ranking_interval_days=3.0,
        measurement_interval_days=1.0,
        track_quality=False,
    )
    defaults.update(overrides)
    return CrawlerSpec(**defaults)


class TestIncrementalCrawlerSpec:
    def test_defaults_valid(self):
        CrawlerSpec()
        PolicySpec()

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            CrawlerSpec(collection_capacity=0)
        with pytest.raises(ValueError):
            CrawlerSpec(crawl_budget_per_day=0.0)
        with pytest.raises(ValueError):
            PolicySpec(revisit_policy="bogus")
        with pytest.raises(ValueError):
            CrawlerSpec(ranking_interval_days=0.0)
        with pytest.raises(ValueError):
            CrawlerSpec(measurement_interval_days=0.0)

    def test_policy_factory(self):
        from repro.freshness.policies import (
            OptimalRevisitPolicy,
            ProportionalRevisitPolicy,
            UniformRevisitPolicy,
        )

        assert isinstance(
            PolicySpec(revisit_policy="uniform").build_revisit_policy(),
            UniformRevisitPolicy,
        )
        assert isinstance(
            PolicySpec(revisit_policy="proportional").build_revisit_policy(),
            ProportionalRevisitPolicy,
        )
        assert isinstance(
            PolicySpec(revisit_policy="optimal").build_revisit_policy(),
            OptimalRevisitPolicy,
        )


class TestIncrementalCrawler:
    def test_requires_seeds(self, tiny_web):
        with pytest.raises(ValueError):
            IncrementalCrawler(tiny_web, incremental_spec(), POLICY, seed_urls=[])

    def test_run_collects_pages(self, tiny_web):
        crawler = IncrementalCrawler(tiny_web, incremental_spec(duration_days=20.0), POLICY)
        result = crawler.run()
        assert result.pages_crawled > 0
        assert len(crawler.collection.current_records()) > 10

    def test_collection_respects_capacity(self, tiny_web):
        crawler = IncrementalCrawler(
            tiny_web, incremental_spec(collection_capacity=30, duration_days=20.0), POLICY
        )
        crawler.run()
        assert len(crawler.collection.current_records()) <= 30

    def test_freshness_series_recorded(self, tiny_web):
        crawler = IncrementalCrawler(tiny_web, incremental_spec(duration_days=15.0), POLICY)
        result = crawler.run()
        assert len(result.freshness) >= 14
        assert all(0.0 <= f <= 1.0 for f in result.freshness.freshness)

    def test_steady_state_freshness_is_high(self, tiny_web):
        """With ample budget the incremental crawler keeps the collection
        fresh (the left-hand column of Figure 10)."""
        crawler = IncrementalCrawler(tiny_web, incremental_spec(duration_days=40.0), POLICY)
        result = crawler.run()
        steady = result.freshness.after(20.0)
        assert steady.mean_freshness() > 0.7

    def test_changes_detected(self, tiny_web):
        crawler = IncrementalCrawler(tiny_web, incremental_spec(duration_days=30.0), POLICY)
        result = crawler.run()
        assert result.changes_detected > 0

    def test_rate_estimates_accumulate(self, tiny_web):
        crawler = IncrementalCrawler(tiny_web, incremental_spec(duration_days=30.0), POLICY)
        crawler.run()
        estimates = crawler.update_module.estimated_rates()
        assert len(estimates) > 5
        assert all(rate >= 0 for rate in estimates.values())

    def test_quality_tracking(self, tiny_web):
        crawler = IncrementalCrawler(
            tiny_web,
            incremental_spec(track_quality=True, collection_capacity=40, duration_days=30.0),
            POLICY,
        )
        result = crawler.run()
        assert result.quality
        assert result.final_quality() > 0.3

    def test_run_duration_validation(self):
        # The run length is the spec's: a zero-day run never builds a crawler.
        with pytest.raises(ValueError, match="duration_days"):
            incremental_spec(duration_days=0.0)

    def test_eb_estimator_end_to_end(self, tiny_web):
        crawler = IncrementalCrawler(
            tiny_web,
            incremental_spec(duration_days=15.0),
            PolicySpec(revisit_policy="optimal", estimator="eb"),
        )
        result = crawler.run()
        assert result.pages_crawled > 0

    def test_uniform_policy_end_to_end(self, tiny_web):
        crawler = IncrementalCrawler(
            tiny_web,
            incremental_spec(duration_days=15.0),
            PolicySpec(revisit_policy="uniform", estimator="ep"),
        )
        result = crawler.run()
        assert result.pages_crawled > 0

    def test_importance_weighted_scheduling(self, tiny_web):
        crawler = IncrementalCrawler(
            tiny_web,
            incremental_spec(track_quality=False, duration_days=15.0),
            PolicySpec(revisit_policy="optimal", estimator="ep", use_importance=True),
        )
        result = crawler.run()
        assert result.pages_crawled > 0


class TestPeriodicCrawlerSpec:
    def test_defaults_valid(self):
        CrawlerSpec(kind="periodic")

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            CrawlerSpec(kind="periodic", collection_capacity=0)
        with pytest.raises(ValueError):
            CrawlerSpec(kind="periodic", crawl_budget_per_day=0.0)
        with pytest.raises(ValueError):
            CrawlerSpec(kind="periodic", cycle_days=0.0)


class TestPeriodicCrawler:
    def _spec(self, **overrides):
        defaults = dict(
            kind="periodic",
            collection_capacity=80,
            crawl_budget_per_day=400.0,
            cycle_days=10.0,
            measurement_interval_days=1.0,
            track_quality=False,
        )
        defaults.update(overrides)
        return CrawlerSpec(**defaults)

    def test_requires_seeds(self, tiny_web):
        with pytest.raises(ValueError):
            PeriodicCrawler(tiny_web, self._spec(), seed_urls=[])

    def test_cycles_completed(self, tiny_web):
        crawler = PeriodicCrawler(tiny_web, self._spec(duration_days=35.0))
        result = crawler.run()
        assert result.cycles_completed >= 3
        assert result.pages_crawled > 0

    def test_current_collection_swapped_in(self, tiny_web):
        crawler = PeriodicCrawler(tiny_web, self._spec(duration_days=25.0))
        crawler.run()
        assert len(crawler.collection.current_records()) > 0
        assert crawler.collection.swap_times

    def test_freshness_recorded(self, tiny_web):
        crawler = PeriodicCrawler(tiny_web, self._spec(duration_days=30.0))
        result = crawler.run()
        assert len(result.freshness) > 0
        assert 0.0 <= result.mean_freshness() <= 1.0

    def test_run_duration_validation(self):
        with pytest.raises(ValueError, match="duration_days"):
            self._spec(duration_days=-1.0)


class TestIncrementalVersusPeriodic:
    def test_incremental_collection_is_fresher(self, tiny_web):
        """The paper's central claim: the incremental crawler maintains a
        fresher collection than the periodic crawler at the same average
        crawl speed."""
        capacity = 80
        duration = 40.0
        cycle = 10.0
        # Same average number of fetches per day for both crawlers.
        average_budget = 8.0 * capacity / cycle
        incremental = IncrementalCrawler(
            tiny_web,
            incremental_spec(
                collection_capacity=capacity,
                crawl_budget_per_day=average_budget,
                duration_days=duration,
            ),
            POLICY,
        )
        periodic = PeriodicCrawler(
            tiny_web,
            CrawlerSpec(
                kind="periodic",
                collection_capacity=capacity,
                crawl_budget_per_day=average_budget * 4,  # batch: higher peak speed
                cycle_days=cycle,
                duration_days=duration,
                measurement_interval_days=1.0,
                track_quality=False,
            ),
        )
        incremental_result = incremental.run()
        periodic_result = periodic.run()
        # Compare after both have completed their first cycle.
        inc_steady = incremental_result.freshness.after(cycle)
        per_steady = periodic_result.freshness.after(cycle)
        assert inc_steady.mean_freshness() > per_steady.mean_freshness()
