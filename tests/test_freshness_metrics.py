"""Tests for empirical freshness/age metrics against the web oracle."""

import pytest

from repro.fetch.fetcher import SimulatedFetcher
from repro.freshness.metrics import collection_age, collection_freshness, time_average
from repro.storage.records import PageRecord

from reference.crawl import fetch


def record_from_fetch(fetcher, url, at):
    result = fetch(fetcher, url, at=at)
    assert result.ok
    return PageRecord(
        url=url,
        version=result.version,
        fetched_at=result.completed_at,
        first_fetched_at=result.completed_at,
        outlinks=tuple(result.outlinks),
    )


class TestCollectionFreshness:
    def test_empty_collection_has_zero_freshness(self, small_web):
        assert collection_freshness([], small_web, at=1.0) == 0.0

    def test_just_fetched_pages_are_fresh(self, small_web):
        fetcher = SimulatedFetcher(small_web, latency_days=0.0)
        records = [
            record_from_fetch(fetcher, url, at=1.0)
            for url in small_web.seed_urls()[:10]
        ]
        assert collection_freshness(records, small_web, at=1.0) == 1.0

    def test_freshness_decays_over_time(self, small_web):
        fetcher = SimulatedFetcher(small_web, latency_days=0.0)
        # Take a mix of pages, including fast-changing com pages.
        urls = [p.url for p in small_web.pages() if p.created_at == 0.0][:200]
        records = [record_from_fetch(fetcher, url, at=0.5) for url in urls]
        early = collection_freshness(records, small_web, at=1.0)
        late = collection_freshness(records, small_web, at=100.0)
        assert late < early

    def test_freshness_in_unit_interval(self, small_web):
        fetcher = SimulatedFetcher(small_web, latency_days=0.0)
        records = [
            record_from_fetch(fetcher, url, at=1.0) for url in small_web.seed_urls()
        ]
        for t in (1.0, 30.0, 100.0):
            assert 0.0 <= collection_freshness(records, small_web, at=t) <= 1.0

    def test_record_of_deleted_page_is_stale(self, small_web):
        dead = next(
            (p for p in small_web.pages()
             if p.created_at == 0.0 and p.deleted_at is not None
             and p.deleted_at < small_web.horizon_days - 2),
            None,
        )
        if dead is None:
            pytest.skip("no dead page available")
        fetcher = SimulatedFetcher(small_web, latency_days=0.0)
        record = record_from_fetch(fetcher, dead.url, at=0.5)
        after_death = dead.deleted_at + 1.0
        assert collection_freshness([record], small_web, at=after_death) == 0.0

    def test_unknown_url_counts_as_stale(self, small_web):
        record = PageRecord(
            url="http://not-in-web/",
            version=0,
            fetched_at=1.0,
            first_fetched_at=1.0,
        )
        assert collection_freshness([record], small_web, at=2.0) == 0.0


class TestCollectionAge:
    def test_empty_collection(self, small_web):
        assert collection_age([], small_web, at=1.0) == 0.0

    def test_fresh_records_have_zero_age(self, small_web):
        fetcher = SimulatedFetcher(small_web, latency_days=0.0)
        static_urls = [
            p.url for p in small_web.pages()
            if p.change_process.mean_rate == 0.0 and p.lifespan is None
            and p.created_at == 0.0
        ][:5]
        records = [record_from_fetch(fetcher, url, at=1.0) for url in static_urls]
        assert collection_age(records, small_web, at=100.0) == 0.0

    def test_age_grows_over_time_for_changing_pages(self, small_web):
        fetcher = SimulatedFetcher(small_web, latency_days=0.0)
        changing = [
            p.url for p in small_web.pages()
            if p.change_process.mean_rate >= 0.5 and p.lifespan is None
            and p.created_at == 0.0
        ][:20]
        if not changing:
            pytest.skip("no fast-changing permanent pages")
        records = [record_from_fetch(fetcher, url, at=0.5) for url in changing]
        early_age = collection_age(records, small_web, at=5.0)
        late_age = collection_age(records, small_web, at=60.0)
        assert late_age > early_age
        assert early_age >= 0.0


class TestTimeAverage:
    def test_empty(self):
        assert time_average([]) == 0.0

    def test_single_sample(self):
        assert time_average([(0.0, 0.7)]) == 0.7

    def test_piecewise_constant(self):
        samples = [(0.0, 1.0), (1.0, 0.0), (3.0, 0.0)]
        # 1.0 for one unit of time, 0.0 for two units.
        assert time_average(samples) == pytest.approx(1.0 / 3.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            time_average([(1.0, 0.5), (0.0, 0.5)])

    def test_all_same_time(self):
        assert time_average([(1.0, 0.2), (1.0, 0.4)]) == pytest.approx(0.3)
