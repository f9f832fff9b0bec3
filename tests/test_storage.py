"""Tests for the storage substrate: records and collections."""

import pytest

from repro.api.specs import PolicySpec
from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.crawl_module import CrawlModule
from repro.core.ranking_module import RankingModule
from repro.fetch.fetcher import SimulatedFetcher
from repro.storage.collection import (
    CollectionFullError,
    InPlaceCollection,
    ShadowCollection,
)
from repro.storage.records import PageRecord


def make_record(url="http://s.com/p", version=0, fetched_at=1.0, importance=0.0):
    return PageRecord(
        url=url,
        version=version,
        fetched_at=fetched_at,
        first_fetched_at=fetched_at,
        outlinks=("http://s.com/other",),
        importance=importance,
    )


class TestPageRecord:
    def test_refreshed_detects_change(self):
        record = make_record(version=1)
        refreshed = record.refreshed(2, fetched_at=2.0, outlinks=())
        assert refreshed.change_count == 1
        assert refreshed.visit_count == 2
        assert refreshed.version == 2

    def test_refreshed_without_change(self):
        record = make_record(version=1)
        refreshed = record.refreshed(1, fetched_at=2.0, outlinks=())
        assert refreshed.change_count == 0
        assert refreshed.visit_count == 2

    def test_change_count_counts_version_differences(self):
        record = make_record(version=0)
        for day, version in enumerate([0, 1, 1, 3, 2], start=2):
            record = record.refreshed(version, fetched_at=float(day), outlinks=())
        assert record.version == 2
        assert record.visit_count == 6
        assert record.change_count == 3

    def test_refresh_replaces_outlinks_and_keeps_importance(self):
        record = make_record(version=1, importance=0.5)
        refreshed = record.refreshed(1, fetched_at=3.0, outlinks=["http://s.com/new"])
        assert refreshed.outlinks == ("http://s.com/new",)
        assert refreshed.importance == 0.5
        assert refreshed.fetched_at == 3.0
        assert record.fetched_at == 1.0

    def test_refresh_preserves_first_fetch(self):
        record = make_record(fetched_at=1.0)
        refreshed = record.refreshed(1, fetched_at=5.0, outlinks=())
        assert refreshed.first_fetched_at == 1.0
        assert refreshed.observation_span() == pytest.approx(4.0)

    def test_refresh_backwards_in_time_rejected(self):
        record = make_record(fetched_at=5.0)
        with pytest.raises(ValueError):
            record.refreshed(1, fetched_at=1.0, outlinks=())

    def test_scan_writes_importance_in_place(self, tiny_web):
        collection = InPlaceCollection(capacity=500)
        allurls = AllUrls()
        crawl_module = CrawlModule(
            SimulatedFetcher(tiny_web, latency_days=0.0), collection, allurls
        )
        for url in tiny_web.seed_urls()[:5]:
            crawl_module.crawl(url, at=0.5)
        stored = {record.url: record for record in collection.working_records()}
        result = RankingModule(
            allurls, CollUrls(), collection, crawl_module, PolicySpec()
        ).refine(at=1.0)
        # Below capacity nothing is replaced: the same record objects stay
        # stored, each now carrying the scan's score.
        for record in collection.working_records():
            assert record is stored[record.url]
            assert record.importance == result.importance.get(record.url, 0.0)
        assert any(record.importance > 0 for record in stored.values())

    def test_observed_change_fraction(self):
        record = make_record(version=0)
        record = record.refreshed(1, 2.0, ())
        record = record.refreshed(1, 3.0, ())
        assert record.observed_change_fraction == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            PageRecord("u", 0, fetched_at=-1.0, first_fetched_at=0.0)
        with pytest.raises(ValueError):
            PageRecord("u", 0, fetched_at=0.0, first_fetched_at=1.0)
        with pytest.raises(ValueError):
            PageRecord("u", 0, fetched_at=1.0, first_fetched_at=1.0, visit_count=0)
        with pytest.raises(ValueError):
            PageRecord(
                "u", 0, fetched_at=1.0, first_fetched_at=1.0,
                visit_count=1, change_count=2,
            )


class TestCollectionCapacity:
    def test_capacity_enforced(self):
        collection = InPlaceCollection(capacity=2)
        collection.store(make_record(url="http://a/"))
        collection.store(make_record(url="http://b/"))
        with pytest.raises(CollectionFullError):
            collection.store(make_record(url="http://c/"))
        assert collection.current_urls() == ["http://a/", "http://b/"]

    def test_update_allowed_at_capacity(self):
        collection = InPlaceCollection(capacity=1)
        collection.store(make_record(url="http://a/", version=1))
        collection.store(make_record(url="http://a/", version=2))
        assert collection.get_working("http://a/").version == 2

    def test_shadow_capacity_bounds_the_working_collection(self):
        collection = ShadowCollection(capacity=1)
        collection.store(make_record(url="http://a/"))
        with pytest.raises(CollectionFullError):
            collection.store(make_record(url="http://b/"))
        collection.complete_cycle(at=1.0)
        collection.store(make_record(url="http://b/"))
        assert collection.current_urls() == ["http://a/"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            InPlaceCollection(capacity=0)


class TestInPlaceCollection:
    def test_store_is_immediately_visible(self):
        collection = InPlaceCollection()
        collection.store(make_record())
        assert len(collection.current_records()) == 1

    def test_refresh_replaces_record(self):
        collection = InPlaceCollection()
        collection.store(make_record(version=1))
        collection.store(make_record(version=2))
        assert collection.current_records()[0].version == 2

    def test_discard(self):
        collection = InPlaceCollection()
        record = make_record()
        collection.store(record)
        assert collection.discard(record.url) is not None
        assert collection.current_records() == []

    def test_discard_missing_returns_none(self):
        assert InPlaceCollection().discard("http://x/") is None

    def test_complete_cycle_is_noop(self):
        collection = InPlaceCollection()
        collection.store(make_record())
        collection.complete_cycle(at=10.0)
        assert len(collection.current_records()) == 1

    def test_working_equals_current(self):
        collection = InPlaceCollection()
        collection.store(make_record())
        assert [r.url for r in collection.working_records()] == [
            r.url for r in collection.current_records()
        ]


class TestShadowCollection:
    def test_store_not_visible_before_swap(self):
        collection = ShadowCollection()
        collection.store(make_record())
        assert collection.current_records() == []
        assert len(collection.working_records()) == 1

    def test_swap_makes_records_visible(self):
        collection = ShadowCollection()
        collection.store(make_record())
        collection.complete_cycle(at=5.0)
        assert len(collection.current_records()) == 1
        assert collection.swap_times == [5.0]

    def test_shadow_cleared_after_swap(self):
        collection = ShadowCollection()
        collection.store(make_record())
        collection.complete_cycle(at=5.0)
        assert collection.working_records() == []

    def test_current_survives_next_cycle_until_swap(self):
        collection = ShadowCollection()
        collection.store(make_record(url="http://old/"))
        collection.complete_cycle(at=5.0)
        collection.store(make_record(url="http://new/"))
        current_urls = [r.url for r in collection.current_records()]
        assert current_urls == ["http://old/"]
        collection.complete_cycle(at=10.0)
        current_urls = [r.url for r in collection.current_records()]
        assert current_urls == ["http://new/"]

    def test_get_working(self):
        collection = ShadowCollection()
        record = make_record()
        collection.store(record)
        assert collection.get_working(record.url) is record
        assert collection.get_working("http://other/") is None
