"""Tests for CrawlModule, UpdateModule and RankingModule."""

import pytest

from repro.api.specs import CrawlerSpec, PolicySpec
from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.crawl_module import CrawlModule
from repro.core.ranking_module import RankingModule
from repro.core.update_module import UpdateModule
from repro.fetch.fetcher import SimulatedFetcher
from repro.storage.checkpoint import encode
from repro.storage.collection import InPlaceCollection

from reference.crawl import crawl, refreshed, schedule
from reference.oracle import page_version_at


def build_crawl_module(web, capacity=None):
    fetcher = SimulatedFetcher(web, latency_days=0.0)
    collection = InPlaceCollection(capacity=capacity)
    allurls = AllUrls()
    return CrawlModule(fetcher, collection, allurls), collection, allurls


class TestCrawlModule:
    def test_first_crawl_stores_record(self, tiny_web):
        module, collection, allurls = build_crawl_module(tiny_web)
        url = tiny_web.seed_urls()[0]
        outcome = crawl(module, url, at=1.0)
        assert outcome.stored
        assert outcome.was_new
        assert outcome.changed
        assert collection.get_working(url) is not None

    def test_links_forwarded_to_allurls(self, tiny_web):
        module, _, allurls = build_crawl_module(tiny_web)
        url = tiny_web.seed_urls()[0]
        crawl(module, url, at=1.0)
        for link in tiny_web.page(url).outlinks:
            assert link in allurls

    def test_a_readmitted_page_forwards_again_and_allurls_stays(
        self, tiny_web, monkeypatch
    ):
        # Links are forwarded when a fetch stores a new record: once per
        # admission. A page's out-links are constant, so the forward at its
        # re-admission finds every target known and changes nothing.
        module, _, allurls = build_crawl_module(tiny_web)
        url = tiny_web.seed_urls()[0]
        assert tiny_web.page(url).outlinks
        module.crawl_many([url], [1.0])
        before = encode(allurls.snapshot())
        forwards = []
        record_links = allurls.record_links
        monkeypatch.setattr(
            allurls, "record_links",
            lambda *args: forwards.append(args[0]) or record_links(*args),
        )
        module.crawl_many([url], [2.0])
        assert forwards == []
        module.discard(url)
        module.crawl_many([url], [3.0])
        assert forwards == [url]
        assert encode(allurls.snapshot()) == before

    def test_refetch_without_change(self, tiny_web):
        module, collection, _ = build_crawl_module(tiny_web)
        static = next(
            p.url for p in tiny_web.pages()
            if p.change_process.mean_rate == 0.0 and p.lifespan is None
            and p.created_at == 0.0
        )
        crawl(module, static, at=1.0)
        outcome = crawl(module, static, at=20.0)
        assert not outcome.changed
        assert not outcome.was_new
        assert collection.get_working(static).visit_count == 2

    def test_refetch_detects_change(self, tiny_web):
        module, collection, _ = build_crawl_module(tiny_web)
        page = next(
            p for p in tiny_web.pages()
            if p.lifespan is None and p.created_at == 0.0
            and len(p.change_process.change_times()) > 0
        )
        change_time = page.change_process.change_times()[0]
        crawl(module, page.url, at=max(0.0, change_time - 1e-3))
        outcome = crawl(module, page.url, at=change_time + 1e-3)
        assert outcome.changed
        assert collection.get_working(page.url).change_count == 1

    def test_stored_record_holds_the_fetched_version(self, tiny_web):
        module, collection, _ = build_crawl_module(tiny_web)
        urls = [
            p.url for p in tiny_web.pages()
            if p.created_at == 0.0 and p.lifespan is None
        ][:10]
        crawl(module, urls[0], at=30.0)
        module.crawl_many(urls[1:], [30.0] * (len(urls) - 1))
        for url in urls:
            record = collection.get_working(url)
            assert record.version == page_version_at(tiny_web.page(url), record.fetched_at)

    def test_crawl_many_compares_with_the_stored_version(self, tiny_web):
        module, collection, _ = build_crawl_module(tiny_web)
        page = next(
            p for p in tiny_web.pages()
            if p.change_process.mean_rate == 0.0 and p.lifespan is None
            and p.created_at == 0.0
        )
        module.crawl_many([page.url], [1.0])
        assert not module.crawl_many([page.url], [2.0]).changed[0]
        # A stored copy of another version differs from the page as fetched,
        # however the record got into the collection.
        stale = collection.get_working(page.url)
        collection.store(refreshed(stale, stale.version + 1, 3.0, stale.outlinks))
        assert module.crawl_many([page.url], [4.0]).changed[0]
        record = collection.get_working(page.url)
        assert record.version == page_version_at(page, 4.0)
        assert record.change_count == 2

    def test_snapshot_holds_counters_and_recorded_links_only(self, tiny_web):
        module, _, _ = build_crawl_module(tiny_web)
        urls = tiny_web.seed_urls()[:3]
        module.crawl_many(urls + ["http://ghost/"], [1.0] * 4)
        state = module.snapshot()
        assert state == {"pages_fetched": 3, "pages_failed": 1}
        restored, _, _ = build_crawl_module(tiny_web)
        restored.restore_snapshot(state)
        assert restored.snapshot() == state

    def test_missing_page_not_stored(self, tiny_web):
        module, collection, allurls = build_crawl_module(tiny_web)
        allurls.add("http://ghost/", 0.0)
        outcome = crawl(module, "http://ghost/", at=1.0)
        assert not outcome.stored
        assert module.pages_failed == 1
        assert allurls.info("http://ghost/").last_failed_at is not None

    def test_fetch_counters(self, tiny_web):
        module, _, _ = build_crawl_module(tiny_web)
        crawl(module, tiny_web.seed_urls()[0], at=1.0)
        crawl(module, "http://ghost/", at=1.0)
        assert module.pages_fetched == 1
        assert module.pages_failed == 1

    def test_discard(self, tiny_web):
        module, collection, _ = build_crawl_module(tiny_web)
        url = tiny_web.seed_urls()[0]
        crawl(module, url, at=1.0)
        assert module.discard(url) is not None
        assert collection.get_working(url) is None


class TestUpdateModule:
    def _build(self, web, estimator="ep", policy="uniform", budget=500.0):
        crawl_module, collection, allurls = build_crawl_module(web)
        collurls = CollUrls()
        crawler = CrawlerSpec(
            crawl_budget_per_day=budget,
            default_revisit_interval_days=2.0,
            reallocation_interval_days=1.0,
        )
        update = UpdateModule(
            collurls,
            crawl_module,
            crawler,
            PolicySpec(revisit_policy=policy, estimator=estimator),
        )
        return update, collurls, collection

    def test_empty_queue_processes_nothing(self, tiny_web):
        update, collurls, _ = self._build(tiny_web)
        assert update.process_slots([1.0]) == 0

    def test_processed_url_is_rescheduled(self, tiny_web):
        update, collurls, _ = self._build(tiny_web)
        url = tiny_web.seed_urls()[0]
        schedule(collurls, url, 0.0)
        assert update.process_slots([1.0]) == 1
        assert url in collurls
        assert collurls.scheduled_time(url) > 1.0

    def test_missing_page_is_dropped(self, tiny_web):
        update, collurls, collection = self._build(tiny_web)
        schedule(collurls, "http://ghost/", 0.0)
        update.process_slots([1.0])
        assert "http://ghost/" not in collurls
        assert collection.get_working("http://ghost/") is None

    def test_change_history_accumulates(self, tiny_web):
        update, collurls, _ = self._build(tiny_web)
        url = tiny_web.seed_urls()[0]
        schedule(collurls, url, 0.0)
        time = 0.5
        for _ in range(5):
            update.process_slots([time])
            time += 1.0
        history = update.history(url)
        assert history is not None
        assert history.n_visits == 4  # first visit establishes the baseline

    def test_rate_estimate_appears_after_revisits(self, tiny_web):
        update, collurls, _ = self._build(tiny_web)
        fast_url = next(
            p.url for p in tiny_web.pages()
            if p.change_process.mean_rate >= 1.0 and p.lifespan is None
            and p.created_at == 0.0
        )
        schedule(collurls, fast_url, 0.0)
        time = 0.5
        for _ in range(10):
            update.process_slots([time])
            time += 1.0
        estimate = update.estimated_rate(fast_url)
        assert estimate is not None
        assert estimate > 0.1

    def test_eb_estimator_mode(self, tiny_web):
        update, collurls, _ = self._build(tiny_web, estimator="eb")
        url = tiny_web.seed_urls()[0]
        schedule(collurls, url, 0.0)
        time = 0.5
        for _ in range(5):
            update.process_slots([time])
            time += 1.0
        assert update.estimated_rate(url) is not None

    def test_changes_detected_counter(self, tiny_web):
        update, collurls, _ = self._build(tiny_web)
        fast_url = next(
            p.url for p in tiny_web.pages()
            if p.change_process.mean_rate >= 1.0 and p.lifespan is None
            and p.created_at == 0.0
        )
        schedule(collurls, fast_url, 0.0)
        time = 0.5
        for _ in range(10):
            update.process_slots([time])
            time += 2.0
        assert update.changes_detected > 0

    def test_set_importance_accepted(self, tiny_web):
        update, _, _ = self._build(tiny_web)
        update.set_importance({"http://a/": 0.5})

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            CrawlerSpec(crawl_budget_per_day=0.0)
        with pytest.raises(ValueError):
            PolicySpec(estimator="bogus")
        with pytest.raises(ValueError):
            CrawlerSpec(default_revisit_interval_days=0.0)


class TestRankingModule:
    def _build(self, web, capacity=20, metric="pagerank"):
        crawl_module, collection, allurls = build_crawl_module(web, capacity=capacity)
        collurls = CollUrls()
        ranking = RankingModule(
            allurls, collurls, collection, crawl_module, PolicySpec(importance_metric=metric)
        )
        return ranking, crawl_module, collection, allurls, collurls

    def test_admits_candidates_below_capacity(self, tiny_web):
        ranking, crawl_module, collection, allurls, collurls = self._build(tiny_web)
        seed = tiny_web.seed_urls()[0]
        crawl(crawl_module, seed, at=0.5)
        result = ranking.refine(at=1.0)
        assert result.admitted
        assert all(url in collurls for url in result.admitted)

    def test_importance_stored_on_records(self, tiny_web):
        # Capacity far above the candidate count: the scan must store
        # importance on the crawled records without the replacement logic
        # discarding them (which pages win replacement depends on the
        # generated web's link structure, not what this test pins).
        ranking, crawl_module, collection, _, _ = self._build(tiny_web, capacity=500)
        for url in tiny_web.seed_urls()[:5]:
            crawl(crawl_module, url, at=0.5)
        ranking.refine(at=1.0)
        assert collection.working_records()
        assert any(r.importance > 0 for r in collection.working_records())

    def test_replacement_at_capacity(self, tiny_web):
        capacity = 5
        ranking, crawl_module, collection, allurls, collurls = self._build(
            tiny_web, capacity=capacity
        )
        # Fill the collection with deep, unimportant pages of one site.
        site = tiny_web.sites[0]
        deep_pages = sorted(site.all_pages, key=lambda p: -p.depth)[:capacity]
        for page in deep_pages:
            crawl(crawl_module, page.url, at=0.5)
            schedule(collurls, page.url, 10.0)
        # Make the crawler aware of every root page (heavily linked).
        for source in deep_pages:
            allurls.record_links(source.url, tiny_web.seed_urls(), 0.6)
        result = ranking.refine(at=1.0)
        assert ranking.pages_replaced >= 0
        total_tracked = len(collection.working_records()) + sum(
            1 for url in collurls.urls() if collection.get_working(url) is None
        )
        assert total_tracked <= capacity + len(result.admitted)

    def test_hits_metric_mode(self, tiny_web):
        ranking, crawl_module, _, _, _ = self._build(tiny_web, metric="hits")
        for url in tiny_web.seed_urls()[:3]:
            crawl(crawl_module, url, at=0.5)
        result = ranking.refine(at=1.0)
        assert isinstance(result.importance, dict)

    def test_empty_collection_refine(self, tiny_web):
        ranking, _, _, _, _ = self._build(tiny_web)
        result = ranking.refine(at=1.0)
        assert result.importance == {}
        assert result.replacements == ()

    def test_unknown_metric_is_refused_by_the_policy(self):
        with pytest.raises(ValueError, match="importance metric"):
            PolicySpec(importance_metric="bogus")
