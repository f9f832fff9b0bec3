"""The crawl loop vs the per-URL reference engine in ``tests/reference/``.

The crawl loop (tick-window slot batching, batched oracle fetches, bulk
reschedules) promises *bit-identical* behaviour to the per-URL reference
engine: same counters, same freshness and quality series, same
stored collection. These tests pin that promise across every revisit
policy × estimator combination, for the periodic crawler's wave-batched
cycles, and for the collision-safe scheduling primitives the batched
engine leans on.
"""

from __future__ import annotations

import pytest

from repro.api.specs import CrawlerSpec, PolicySpec, WebSpec
from repro.core.collurls import CollUrls
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.periodic_crawler import PeriodicCrawler
from repro.simweb.generator import generate_web

from reference.crawl import (
    ReferenceIncrementalCrawler,
    ReferencePeriodicCrawler,
    pop,
    schedule,
)
from test_checkpoint_resume import snapshot_with_table

WEB_SPEC = WebSpec(
    site_scale=0.04,
    pages_per_site=12,
    horizon_days=50.0,
    new_page_fraction=0.25,
    seed=11,
)


ENGINES = {"batched": IncrementalCrawler, "reference": ReferenceIncrementalCrawler}


def _run_incremental(engine: str, policy: str, estimator: str):
    web = generate_web(WEB_SPEC)
    crawler = ENGINES[engine](
        web,
        CrawlerSpec(
            collection_capacity=100,
            crawl_budget_per_day=400.0,
            duration_days=30.0,
            ranking_interval_days=5.0,
            reallocation_interval_days=1.0,
            measurement_interval_days=0.5,
            track_quality=True,
        ),
        PolicySpec(revisit_policy=policy, estimator=estimator),
    )
    result = crawler.run()
    return result, crawler


@pytest.mark.usefixtures("collection_stays_queued")
class TestIncrementalEngineParity:
    @pytest.mark.parametrize("policy", ["uniform", "proportional", "optimal"])
    @pytest.mark.parametrize("estimator", ["ep", "eb"])
    def test_counters_and_series_identical(self, policy, estimator):
        batched, crawler_b = _run_incremental("batched", policy, estimator)
        reference, crawler_r = _run_incremental("reference", policy, estimator)

        assert batched.pages_crawled == reference.pages_crawled
        assert batched.pages_failed == reference.pages_failed
        assert batched.changes_detected == reference.changes_detected
        assert batched.pages_replaced == reference.pages_replaced

        # Bit-identical series, not approximately equal.
        assert batched.freshness.times == reference.freshness.times
        assert batched.freshness.freshness == reference.freshness.freshness
        assert batched.quality == reference.quality
        assert batched.quality_times == reference.quality_times

        records_b = {r.url: r for r in crawler_b.collection.current_records()}
        records_r = {r.url: r for r in crawler_r.collection.current_records()}
        assert set(records_b) == set(records_r)
        for url, record in records_b.items():
            other = records_r[url]
            assert record.fetched_at == other.fetched_at
            assert record.version == other.version
            assert record.visit_count == other.visit_count
            assert record.change_count == other.change_count
        # The batched engine forwards a page's links at its admission, the
        # reference engine at every fetch: the registries agree.
        assert crawler_b.allurls.snapshot() == crawler_r.allurls.snapshot()

    def test_rate_estimates_identical(self):
        _, crawler_b = _run_incremental("batched", "optimal", "ep")
        _, crawler_r = _run_incremental("reference", "optimal", "ep")
        assert (
            crawler_b.update_module.estimated_rates()
            == crawler_r.update_module.estimated_rates()
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            CrawlerSpec(engine="warp")


POLITE_MODES = {
    # (min_delay_seconds, night_window, reallocation_interval_days)
    "delay": (1800.0, False, 1.0),
    "night": (0.0, True, 1.0),
    "both": (1800.0, True, 1.0),
    # Reallocations every ~40 slots: triggers fall in the middle of popped
    # runs, so the replay must commit, restore the tail and flush first.
    "realloc": (1800.0, True, 0.13),
}


def _run_incremental_polite(engine: str, policy: str, estimator: str, mode: str):
    delay, night, realloc = POLITE_MODES[mode]
    web = generate_web(WEB_SPEC)
    crawler = ENGINES[engine](
        web,
        CrawlerSpec(
            collection_capacity=80,
            crawl_budget_per_day=300.0,
            duration_days=15.0,
            ranking_interval_days=5.0,
            reallocation_interval_days=realloc,
            measurement_interval_days=0.5,
            track_quality=False,
            use_politeness=True,
            politeness_min_delay_seconds=delay,
            politeness_night_window=night,
        ),
        PolicySpec(revisit_policy=policy, estimator=estimator),
    )
    result = crawler.run()
    return result, crawler


@pytest.mark.usefixtures("collection_stays_queued")
class TestPolitenessEngineParity:
    """Politeness on the batched engine, bit-identical.

    The batched replay resolves each popped entry's start instant with the
    scalar per-site recurrence before it predicts the entry's outcome;
    every mode — minimum delay only, night window only, both, and both
    under frequent reallocations — must reproduce the reference engine's
    counters, freshness series, every fetch timestamp and the queue.
    """

    @pytest.mark.parametrize("mode", sorted(POLITE_MODES))
    @pytest.mark.parametrize("policy", ["uniform", "proportional", "optimal"])
    @pytest.mark.parametrize("estimator", ["ep", "eb"])
    def test_polite_runs_identical(self, mode, policy, estimator):
        batched, crawler_b = _run_incremental_polite("batched", policy, estimator, mode)
        reference, crawler_r = _run_incremental_polite(
            "reference", policy, estimator, mode
        )

        assert batched.pages_crawled == reference.pages_crawled
        assert batched.pages_failed == reference.pages_failed
        assert batched.changes_detected == reference.changes_detected
        assert batched.pages_replaced == reference.pages_replaced
        assert batched.freshness.times == reference.freshness.times
        assert batched.freshness.freshness == reference.freshness.freshness

        records_b = {r.url: r for r in crawler_b.collection.current_records()}
        records_r = {r.url: r for r in crawler_r.collection.current_records()}
        assert set(records_b) == set(records_r)
        for url, record in records_b.items():
            other = records_r[url]
            # Politeness shifts the fetch instants themselves, so the
            # timestamps pin the resolved per-site delay chains.
            assert record.fetched_at == other.fetched_at
            assert record.version == other.version
            assert record.visit_count == other.visit_count
            assert record.change_count == other.change_count
        assert snapshot_with_table(crawler_b.collurls) == snapshot_with_table(crawler_r.collurls)

    def test_polite_rate_estimates_identical(self):
        _, crawler_b = _run_incremental_polite("batched", "optimal", "ep", "both")
        _, crawler_r = _run_incremental_polite("reference", "optimal", "ep", "both")
        assert (
            crawler_b.update_module.estimated_rates()
            == crawler_r.update_module.estimated_rates()
        )

    def test_polite_crawl_uses_batched_path(self, monkeypatch):
        """Politeness stays on the batched engine: no per-URL fetch or
        queue step, and the replay hands every batch its start instants."""
        from repro.core.update_module import UpdateModule
        from repro.fetch.fetcher import SimulatedFetcher

        def scalar(*args, **kwargs):
            raise AssertionError("per-URL path on the batched engine")

        batches = []
        process_batch = UpdateModule.process_batch

        def spy(self, urls, times, **kwargs):
            assert len(kwargs["resolved_at"]) == len(urls)
            batches.append(len(urls))
            return process_batch(self, urls, times, **kwargs)

        monkeypatch.setattr(SimulatedFetcher, "fetch", scalar)
        # The per-URL step (reference.crawl.process_next) pops one entry.
        monkeypatch.setattr(CollUrls, "pop", scalar)
        monkeypatch.setattr(UpdateModule, "process_batch", spy)
        result, _ = _run_incremental_polite("batched", "optimal", "ep", "both")
        assert result.pages_crawled > 0
        assert sum(batches) == result.pages_crawled + result.pages_failed


class TestPeriodicEngineParity:
    def _run(self, engine: str):
        web = generate_web(WEB_SPEC)
        crawler_class = PeriodicCrawler if engine == "batched" else ReferencePeriodicCrawler
        crawler = crawler_class(
            web,
            CrawlerSpec(
                kind="periodic",
                collection_capacity=100,
                crawl_budget_per_day=1500.0,
                duration_days=30.0,
                cycle_days=8.0,
                measurement_interval_days=0.5,
                track_quality=True,
            ),
        )
        return crawler.run(), crawler

    def test_cycles_and_series_identical(self):
        batched, crawler_b = self._run("batched")
        reference, crawler_r = self._run("reference")
        assert batched.pages_crawled == reference.pages_crawled
        assert batched.cycles_completed == reference.cycles_completed
        assert batched.freshness.times == reference.freshness.times
        assert batched.freshness.freshness == reference.freshness.freshness
        assert batched.quality == reference.quality
        urls_b = sorted(crawler_b.collection.current_urls())
        urls_r = sorted(crawler_r.collection.current_urls())
        assert urls_b == urls_r


class TestCollisionSafeScheduling:
    """Satellite: bulk scheduling must never rely on epsilon nudges."""

    def test_equal_times_pop_in_schedule_order(self):
        queue = CollUrls()
        urls = [f"http://seed{i}/" for i in range(50)]
        queue.schedule_many(urls, [3.0] * len(urls))
        popped = [pop(queue)[0] for _ in range(len(urls))]
        assert popped == urls

    def test_schedule_front_is_lifo_without_time_nudges(self):
        queue = CollUrls()
        schedule(queue, "http://a/", 2.0)
        queue.schedule_front("http://x/", now=5.0)
        queue.schedule_front("http://y/", now=5.0)
        # Later admissions pop first; the scheduled time is the head's
        # time itself, not an epsilon below it.
        assert queue.scheduled_time("http://y/") == 2.0
        assert [pop(queue)[0] for _ in range(3)] == [
            "http://y/",
            "http://x/",
            "http://a/",
        ]

    def test_front_entries_survive_dense_bulk_schedules(self):
        queue = CollUrls()
        # A thousand entries at exactly the same time plus front entries:
        # with epsilon-based front placement these collide; with sequence
        # tie-breaks the order stays exact.
        urls = [f"http://u{i}/" for i in range(1000)]
        queue.schedule_many(urls, [7.0] * 1000)
        queue.schedule_front("http://vip/", now=9.0)
        assert pop(queue)[0] == "http://vip/"
        assert pop(queue)[0] == "http://u0/"

    def test_pop_due_and_restore_round_trip(self):
        queue = CollUrls()
        urls = [f"http://u{i}/" for i in range(10)]
        queue.schedule_many(urls, [float(i) for i in range(10)])
        entries = queue.pop_due(max_n=6)
        assert [entry[2] for entry in entries] == urls[:6]
        queue.restore(entries[3:])
        # Restored entries resume their exact positions.
        assert pop(queue)[0] == urls[3]
        assert pop(queue)[0] == urls[4]

    def test_pop_due_until_bound(self):
        queue = CollUrls()
        queue.schedule_many(["http://a/", "http://b/", "http://c/"], [1.0, 2.0, 3.0])
        entries = queue.pop_due(until=2.0)
        assert [entry[2] for entry in entries] == ["http://a/", "http://b/"]
        assert len(queue) == 1

    def test_restore_rejects_rescheduled_url(self):
        queue = CollUrls()
        schedule(queue, "http://a/", 1.0)
        entries = queue.pop_due(max_n=1)
        schedule(queue, "http://a/", 9.0)
        with pytest.raises(ValueError, match="rescheduled"):
            queue.restore(entries)

    def test_bootstrap_seeds_share_start_time(self):
        """Seeds are scheduled at exactly the start time, in seed order."""
        web = generate_web(WEB_SPEC)
        crawler = IncrementalCrawler(
            web,
            CrawlerSpec(
                collection_capacity=50,
                crawl_budget_per_day=2000.0,
                measurement_interval_days=0.5,
                track_quality=False,
            ),
            PolicySpec(),
        )
        crawler._bootstrap(2.5)
        seeds = web.seed_urls()
        times = [crawler.collurls.scheduled_time(url) for url in seeds]
        assert times == [2.5] * len(seeds)
        popped = [pop(crawler.collurls)[0] for _ in range(len(seeds))]
        assert popped == seeds
