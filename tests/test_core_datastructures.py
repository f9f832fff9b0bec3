"""Tests for AllUrls, CollUrls and the quality metric."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.quality import CollectionQualityCache


class TestAllUrls:
    def test_add_and_membership(self):
        registry = AllUrls()
        assert registry.add("http://a/", discovered_at=1.0)
        assert "http://a/" in registry
        assert len(registry) == 1

    def test_add_duplicate_returns_false(self):
        registry = AllUrls()
        registry.add("http://a/", 1.0)
        assert not registry.add("http://a/", 2.0)
        assert registry.info("http://a/").discovered_at == 1.0

    def test_add_many(self):
        registry = AllUrls()
        assert registry.add_many(["http://a/", "http://b/", "http://a/"], 0.0) == 2

    def test_record_links_registers_targets(self):
        registry = AllUrls()
        registry.record_links("http://src/", ["http://a/", "http://b/"], 1.0)
        assert "http://a/" in registry
        assert "http://b/" in registry

    def test_candidates_excludes_given_urls(self):
        registry = AllUrls()
        registry.add_many(["http://a/", "http://b/", "http://c/"], 0.0)
        assert registry.candidates(exclude={"http://a/"}) == ["http://b/", "http://c/"]

    def test_candidates_skip_failed_urls(self):
        registry = AllUrls()
        registry.add_many(["http://a/", "http://dead/"], 0.0)
        registry.record_failure("http://dead/", 5.0)
        assert registry.candidates(exclude=set()) == ["http://a/"]

    def test_record_failure_on_unknown_url_is_noop(self):
        registry = AllUrls()
        registry.record_failure("http://ghost/", 1.0)
        assert "http://ghost/" not in registry

    def test_get_and_info(self):
        registry = AllUrls()
        registry.add("http://a/", 0.0)
        assert registry.get("http://a/") is registry.info("http://a/")
        assert registry.get("http://missing/") is None
        with pytest.raises(KeyError):
            registry.info("http://missing/")

    def test_iteration(self):
        registry = AllUrls()
        registry.add_many(["http://a/", "http://b/"], 0.0)
        assert set(registry) == {"http://a/", "http://b/"}
        assert set(registry.urls()) == {"http://a/", "http://b/"}


class TestCollUrls:
    def test_pop_in_time_order(self):
        queue = CollUrls()
        queue.schedule("http://late/", 5.0)
        queue.schedule("http://early/", 1.0)
        queue.schedule("http://middle/", 3.0)
        assert queue.pop()[0] == "http://early/"
        assert queue.pop()[0] == "http://middle/"
        assert queue.pop()[0] == "http://late/"
        assert queue.pop() is None

    def test_reschedule_replaces_entry(self):
        queue = CollUrls()
        queue.schedule("http://a/", 10.0)
        queue.schedule("http://a/", 1.0)
        assert len(queue) == 1
        url, time = queue.pop()
        assert url == "http://a/"
        assert time == 1.0
        assert queue.pop() is None

    def test_schedule_front_jumps_the_queue(self):
        queue = CollUrls()
        queue.schedule("http://a/", 1.0)
        queue.schedule("http://b/", 2.0)
        queue.schedule_front("http://new/", now=5.0)
        assert queue.pop()[0] == "http://new/"

    def test_schedule_front_on_empty_queue(self):
        queue = CollUrls()
        queue.schedule_front("http://only/", now=3.0)
        assert queue.pop()[0] == "http://only/"

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.sampled_from("abcdef"), st.sampled_from([1.0, 2.0, 3.0])),
            max_size=6,
        ),
        stale=st.sampled_from(["none", "rescheduled", "removed"]),
        now=st.sampled_from([0.5, 2.0, 4.0]),
        urls=st.lists(st.sampled_from("abcxyz"), max_size=5),
    )
    @example(entries=[], stale="none", now=2.0, urls=["x", "y"])
    @example(entries=[("a", 1.0), ("b", 3.0)], stale="none", now=2.0, urls=["x", "y"])
    @example(entries=[("a", 3.0), ("b", 3.0)], stale="none", now=2.0, urls=["x", "y"])
    @example(entries=[("a", 1.0), ("b", 3.0)], stale="rescheduled", now=4.0, urls=["x"])
    @example(entries=[("a", 1.0), ("b", 3.0)], stale="removed", now=4.0, urls=["x", "y"])
    def test_schedule_front_many_equals_schedule_front_in_sequence(
        self, entries, stale, now, urls
    ):
        """Empty queue, head before or after ``now``, a stale heap head."""
        queues = CollUrls(), CollUrls()
        for queue in queues:
            for url, time in entries:
                queue.schedule(url, time)
            head = queue.peek()
            if head is not None and stale == "rescheduled":
                queue.schedule(head[0], 5.0)
            elif head is not None and stale == "removed":
                queue.remove(head[0])
        bulk, sequential = queues
        bulk.schedule_front_many(urls, now)
        for url in urls:
            sequential.schedule_front(url, now)
        assert bulk.snapshot() == sequential.snapshot()
        assert bulk.urls() == sequential.urls()
        assert [bulk.pop() for _ in range(8)] == [sequential.pop() for _ in range(8)]

    def test_remove(self):
        queue = CollUrls()
        queue.schedule("http://a/", 1.0)
        queue.schedule("http://b/", 2.0)
        assert queue.remove("http://a/")
        assert not queue.remove("http://a/")
        assert queue.pop()[0] == "http://b/"

    def test_peek_does_not_remove(self):
        queue = CollUrls()
        queue.schedule("http://a/", 1.0)
        assert queue.peek()[0] == "http://a/"
        assert queue.peek_time() == 1.0
        assert len(queue) == 1

    def test_peek_empty(self):
        queue = CollUrls()
        assert queue.peek() is None
        assert queue.peek_time() is None

    def test_contains_and_scheduled_time(self):
        queue = CollUrls()
        queue.schedule("http://a/", 4.0)
        assert "http://a/" in queue
        assert queue.scheduled_time("http://a/") == 4.0
        assert queue.scheduled_time("http://b/") is None

    def test_urls_listing(self):
        queue = CollUrls()
        queue.schedule("http://a/", 1.0)
        queue.schedule("http://b/", 2.0)
        assert set(queue.urls()) == {"http://a/", "http://b/"}

    def test_ties_broken_by_insertion_order(self):
        queue = CollUrls()
        queue.schedule("http://first/", 1.0)
        queue.schedule("http://second/", 1.0)
        assert queue.pop()[0] == "http://first/"
        assert queue.pop()[0] == "http://second/"

    def test_stale_heap_entries_skipped_after_removal(self):
        queue = CollUrls()
        queue.schedule("http://a/", 1.0)
        queue.remove("http://a/")
        queue.schedule("http://b/", 5.0)
        assert queue.pop()[0] == "http://b/"


class TestQuality:
    def test_true_importance_sums_to_one(self, tiny_web):
        importance = tiny_web.true_importance()
        assert sum(importance.values()) == pytest.approx(1.0)
        assert set(importance) == set(tiny_web.urls())

    def test_roots_are_most_important(self, tiny_web):
        importance = tiny_web.true_importance()
        roots = set(tiny_web.seed_urls())
        top_urls = sorted(importance, key=importance.get, reverse=True)[: len(roots)]
        # Cross-site links point at root pages, so roots should dominate the top.
        assert len(roots & set(top_urls)) >= len(roots) // 2

    def test_perfect_collection_has_quality_one(self, tiny_web):
        importance = tiny_web.true_importance()
        best = sorted(importance, key=importance.get, reverse=True)[:10]
        cache = CollectionQualityCache(tiny_web, capacity=10)
        assert cache.quality(best) == pytest.approx(1.0)

    def test_worst_collection_has_low_quality(self, tiny_web):
        importance = tiny_web.true_importance()
        worst = sorted(importance, key=importance.get)[:10]
        assert CollectionQualityCache(tiny_web, capacity=10).quality(worst) < 0.5

    def test_empty_collection(self, tiny_web):
        assert CollectionQualityCache(tiny_web, capacity=10).quality([]) == 0.0

    def test_unknown_urls_contribute_nothing(self, tiny_web):
        cache = CollectionQualityCache(tiny_web, capacity=1)
        assert cache.quality(["http://ghost/"]) == 0.0

    def test_invalid_capacity(self, tiny_web):
        with pytest.raises(ValueError):
            CollectionQualityCache(tiny_web, capacity=0)

    def test_cache_reads_the_webs_ground_truth(self, tiny_web):
        cache = CollectionQualityCache(tiny_web, capacity=10)
        assert cache.importance is tiny_web.true_importance()

    def test_attainable_mass_is_the_best_capacity_scores(self, tiny_web):
        importance = tiny_web.true_importance()
        best = sorted(importance.values(), reverse=True)[:10]
        cache = CollectionQualityCache(tiny_web, capacity=10)
        assert cache.attainable_mass == sum(best)

    def test_subset_restricts_the_attainable_mass(self, tiny_web):
        importance = tiny_web.true_importance()
        ranked = sorted(importance, key=importance.get, reverse=True)
        subset = ranked[10:20]
        cache = CollectionQualityCache(tiny_web, capacity=5, subset=subset)
        assert cache.attainable_mass == sum(importance[url] for url in subset[:5])
        assert cache.quality(subset[:5]) == pytest.approx(1.0)
        assert cache.quality(subset[5:]) < 1.0

    def test_quality_is_capped_at_one(self, tiny_web):
        cache = CollectionQualityCache(tiny_web, capacity=3)
        assert cache.quality(list(tiny_web.urls())) == 1.0
