"""Sharding primitives: partitioner properties, shard views, state keys.

The crawler-level guarantees (``shards=1`` bit-identity, N-shard
determinism) live in ``test_sharded_crawler.py``; this module pins the
building blocks they rest on — the deterministic site partitioner, the
shard-view split arithmetic, seed routing and state key namespacing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharding import ShardView, SitePartitioner, _largest_remainder_split
from repro.api.specs import WebSpec
from repro.simweb.generator import generate_web
from repro.storage.checkpoint import (
    CHECKPOINT_STATE_KEY,
    RESULT_STATE_KEY,
    namespaced_state_key,
)

site_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=30
)
shard_counts = st.integers(min_value=1, max_value=16)


@pytest.fixture(scope="module")
def tiny_web():
    return generate_web(
        WebSpec(
            site_counts={"com": 6, "edu": 3, "gov": 2},
            pages_per_site=10,
            horizon_days=30.0,
            seed=23,
        )
    )


class TestSitePartitioner:
    @given(site_id=site_ids, n=shard_counts)
    def test_total(self, site_id, n):
        assert 0 <= SitePartitioner(n).shard_of(site_id) < n

    @given(site_id=site_ids, n=shard_counts)
    def test_deterministic(self, site_id, n):
        partitioner = SitePartitioner(n)
        first = partitioner.shard_of(site_id)
        assert all(partitioner.shard_of(site_id) == first for _ in range(3))
        # A fresh partitioner instance agrees too — the mapping is a pure
        # function of the site id, never of interpreter or instance state.
        assert SitePartitioner(n).shard_of(site_id) == first

    @given(ids=st.lists(site_ids, min_size=1, max_size=20), n=shard_counts)
    def test_insertion_order_independent(self, ids, n):
        partitioner = SitePartitioner(n)
        forward = partitioner.assign(ids)
        backward = partitioner.assign(list(reversed(ids)))
        assert forward == backward

    @given(site_id=site_ids)
    def test_single_shard_owns_everything(self, site_id):
        assert SitePartitioner(1).shard_of(site_id) == 0

    def test_site_affinity_through_views(self, tiny_web):
        # URLs are never partitioned directly — ownership flows through the
        # owning site, so every page of a site lands on one shard.
        views = ShardView.split(tiny_web, 3, capacity=60, budget_per_day=90.0)
        owner = {}
        for view in views:
            for site_id in view.site_ids:
                assert site_id not in owner
                owner[site_id] = view.index
        for page in tiny_web.pages():
            assert owner[page.site_id] == owner[page.site_id]  # total
        for view in views:
            for url in view.seed_urls:
                assert view.owns_site(tiny_web.page(url).site_id)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            SitePartitioner(0)


class TestLargestRemainderSplit:
    @given(
        total=st.integers(min_value=1, max_value=10_000),
        weights=st.lists(
            st.integers(min_value=1, max_value=500), min_size=1, max_size=8
        ),
    )
    def test_sums_and_minimum(self, total, weights):
        if total < len(weights):
            total = len(weights)
        shares = _largest_remainder_split(total, weights, minimum=1)
        assert sum(shares) == total
        assert all(share >= 1 for share in shares)

    def test_proportionality(self):
        assert _largest_remainder_split(100, [3, 1]) == [75, 25]


class TestShardViewSplit:
    def test_partition_covers_web_disjointly(self, tiny_web):
        all_sites = [site.site_id for site in tiny_web.sites]
        for n in (1, 2, 4):
            views = ShardView.split(
                tiny_web, n, capacity=40, budget_per_day=120.0
            )
            seen = [s for view in views for s in view.site_ids]
            assert sorted(seen) == sorted(all_sites)
            assert len(set(seen)) == len(seen)
            assert sum(view.capacity for view in views) == 40
            assert sum(view.budget_per_day for view in views) == pytest.approx(120.0)

    def test_single_shard_is_total(self, tiny_web):
        (view,) = ShardView.split(tiny_web, 1, capacity=40, budget_per_day=50.0)
        assert view.is_total
        assert view.capacity == 40 and view.budget_per_day == 50.0
        assert list(view.seed_urls) == tiny_web.seed_urls()

    def test_seed_routing(self, tiny_web):
        views = ShardView.split(tiny_web, 4, capacity=40, budget_per_day=120.0)
        routed = [url for view in views for url in view.seed_urls]
        assert sorted(routed) == sorted(tiny_web.seed_urls())


class TestNamespacedStateKeys:
    def test_passthrough_without_namespace(self):
        assert namespaced_state_key(None, CHECKPOINT_STATE_KEY) == "checkpoint"
        assert namespaced_state_key(None, RESULT_STATE_KEY) == "result"

    def test_qualified(self):
        assert namespaced_state_key("shard03", "checkpoint") == "shard03/checkpoint"

    def test_rejects_separator_in_namespace(self):
        with pytest.raises(ValueError):
            namespaced_state_key("a/b", "checkpoint")
