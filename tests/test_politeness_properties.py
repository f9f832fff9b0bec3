"""Property-based politeness invariants (tentpole satellite).

Whatever the site layout, delay, window shape or request pattern, the
politeness engine must never let two same-site fetches go out closer than
the minimum delay, never start a fetch outside the night window, and the
batch resolution must equal the scalar recurrence bit-for-bit. The
hypothesis strategies sweep random configurations; a seeded crawler-level
fuzz then checks the same invariants on fetch instants committed by the
full batched crawl engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fetch.politeness import NightWindow, PolitenessPolicy

# Window shapes: include the paper's window, awkward non-binary fractions
# and tiny windows. Floats are rounded so shrinking stays readable.
window_shapes = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.0, max_value=0.99, allow_nan=False).map(
            lambda x: round(x, 3)
        ),
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False).map(
            lambda x: round(x, 3)
        ),
    ),
)

request_patterns = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # site index
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def _build(delay_seconds, shape):
    window = None
    if shape is not None:
        start, duration = shape
        window = NightWindow(start_fraction=start, duration_fraction=duration)
    return PolitenessPolicy(min_delay_seconds=delay_seconds, night_window=window)


def _scalar_fold(policy, sites, times):
    starts = []
    for site, t in zip(sites, times):
        start = policy.earliest_allowed(site, t)
        policy.record_request(site, start)
        starts.append(start)
    return starts


class TestPolicyProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        delay=st.floats(min_value=0.0, max_value=7200.0, allow_nan=False),
        shape=window_shapes,
        pattern=request_patterns,
    )
    def test_batch_equals_scalar_fold_exactly(self, delay, shape, pattern):
        sites = [f"site{s}" for s, _ in pattern]
        times = sorted(t for _, t in pattern)
        batch_policy = _build(delay, shape)
        scalar_policy = _build(delay, shape)
        batch = batch_policy.earliest_allowed_many(sites, times)
        batch_policy.record_requests(sites, batch)
        scalar = _scalar_fold(scalar_policy, sites, times)
        assert batch.tolist() == scalar
        assert batch_policy._last_request == scalar_policy._last_request

    @settings(max_examples=200, deadline=None)
    @given(
        delay=st.floats(min_value=0.0, max_value=7200.0, allow_nan=False),
        shape=window_shapes,
        pattern=request_patterns,
    )
    def test_min_delay_and_window_always_respected(self, delay, shape, pattern):
        sites = [f"site{s}" for s, _ in pattern]
        times = sorted(t for _, t in pattern)
        policy = _build(delay, shape)
        starts = policy.earliest_allowed_many(sites, times)
        policy.record_requests(sites, starts)
        window = policy.night_window
        by_site = {}
        for site, t, start in zip(sites, times, starts.tolist()):
            assert start >= t  # never scheduled into the past
            if window is not None:
                assert window.is_open(start)
            previous = by_site.get(site)
            if previous is not None:
                # Exact float comparison: start is produced by the same
                # `previous + delay` arithmetic, so no tolerance needed.
                assert start >= previous + policy.min_delay_days
            by_site[site] = start

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
        duration=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        t=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    )
    def test_next_open_lands_open(self, start, duration, t):
        window = NightWindow(start_fraction=start, duration_fraction=duration)
        snapped = window.next_open(t)
        assert snapped >= t
        assert window.is_open(snapped)

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
        duration=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
    )
    def test_array_window_ops_match_scalar(self, start, duration, times):
        window = NightWindow(start_fraction=start, duration_fraction=duration)
        arr = np.asarray(times, dtype=float)
        open_batch = window.is_open_array(arr)
        next_batch = window.next_open_array(arr)
        for t, open_b, next_b in zip(times, open_batch.tolist(), next_batch.tolist()):
            assert open_b == window.is_open(t)
            assert next_b == window.next_open(t)


class RecordingPolicy(PolitenessPolicy):
    """Politeness policy that logs every committed (site, start) pair."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.committed = []

    def record_request(self, site_id, t):
        self.committed.append((site_id, float(t)))
        super().record_request(site_id, t)

    def record_requests(self, site_ids, starts):
        for site_id, start in zip(site_ids, starts):
            if site_id is not None:
                self.committed.append((site_id, float(start)))
        super().record_requests(site_ids, starts)

    def record_requests_indexed(self, site_indices, starts):
        names = self._dense_names
        for site_pos, start in zip(site_indices.tolist(), starts.tolist()):
            if site_pos >= 0:
                self.committed.append((names[site_pos], float(start)))
        super().record_requests_indexed(site_indices, starts)


@pytest.mark.parametrize("seed", [3, 23])
@pytest.mark.parametrize(
    "delay_seconds,night",
    [(1800.0, False), (0.0, True), (1800.0, True)],
)
def test_batched_crawl_respects_politeness(seed, delay_seconds, night, monkeypatch):
    """Crawler-level fuzz: every fetch instant the batched engine commits
    honours the per-site delay and the night window."""
    from repro.api.specs import CrawlerSpec, PolicySpec, WebSpec
    from repro.core.incremental_crawler import IncrementalCrawler
    from repro.simweb.generator import generate_web

    spec = CrawlerSpec(
        collection_capacity=60,
        crawl_budget_per_day=250.0,
        duration_days=8.0,
        measurement_interval_days=0.5,
        track_quality=False,
        use_politeness=True,
        politeness_min_delay_seconds=delay_seconds,
        politeness_night_window=night,
    )
    recorder = RecordingPolicy(
        min_delay_seconds=delay_seconds,
        night_window=NightWindow() if night else None,
    )
    monkeypatch.setattr(CrawlerSpec, "build_politeness", lambda self: recorder)
    web = generate_web(
        WebSpec(
            site_scale=0.04,
            pages_per_site=10,
            horizon_days=40.0,
            new_page_fraction=0.25,
            seed=seed,
        )
    )
    crawler = IncrementalCrawler(web, spec, PolicySpec())
    result = crawler.run()
    assert result.pages_crawled > 0
    assert recorder.committed

    window = recorder.night_window
    last_by_site = {}
    for site, start in recorder.committed:
        if window is not None:
            assert window.is_open(start)
        previous = last_by_site.get(site)
        if previous is not None and recorder.min_delay_days > 0:
            # Commits arrive in fetch order, so this also pins that the
            # engine never commits a same-site fetch out of order.
            assert start >= previous + recorder.min_delay_days
        last_by_site[site] = start
