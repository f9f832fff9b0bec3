"""Property-based politeness invariants (tentpole satellite).

Whatever the site layout, delay, window shape or request pattern, the
politeness engine must never let two same-site fetches go out closer than
the minimum delay, never start a fetch outside the night window, and a
``fetch_many`` that resolves its own delays must start every fetch exactly
where the crawl loop's scalar fold would. The hypothesis strategies sweep
random configurations; a seeded crawler-level fuzz then checks the same
invariants on fetch instants committed by the full batched crawl engine.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fetch.fetcher import SimulatedFetcher
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
    """The crawl loop's politeness step: per request, in order, the
    earliest allowed start is taken and recorded; a request no site owns
    (``None``) starts when it is issued."""
    starts = []
    for site, t in zip(sites, times):
        start = t
        if site is not None:
            start = policy.earliest_allowed(site, t)
            policy.record_request(site, start)
        starts.append(start)
    return starts


def _request_urls(web):
    """Seven request targets, one per pattern index: six pages over four
    sites (two sites get two pages each) and a URL the web does not know."""
    urls = []
    for site in web.sites[:4]:
        pages = sorted(page.url for page in site.all_pages)
        urls.extend(pages[:2] if len(urls) < 4 else pages[:1])
    return urls + ["http://unknown.example/"]


class TestPolicyProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        delay=st.floats(min_value=0.0, max_value=7200.0, allow_nan=False),
        shape=window_shapes,
        pattern=request_patterns,
    )
    def test_fetch_many_starts_where_the_scalar_fold_does(
        self, small_web, delay, shape, pattern
    ):
        targets = _request_urls(small_web)
        urls = [targets[s] for s, _ in pattern]
        times = sorted(t for _, t in pattern)
        polite = _build(delay, shape)
        batch = SimulatedFetcher(small_web, politeness=polite, latency_days=0.0).fetch_many(
            urls, times
        )
        folded = _build(delay, shape)
        sites = [small_web.page(url).site_id if url in small_web else None for url in urls]
        assert batch.completed_at.tolist() == _scalar_fold(folded, sites, times)
        assert polite.snapshot() == folded.snapshot()

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
        starts = _scalar_fold(policy, sites, times)
        window = policy.night_window
        by_site = {}
        for site, t, start in zip(sites, times, starts):
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


class RecordingPolicy(PolitenessPolicy):
    """Politeness policy that logs every committed (site, start) pair
    (every fetch commits its start through ``record_request``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.committed = []

    def record_request(self, site_id, t):
        self.committed.append((site_id, float(t)))
        super().record_request(site_id, t)


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
