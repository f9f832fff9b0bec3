"""Tests for the fetch substrate: politeness, fetcher."""

import pytest

from repro.fetch.fetcher import SimulatedFetcher
from repro.fetch.politeness import NightWindow, PolitenessPolicy, seconds_to_days

from reference.crawl import FetchStatus, fetch
from reference.oracle import page_changed_between, page_version_at


class TestNightWindow:
    def test_default_is_9pm_to_6am(self):
        window = NightWindow()
        assert window.is_open(0.95)   # 10:48 PM
        assert window.is_open(0.1)    # 2:24 AM
        assert not window.is_open(0.5)  # noon

    def test_next_open_when_already_open(self):
        window = NightWindow()
        assert window.next_open(0.9) == 0.9

    def test_next_open_defers_to_window_start(self):
        window = NightWindow()
        assert window.next_open(0.5) == pytest.approx(0.875)

    def test_next_open_crosses_to_next_day(self):
        window = NightWindow(start_fraction=0.1, duration_fraction=0.1)
        assert window.next_open(0.5) == pytest.approx(1.1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NightWindow(start_fraction=1.5)
        with pytest.raises(ValueError):
            NightWindow(duration_fraction=0.0)


class TestPolitenessPolicy:
    def test_seconds_to_days(self):
        assert seconds_to_days(86400) == 1.0

    def test_min_delay_between_requests(self):
        policy = PolitenessPolicy(min_delay_seconds=10.0)
        first = policy.earliest_allowed("site", 0.0)
        policy.record_request("site", first)
        second = policy.earliest_allowed("site", first)
        assert second - first == pytest.approx(10.0 / 86400.0)

    def test_different_sites_independent(self):
        policy = PolitenessPolicy(min_delay_seconds=10.0)
        policy.record_request("a", 0.0)
        assert policy.earliest_allowed("b", 0.0) == 0.0

    def test_no_delay_needed_after_long_gap(self):
        policy = PolitenessPolicy(min_delay_seconds=10.0)
        policy.record_request("a", 0.0)
        assert policy.earliest_allowed("a", 1.0) == 1.0

    def test_night_window_defers_requests(self):
        policy = PolitenessPolicy(min_delay_seconds=0.0, night_window=NightWindow())
        assert policy.earliest_allowed("a", 0.5) == pytest.approx(0.875)

    def test_max_requests_per_day_matches_paper(self):
        """10 s delay, 9 h nightly window -> roughly 3,000 pages per day."""
        policy = PolitenessPolicy(min_delay_seconds=10.0, night_window=NightWindow())
        assert 3000 <= policy.max_requests_per_day() <= 3500

    def test_unbounded_without_delay(self):
        policy = PolitenessPolicy(min_delay_seconds=0.0)
        assert policy.max_requests_per_day() == float("inf")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            PolitenessPolicy(min_delay_seconds=-1.0)


class TestNightWindowBoundaries:
    """Float-edge behaviour at window boundaries (satellite regression)."""

    def test_next_open_result_is_always_open(self):
        # 0.3 is not binary-representable: floor(t) + 0.3 can round a few
        # ulps below the window start, where the naive snap would return a
        # closed instant. next_open must nudge up to the first open one.
        window = NightWindow(start_fraction=0.3, duration_fraction=0.2)
        for day in range(60):
            t = day + 0.25  # closed: before the window opens
            snapped = window.next_open(t)
            assert window.is_open(snapped)
            assert snapped >= t

    def test_next_open_at_exact_window_start(self):
        window = NightWindow(start_fraction=0.875, duration_fraction=0.375)
        assert window.next_open(3.875) == 3.875
        assert window.is_open(3.875)

    def test_window_end_is_exclusive(self):
        window = NightWindow(start_fraction=0.25, duration_fraction=0.25)
        assert window.is_open(0.25)
        assert not window.is_open(0.5)
        snapped = window.next_open(0.5)
        assert snapped == 1.25
        assert window.is_open(snapped)


class TestPoliteFetchMany:
    """``fetch_many`` handed no resolved start instants folds the scalar
    politeness recurrence request by request, as one fetch at a time does."""

    @staticmethod
    def _urls(web):
        """Three sites' roots, a second page of the first site and a URL
        the web does not know (politeness skips it)."""
        sites = web.sites[:3]
        roots = [site.root_url for site in sites]
        second = next(p.url for p in sites[0].all_pages if p.url != roots[0])
        return roots + [second, "http://unknown.example/"]

    def _assert_fetch_many_matches_per_url_fetches(self, web, make_policy, urls, times):
        batch_policy = make_policy()
        batch = SimulatedFetcher(web, politeness=batch_policy).fetch_many(urls, times)
        fetcher = SimulatedFetcher(web, politeness=make_policy())
        per_url = [fetch(fetcher, url, at=t) for url, t in zip(urls, times)]
        assert batch.completed_at.tolist() == [r.completed_at for r in per_url]
        assert batch.ok.tolist() == [r.ok for r in per_url]
        assert batch.versions.tolist() == [r.version for r in per_url]
        assert batch_policy.snapshot() == fetcher.politeness.snapshot()

    def _pattern(self, web, seed, size, span):
        import numpy as np

        rng = np.random.default_rng(seed)
        urls = self._urls(web)
        picked = [urls[int(i)] for i in rng.integers(0, len(urls), size=size)]
        return picked, np.sort(rng.uniform(0.0, span, size=size)).tolist()

    def test_exact_min_delay_gap_is_allowed(self, small_web):
        policy = PolitenessPolicy(min_delay_seconds=10.0)
        delay = policy.min_delay_days
        url = small_web.seed_urls()[0]
        site = small_web.page(url).site_id
        policy.record_request(site, 1.0)
        # A request at exactly last + delay goes out untouched.
        assert policy.earliest_allowed(site, 1.0 + delay) == 1.0 + delay
        fetcher = SimulatedFetcher(small_web, politeness=policy, latency_days=0.0)
        batch = fetcher.fetch_many([url], [1.0 + delay])
        assert batch.completed_at.tolist() == [1.0 + delay]

    def test_with_delay(self, small_web):
        urls, times = self._pattern(small_web, 11, 200, 0.05)
        self._assert_fetch_many_matches_per_url_fetches(
            small_web, lambda: PolitenessPolicy(min_delay_seconds=30.0), urls, times
        )

    def test_with_night_window(self, small_web):
        urls, times = self._pattern(small_web, 13, 150, 3.0)
        self._assert_fetch_many_matches_per_url_fetches(
            small_web,
            lambda: PolitenessPolicy(min_delay_seconds=0.0, night_window=NightWindow()),
            urls,
            times,
        )

    def test_with_both_and_awkward_window(self, small_web):
        urls, times = self._pattern(small_web, 17, 150, 2.0)
        self._assert_fetch_many_matches_per_url_fetches(
            small_web,
            lambda: PolitenessPolicy(
                min_delay_seconds=1800.0,
                night_window=NightWindow(start_fraction=0.3, duration_fraction=0.2),
            ),
            urls,
            times,
        )

    def test_at_exact_boundary_instants(self, small_web):
        """Request times sitting exactly on last + delay and exactly on the
        window start resolve identically through both paths."""
        window = NightWindow(start_fraction=0.875, duration_fraction=0.375)

        def make_policy():
            policy = PolitenessPolicy(min_delay_seconds=10.0, night_window=window)
            policy.record_request(small_web.sites[0].site_id, 0.875)
            return policy

        delay = make_policy().min_delay_days
        url = small_web.sites[0].root_url
        self._assert_fetch_many_matches_per_url_fetches(
            small_web, make_policy, [url] * 3, [0.875 + delay, 0.875 + 2 * delay, 1.875]
        )


class TestSimulatedFetcher:
    def test_fetch_live_page(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        url = small_web.seed_urls()[0]
        result = fetch(fetcher, url, at=1.0)
        assert result.ok
        assert result.status is FetchStatus.OK
        assert result.version == page_version_at(small_web.page(url), 1.0)
        assert result.outlinks == tuple(small_web.page(url).outlinks)

    def test_fetch_unknown_url(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        result = fetch(fetcher, "http://nonexistent/", at=1.0)
        assert not result.ok
        assert result.status is FetchStatus.NOT_FOUND

    def test_fetch_dead_page(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        dead = next(
            (p for p in small_web.pages() if p.deleted_at is not None
             and p.deleted_at < small_web.horizon_days - 1),
            None,
        )
        if dead is None:
            pytest.skip("no dead page in the small web")
        result = fetch(fetcher, dead.url, at=dead.deleted_at + 0.5)
        assert result.status is FetchStatus.NOT_FOUND

    def test_version_stable_without_change(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        static = next(
            p for p in small_web.pages()
            if p.change_process.mean_rate == 0.0 and p.created_at == 0.0
            and p.lifespan is None
        )
        first = fetch(fetcher, static.url, at=1.0)
        second = fetch(fetcher, static.url, at=50.0)
        assert first.version == second.version

    def test_version_changes_when_page_changes(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        changing = next(
            p for p in small_web.pages()
            if p.created_at == 0.0 and p.lifespan is None
            and len(p.change_process.change_times()) > 0
        )
        change_time = changing.change_process.change_times()[0]
        before = fetch(fetcher, changing.url, at=max(0.0, change_time - 1e-3))
        after = fetch(fetcher, changing.url, at=change_time + 1e-3)
        assert before.version != after.version

    def test_version_counts_changes_since_creation(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        page = next(
            p for p in small_web.pages()
            if p.created_at == 0.0 and p.lifespan is None
            and len(p.change_process.change_times()) >= 3
        )
        change_times = page.change_process.change_times()
        for k, change_time in enumerate(change_times[:3], start=1):
            assert fetch(fetcher, page.url, at=change_time + 1e-6).version == k

    def test_equal_versions_mean_no_change_between_fetches(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        pages = [p for p in small_web.pages() if p.lifespan is None][:40]
        for page in pages:
            t0 = page.created_at + 1.0
            t1 = t0 + 7.0
            first = fetch(fetcher, page.url, at=t0)
            second = fetch(fetcher, page.url, at=t1)
            assert first.ok and second.ok
            assert (first.version == second.version) == (
                not page_changed_between(page, first.completed_at, second.completed_at)
            )

    def test_batch_versions_match_scalar_fetches(self, small_web):
        urls = [p.url for p in small_web.pages()][:60] + ["http://nonexistent/"]
        times = [5.0 + 0.5 * i for i in range(len(urls))]
        batch = SimulatedFetcher(small_web).fetch_many(urls, times)
        scalar = SimulatedFetcher(small_web)
        for url, t, ok, version in zip(
            urls, times, batch.ok.tolist(), batch.versions.tolist()
        ):
            result = fetch(scalar, url, at=t)
            assert ok == result.ok
            if ok:
                assert version == result.version
            else:
                assert version == 0

    def test_latency_charged(self, small_web):
        fetcher = SimulatedFetcher(small_web, latency_days=0.01)
        result = fetch(fetcher, small_web.seed_urls()[0], at=1.0)
        assert result.completed_at == pytest.approx(1.01)

    def test_politeness_applied(self, small_web):
        from repro.fetch.politeness import PolitenessPolicy

        policy = PolitenessPolicy(min_delay_seconds=3600.0)
        fetcher = SimulatedFetcher(small_web, politeness=policy, latency_days=0.0)
        url = small_web.seed_urls()[0]
        fetch(fetcher, url, at=1.0)
        second = fetch(fetcher, url, at=1.0)
        assert second.completed_at >= 1.0 + 3600.0 / 86400.0 - 1e-9

    def test_fetch_count_increments(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        fetch(fetcher, small_web.seed_urls()[0], at=1.0)
        fetch(fetcher, small_web.seed_urls()[1], at=1.0)
        assert fetcher.fetch_count == 2

    def test_outlinks_forwarded(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        url = small_web.seed_urls()[0]
        result = fetch(fetcher, url, at=1.0)
        assert tuple(result.outlinks) == tuple(small_web.page(url).outlinks)

    def test_invalid_latency(self, small_web):
        with pytest.raises(ValueError):
            SimulatedFetcher(small_web, latency_days=-1.0)
