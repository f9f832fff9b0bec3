"""Tests for the fetch substrate: politeness, fetcher."""

import pytest

from repro.fetch.fetcher import FetchStatus, SimulatedFetcher
from repro.fetch.politeness import NightWindow, PolitenessPolicy, seconds_to_days


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

    def test_reset(self):
        policy = PolitenessPolicy(min_delay_seconds=10.0)
        policy.record_request("a", 0.0)
        policy.reset()
        assert policy.earliest_allowed("a", 0.0) == 0.0

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

    def test_is_open_array_matches_scalar(self):
        import numpy as np

        for start, duration in [(0.875, 0.375), (0.3, 0.2), (0.1, 0.1)]:
            window = NightWindow(start_fraction=start, duration_fraction=duration)
            rng = np.random.default_rng(5)
            times = np.concatenate(
                [
                    rng.uniform(0.0, 30.0, size=500),
                    # Exact boundary instants and their ulp neighbours.
                    np.array(
                        [
                            d + start
                            for d in range(10)
                        ]
                    ),
                    np.array(
                        [
                            np.nextafter(d + start, -np.inf)
                            for d in range(10)
                        ]
                    ),
                ]
            )
            batch = window.is_open_array(times)
            for t, open_batch in zip(times.tolist(), batch.tolist()):
                assert open_batch == window.is_open(t)

    def test_next_open_array_matches_scalar(self):
        import numpy as np

        for start, duration in [(0.875, 0.375), (0.3, 0.2), (0.7, 0.05)]:
            window = NightWindow(start_fraction=start, duration_fraction=duration)
            rng = np.random.default_rng(7)
            times = rng.uniform(0.0, 30.0, size=1000)
            batch = window.next_open_array(times)
            for t, snapped in zip(times.tolist(), batch.tolist()):
                assert snapped == window.next_open(t)
                assert window.is_open(snapped)


class TestPolitenessBatchResolution:
    """The batch politeness API must replay the scalar recurrence exactly."""

    @staticmethod
    def _scalar_fold(policy, sites, times):
        starts = []
        for site, t in zip(sites, times):
            if site is None:
                starts.append(t)
                continue
            start = policy.earliest_allowed(site, t)
            policy.record_request(site, start)
            starts.append(start)
        return starts

    def _assert_batch_matches_scalar(self, make_policy, sites, times):
        batch_policy = make_policy()
        scalar_policy = make_policy()
        batch = batch_policy.earliest_allowed_many(sites, times)
        batch_policy.record_requests(sites, batch)
        scalar = self._scalar_fold(scalar_policy, sites, times)
        assert batch.tolist() == scalar
        assert batch_policy._last_request == scalar_policy._last_request

    def test_exact_min_delay_gap_is_allowed(self):
        policy = PolitenessPolicy(min_delay_seconds=10.0)
        delay = policy.min_delay_days
        policy.record_request("a", 1.0)
        # A request at exactly last + delay goes out untouched, both
        # scalar and batched.
        assert policy.earliest_allowed("a", 1.0 + delay) == 1.0 + delay
        batch = policy.earliest_allowed_many(["a"], [1.0 + delay])
        assert batch.tolist() == [1.0 + delay]

    def test_batch_matches_scalar_with_delay(self):
        import numpy as np

        rng = np.random.default_rng(11)
        sites = [f"s{int(i)}" for i in rng.integers(0, 5, size=200)]
        times = np.sort(rng.uniform(0.0, 0.05, size=200)).tolist()
        self._assert_batch_matches_scalar(
            lambda: PolitenessPolicy(min_delay_seconds=30.0), sites, times
        )

    def test_batch_matches_scalar_with_night_window(self):
        import numpy as np

        rng = np.random.default_rng(13)
        sites = [f"s{int(i)}" for i in rng.integers(0, 4, size=150)]
        times = np.sort(rng.uniform(0.0, 3.0, size=150)).tolist()
        self._assert_batch_matches_scalar(
            lambda: PolitenessPolicy(
                min_delay_seconds=0.0, night_window=NightWindow()
            ),
            sites,
            times,
        )

    def test_batch_matches_scalar_with_both_and_awkward_window(self):
        import numpy as np

        rng = np.random.default_rng(17)
        sites = [f"s{int(i)}" for i in rng.integers(0, 3, size=150)]
        sites = [None if i % 29 == 0 else s for i, s in enumerate(sites)]
        times = np.sort(rng.uniform(0.0, 2.0, size=150)).tolist()
        self._assert_batch_matches_scalar(
            lambda: PolitenessPolicy(
                min_delay_seconds=1800.0,
                night_window=NightWindow(start_fraction=0.3, duration_fraction=0.2),
            ),
            sites,
            times,
        )

    def test_batch_at_exact_boundary_instants(self):
        """Request times sitting exactly on last + delay and exactly on the
        window start resolve identically through both paths."""
        window = NightWindow(start_fraction=0.875, duration_fraction=0.375)
        policy = PolitenessPolicy(min_delay_seconds=10.0, night_window=window)
        delay = policy.min_delay_days
        policy.record_request("a", 0.875)
        times = [0.875 + delay, 0.875 + 2 * delay, 1.875]
        sites = ["a", "a", "a"]
        scalar_policy = PolitenessPolicy(min_delay_seconds=10.0, night_window=window)
        scalar_policy.record_request("a", 0.875)
        batch = policy.earliest_allowed_many(sites, times)
        scalar = self._scalar_fold(scalar_policy, sites, times)
        assert batch.tolist() == scalar

    def test_peek_does_not_mutate_state(self):
        policy = PolitenessPolicy(min_delay_seconds=10.0, night_window=NightWindow())
        policy.record_request("a", 0.9)
        before = dict(policy._last_request)
        policy.earliest_allowed_many(["a", "b", "a"], [0.9, 0.9, 0.9])
        assert policy._last_request == before

    def test_indexed_api_matches_string_api(self):
        """The integer-site batch API (the crawl engine's hot path) must
        resolve and commit exactly like the string API, across chunks and
        interleaved scalar records, including pre-existing state."""
        import numpy as np

        site_names = [f"s{i}" for i in range(6)]
        rng = np.random.default_rng(23)

        def make_policy():
            policy = PolitenessPolicy(
                min_delay_seconds=1800.0,
                night_window=NightWindow(start_fraction=0.3, duration_fraction=0.2),
            )
            policy.record_request("s1", 0.05)  # state predating the mirror
            return policy

        indexed = make_policy()
        stringed = make_policy()
        t = 0.1
        for chunk_size in (1, 7, 40, 3, 25):
            idx = rng.integers(-1, 6, size=chunk_size)
            times = np.sort(rng.uniform(t, t + 0.4, size=chunk_size))
            t = float(times[-1])
            sites = [site_names[i] if i >= 0 else None for i in idx.tolist()]
            got = indexed.earliest_allowed_many_indexed(
                idx.astype(np.int64), site_names, times
            )
            want = stringed.earliest_allowed_many(sites, times)
            assert got.tolist() == want.tolist()
            cut = chunk_size // 2 + 1  # commit a prefix, drop the tail
            indexed.record_requests_indexed(idx[:cut].astype(np.int64), got[:cut])
            stringed.record_requests(sites[:cut], want[:cut])
            assert indexed._last_request == stringed._last_request
            # Scalar records (the m==1 fast path) must keep the dense
            # mirror in sync with the dict.
            indexed.record_request("s2", t)
            stringed.record_request("s2", t)
        assert indexed._last_request == stringed._last_request


class TestSimulatedFetcher:
    def test_fetch_live_page(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        url = small_web.seed_urls()[0]
        result = fetcher.fetch(url, at=1.0)
        assert result.ok
        assert result.status is FetchStatus.OK
        assert result.version == small_web.page(url).version_at(1.0)
        assert result.outlinks == tuple(small_web.page(url).outlinks)

    def test_fetch_unknown_url(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        result = fetcher.fetch("http://nonexistent/", at=1.0)
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
        result = fetcher.fetch(dead.url, at=dead.deleted_at + 0.5)
        assert result.status is FetchStatus.NOT_FOUND

    def test_version_stable_without_change(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        static = next(
            p for p in small_web.pages()
            if p.change_process.mean_rate == 0.0 and p.created_at == 0.0
            and p.lifespan is None
        )
        first = fetcher.fetch(static.url, at=1.0)
        second = fetcher.fetch(static.url, at=50.0)
        assert first.version == second.version

    def test_version_changes_when_page_changes(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        changing = next(
            p for p in small_web.pages()
            if p.created_at == 0.0 and p.lifespan is None
            and len(p.change_process.change_times()) > 0
        )
        change_time = changing.change_process.change_times()[0]
        before = fetcher.fetch(changing.url, at=max(0.0, change_time - 1e-3))
        after = fetcher.fetch(changing.url, at=change_time + 1e-3)
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
            assert fetcher.fetch(page.url, at=change_time + 1e-6).version == k

    def test_equal_versions_mean_no_change_between_fetches(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        pages = [p for p in small_web.pages() if p.lifespan is None][:40]
        for page in pages:
            t0 = page.created_at + 1.0
            t1 = t0 + 7.0
            first = fetcher.fetch(page.url, at=t0)
            second = fetcher.fetch(page.url, at=t1)
            assert first.ok and second.ok
            assert (first.version == second.version) == (
                not page.changed_between(first.completed_at, second.completed_at)
            )

    def test_batch_versions_match_scalar_fetches(self, small_web):
        urls = [p.url for p in small_web.pages()][:60] + ["http://nonexistent/"]
        times = [5.0 + 0.5 * i for i in range(len(urls))]
        batch = SimulatedFetcher(small_web).fetch_many(urls, times)
        scalar = SimulatedFetcher(small_web)
        for url, t, ok, version in zip(
            urls, times, batch.ok.tolist(), batch.versions.tolist()
        ):
            result = scalar.fetch(url, at=t)
            assert ok == result.ok
            if ok:
                assert version == result.version
            else:
                assert version == 0

    def test_latency_charged(self, small_web):
        fetcher = SimulatedFetcher(small_web, latency_days=0.01)
        result = fetcher.fetch(small_web.seed_urls()[0], at=1.0)
        assert result.completed_at == pytest.approx(1.01)

    def test_politeness_applied(self, small_web):
        from repro.fetch.politeness import PolitenessPolicy

        policy = PolitenessPolicy(min_delay_seconds=3600.0)
        fetcher = SimulatedFetcher(small_web, politeness=policy, latency_days=0.0)
        url = small_web.seed_urls()[0]
        fetcher.fetch(url, at=1.0)
        second = fetcher.fetch(url, at=1.0)
        assert second.completed_at >= 1.0 + 3600.0 / 86400.0 - 1e-9

    def test_fetch_count_increments(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        fetcher.fetch(small_web.seed_urls()[0], at=1.0)
        fetcher.fetch(small_web.seed_urls()[1], at=1.0)
        assert fetcher.fetch_count == 2

    def test_outlinks_forwarded(self, small_web):
        fetcher = SimulatedFetcher(small_web)
        url = small_web.seed_urls()[0]
        result = fetcher.fetch(url, at=1.0)
        assert tuple(result.outlinks) == tuple(small_web.page(url).outlinks)

    def test_invalid_latency(self, small_web):
        with pytest.raises(ValueError):
            SimulatedFetcher(small_web, latency_days=-1.0)
