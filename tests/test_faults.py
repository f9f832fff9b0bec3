"""Fault injection and the failure-aware crawl engine.

Covers the whole robustness stack: the seeded fault models (determinism,
scalar/vector agreement, precedence), the retry policy and failure tracker
(backoff, budgets, circuit breaker, snapshot/merge), the spec-layer knobs
(round trips, hash stability of fault-free specs), cross-engine
bit-identity under faults, checkpoint integrity checksums with
previous-snapshot fallback, and the sharded coordinator's worker-failure
handling. Hypothesis properties pin the determinism and non-starvation
guarantees the engine relies on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import FAULT_MODELS as FAULT_MODEL_REGISTRY
from repro.api.specs import (
    CrawlerSpec,
    FaultModelSpec,
    FaultsSpec,
    PolicySpec,
    RetrySpec,
    WebSpec,
)
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.collurls import CollUrls
from repro.core.sharded_crawler import ShardedCrawler
from repro.core.update_module import UpdateModule
from repro.faults import (
    _RETRY_SALT,
    HARD_FAULT_CODES,
    STATUS_OK,
    STATUS_RATE_LIMITED,
    STATUS_SERVER_ERROR,
    STATUS_SOFT_404,
    STATUS_TIMEOUT,
    TRANSIENT_CODES,
    FailureTracker,
    FaultLayer,
    _hash64,
    _retry_jitter,
    _uniform01,
)
from repro.simweb.generator import generate_web
from repro.storage.backends import SqliteBackend
from repro.storage.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_PREV_STATE_KEY,
    CHECKPOINT_STATE_KEY,
    CrawlCheckpointer,
)

from reference.crawl import ReferenceIncrementalCrawler
from reference.kernels import _keyed, _mix, fault_resolve_reference
from test_checkpoint_resume import snapshot_with_table

WEB_SPEC = WebSpec(
    site_scale=0.03,
    pages_per_site=10,
    horizon_days=30.0,
    new_page_fraction=0.25,
    seed=19,
)

FAULT_MODELS = (
    FaultModelSpec("transient", {"rate": 0.08}),
    FaultModelSpec(
        "site_outage", {"rate": 0.3, "period_days": 5.0, "duration_days": 1.0}
    ),
    FaultModelSpec("rate_limit", {"rate": 0.05, "retry_after_days": 0.5}),
    FaultModelSpec("soft_404", {"rate": 0.05, "flap_period_days": 3.0}),
    FaultModelSpec("latency", {"factor": 3.0, "rate": 0.25}),
)


def _layer(models, seed=0):
    return FaultsSpec(models=tuple(models), seed=seed).build_fault_layer()


def _zero_rate(models):
    return tuple(model.replace(params={**model.params, "rate": 0.0}) for model in models)


def _batch(n=200, seed=0):
    rng = np.random.default_rng(seed)
    urls = [f"http://site{i % 17}.test/page{i}" for i in range(n)]
    sites = [f"site{i % 17}" for i in range(n)]
    times = np.sort(rng.uniform(0.0, 30.0, size=n)).tolist()
    return urls, sites, times


# --------------------------------------------------------------------------- #
# Fault models
# --------------------------------------------------------------------------- #


class TestFaultModels:
    def test_deterministic_for_fixed_seed(self):
        urls, sites, times = _batch()
        a = _layer(FAULT_MODELS, seed=7).resolve(urls, sites, times)
        b = _layer(FAULT_MODELS, seed=7).resolve(urls, sites, times)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_seed_changes_the_weather(self):
        urls, sites, times = _batch()
        a = _layer(FAULT_MODELS, seed=7).resolve(urls, sites, times)[0]
        b = _layer(FAULT_MODELS, seed=8).resolve(urls, sites, times)[0]
        assert not np.array_equal(a, b)

    def test_a_fetch_alone_sees_the_weather_it_sees_in_a_batch(self):
        urls, sites, times = _batch(n=64)
        layer = _layer(FAULT_MODELS, seed=3)
        codes, retry_after = layer.resolve(urls, sites, times)
        for i, (url, site, at) in enumerate(zip(urls, sites, times)):
            code, hint = layer.resolve([url], [site], [at])
            assert code.tolist() == [codes[i]]
            assert hint.tolist() == [retry_after[i]]

    def test_first_model_wins(self):
        urls, sites, times = _batch(n=50)
        outage_first = _layer(
            (
                FaultModelSpec(
                    "site_outage", {"rate": 1.0, "period_days": 1.0, "duration_days": 1.0}
                ),
                FaultModelSpec("transient", {"rate": 1.0, "timeout_fraction": 1.0}),
            ),
            seed=1,
        )
        codes, _ = outage_first.resolve(urls, sites, times)
        assert np.all(codes == STATUS_SERVER_ERROR)
        transient_first = _layer(
            (
                FaultModelSpec("transient", {"rate": 1.0, "timeout_fraction": 1.0}),
                FaultModelSpec(
                    "site_outage", {"rate": 1.0, "period_days": 1.0, "duration_days": 1.0}
                ),
            ),
            seed=1,
        )
        codes, _ = transient_first.resolve(urls, sites, times)
        assert np.all(codes == STATUS_TIMEOUT)

    def test_zero_rate_layer_is_silent(self):
        urls, sites, times = _batch()
        layer = _layer(_zero_rate(FAULT_MODELS), seed=5)
        codes, retry_after = layer.resolve(urls, sites, times)
        assert np.all(codes == STATUS_OK)
        assert np.all(retry_after == 0.0)
        assert np.all(layer.latency_factors(times) == 1.0)

    def test_rate_limit_carries_retry_after(self):
        urls, sites, times = _batch()
        layer = _layer(
            (FaultModelSpec("rate_limit", {"rate": 1.0, "retry_after_days": 0.75}),),
            seed=2,
        )
        codes, retry_after = layer.resolve(urls, sites, times)
        assert np.all(codes == STATUS_RATE_LIMITED)
        assert np.all(retry_after == 0.75)

    def test_hit_rate_tracks_configured_rate(self):
        urls, sites, times = _batch(n=4000)
        layer = _layer((FaultModelSpec("transient", {"rate": 0.3}),), seed=11)
        codes, _ = layer.resolve(urls, sites, times)
        hit_rate = float(np.mean(codes != STATUS_OK))
        assert 0.25 < hit_rate < 0.35

    def test_site_outage_is_correlated_within_a_site(self):
        # Every page of a dark site fails together: group codes by site at
        # one instant and check each site is all-dark or all-clear.
        layer = _layer(
            (
                FaultModelSpec(
                    "site_outage", {"rate": 0.5, "period_days": 5.0, "duration_days": 5.0}
                ),
            ),
            seed=4,
        )
        urls = [f"http://s{i // 10}.test/p{i % 10}" for i in range(200)]
        sites = [f"s{i // 10}" for i in range(200)]
        codes, _ = layer.resolve(urls, sites, [2.0] * 200)
        by_site = {}
        for site, code in zip(sites, codes):
            by_site.setdefault(site, set()).add(int(code))
        assert all(len(states) == 1 for states in by_site.values())
        assert any(states == {STATUS_SERVER_ERROR} for states in by_site.values())
        assert any(states == {STATUS_OK} for states in by_site.values())

    def test_latency_is_a_pure_function_of_time(self):
        layer = _layer(
            (FaultModelSpec("latency", {"factor": 4.0, "rate": 0.5, "period_days": 1.0}),),
            seed=6,
        )
        times = np.linspace(0.0, 20.0, 200)
        factors = layer.latency_factors(times)
        assert set(np.unique(factors)) <= {1.0, 4.0}
        assert 1.0 in factors and 4.0 in factors
        for i in (0, 57, 133):
            assert layer.latency_factors([float(times[i])]).tolist() == [factors[i]]
        assert not layer.has_status_models
        assert layer.has_latency_models

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="rate"):
            _layer((FaultModelSpec("transient", {"rate": 1.5}),))
        with pytest.raises(ValueError, match="duration_days"):
            _layer(
                (FaultModelSpec("site_outage", {"period_days": 1.0, "duration_days": 2.0}),)
            )
        with pytest.raises(ValueError, match="retry_after_days"):
            _layer((FaultModelSpec("rate_limit", {"retry_after_days": 0.0}),))
        with pytest.raises(ValueError, match="unknown fault model"):
            _layer((FaultModelSpec("cosmic_rays", {}),))

    def test_code_taxonomy(self):
        assert set(HARD_FAULT_CODES) < set(TRANSIENT_CODES)
        assert STATUS_SOFT_404 in TRANSIENT_CODES
        assert STATUS_SOFT_404 not in HARD_FAULT_CODES

    def test_weather_is_independent_of_resolve_history(self):
        """The key memo is a cache: what a layer saw before changes nothing.

        A layer that first resolved batch B returns for batch A exactly what
        a fresh layer returns, and holds one memo row per distinct URL and
        site however often a batch comes back.
        """
        a_urls, a_sites, a_times = _batch(n=120, seed=1)
        b_urls, b_sites, b_times = _batch(n=90, seed=2)
        b_urls = [url.replace("page", "other") for url in b_urls]
        b_sites = [None if i % 7 == 0 else site for i, site in enumerate(b_sites)]
        warm = _layer(FAULT_MODELS, seed=9)
        warm.resolve(b_urls, b_sites, b_times)
        got = warm.resolve(a_urls, a_sites, a_times)
        fresh = _layer(FAULT_MODELS, seed=9).resolve(a_urls, a_sites, a_times)
        assert np.array_equal(got[0], fresh[0])
        assert np.array_equal(got[1], fresh[1])

        def rows():
            return {source: len(memo.index) for source, memo in warm._memos}

        expected = {
            "url": len(set(a_urls) | set(b_urls)),
            "site": len(set(a_sites) | set(b_sites)),
        }
        assert rows() == expected
        again = warm.resolve(b_urls, b_sites, b_times)
        fresh = _layer(FAULT_MODELS, seed=9).resolve(b_urls, b_sites, b_times)
        assert np.array_equal(again[0], fresh[0])
        assert np.array_equal(again[1], fresh[1])
        warm.resolve(a_urls, a_sites, a_times)
        assert rows() == expected


# --------------------------------------------------------------------------- #
# Retry policy and failure tracker
# --------------------------------------------------------------------------- #


class TestRetrySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetrySpec(max_attempts=0)
        with pytest.raises(ValueError):
            RetrySpec(base_delay_days=0.0)
        with pytest.raises(ValueError):
            RetrySpec(multiplier=0.5)
        with pytest.raises(ValueError):
            RetrySpec(jitter=1.0)
        with pytest.raises(ValueError):
            RetrySpec(site_budget=-1)
        with pytest.raises(ValueError):
            RetrySpec(breaker_threshold=0)
        with pytest.raises(ValueError):
            RetrySpec(breaker_backoff=0.9)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_fault_model_periods_must_be_finite(self, value):
        for kind, param in (("site_outage", "period_days"),
                            ("rate_limit", "retry_after_days"),
                            ("latency", "factor")):
            with pytest.raises(ValueError, match=param):
                FaultModelSpec(kind=kind, params={param: value})

    def test_to_dict_is_json_plain(self):
        doc = RetrySpec(site_budget=10).to_dict()
        assert doc["site_budget"] == 10
        assert doc["max_attempts"] == 3
        assert RetrySpec(**doc) == RetrySpec(site_budget=10)


class TestFailureTracker:
    def test_exponential_backoff_without_jitter(self):
        policy = RetrySpec(max_attempts=4, base_delay_days=0.5, multiplier=2.0, jitter=0.0)
        tracker = FailureTracker(policy, seed=0)
        at1 = tracker.on_failure("u", "s", STATUS_TIMEOUT, completed=10.0)
        at2 = tracker.on_failure("u", "s", STATUS_TIMEOUT, completed=11.0)
        at3 = tracker.on_failure("u", "s", STATUS_TIMEOUT, completed=12.0)
        assert at1 == 10.0 + 0.5
        assert at2 == 11.0 + 1.0
        assert at3 == 12.0 + 2.0
        # Fourth attempt exhausts the policy: terminal.
        assert tracker.on_failure("u", "s", STATUS_TIMEOUT, completed=13.0) is None
        assert tracker.counters["retries"] == 3
        assert tracker.counters["retry_drops"] == 1
        assert tracker.counters["timeouts"] == 4

    def test_rate_limited_honours_retry_after(self):
        policy = RetrySpec(base_delay_days=0.25, jitter=0.0)
        tracker = FailureTracker(policy, seed=0)
        at = tracker.on_failure(
            "u", "s", STATUS_RATE_LIMITED, completed=5.0, retry_after=2.0
        )
        assert at == 5.0 + 2.0  # hint dominates the 0.25 backoff
        assert tracker.counters["rate_limited"] == 1

    def test_success_resets_the_attempt_counter(self):
        policy = RetrySpec(max_attempts=2, base_delay_days=1.0, jitter=0.0)
        tracker = FailureTracker(policy, seed=0)
        assert tracker.on_failure("u", "s", STATUS_TIMEOUT, 0.0) == 1.0
        tracker.on_success("u", "s")
        # Back to attempt 1 — not terminal despite max_attempts=2.
        assert tracker.on_failure("u", "s", STATUS_TIMEOUT, 2.0) == 3.0

    def test_breaker_trips_after_threshold_and_decays(self):
        policy = RetrySpec(
            max_attempts=10,
            jitter=0.0,
            breaker_threshold=3,
            breaker_probe_days=1.0,
            breaker_backoff=2.0,
        )
        tracker = FailureTracker(policy, seed=0)
        for i, url in enumerate(["a", "b"]):
            tracker.on_failure(url, "site", STATUS_SERVER_ERROR, float(i))
            assert not tracker.quarantined("site", float(i) + 0.01)
        tracker.on_failure("c", "site", STATUS_SERVER_ERROR, 2.0)
        assert tracker.counters["breaker_trips"] == 1
        assert tracker.quarantined("site", 2.5)
        assert not tracker.quarantined("site", 3.5)  # probe at 2.0 + 1.0
        # One failed probe re-trips with a doubled quarantine.
        tracker.on_failure("d", "site", STATUS_SERVER_ERROR, 3.5)
        assert tracker.counters["breaker_trips"] == 2
        assert tracker.quarantined("site", 5.0)  # until 3.5 + 2.0
        assert not tracker.quarantined("site", 5.6)
        # A success fully resets: next streak needs the whole threshold.
        tracker.on_success("d", "site")
        assert not tracker.quarantined("site", 0.0)
        tracker.on_failure("e", "site", STATUS_SERVER_ERROR, 6.0)
        assert tracker.counters["breaker_trips"] == 2

    def test_site_budget_exhaustion_is_terminal(self):
        policy = RetrySpec(max_attempts=5, jitter=0.0, site_budget=1)
        tracker = FailureTracker(policy, seed=0)
        assert tracker.on_failure("u1", "s", STATUS_TIMEOUT, 0.0) is not None
        assert tracker.on_failure("u2", "s", STATUS_TIMEOUT, 0.0) is None
        assert tracker.counters["retry_drops"] == 1

    def test_snapshot_round_trip(self):
        tracker = FailureTracker(RetrySpec(breaker_threshold=2), seed=9)
        tracker.on_failure("u1", "s1", STATUS_TIMEOUT, 1.0)
        tracker.on_failure("u2", "s1", STATUS_SOFT_404, 2.0)
        tracker.on_failure("u3", "s2", STATUS_RATE_LIMITED, 3.0, retry_after=1.0)
        state, table = snapshot_with_table(tracker)
        other = FailureTracker(RetrySpec(breaker_threshold=2), seed=9)
        other.restore_snapshot(state, table)
        assert snapshot_with_table(other) == (state, table)
        # Restored trackers continue identically.
        assert other.on_failure("u4", "s1", STATUS_TIMEOUT, 4.0) == tracker.on_failure(
            "u4", "s1", STATUS_TIMEOUT, 4.0
        )


# --------------------------------------------------------------------------- #
# Hypothesis properties
# --------------------------------------------------------------------------- #


_MODEL_KINDS = ("transient", "site_outage", "rate_limit", "soft_404", "latency")
_POOL_URLS = [f"http://s{i % 5}.test/p{i}" for i in range(12)]


@st.composite
def _fault_stacks(draw):
    """A random subset of the fault models in random order, zero rates included."""
    # Rates of 1 make every model claim, so the stack order decides.
    rate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 1.0))
    fraction = st.one_of(st.just(1.0), st.floats(0.05, 1.0))
    stack = []
    for kind in draw(st.lists(st.sampled_from(_MODEL_KINDS), unique=True)):
        params = {"rate": draw(rate)}
        if kind == "transient":
            params["timeout_fraction"] = draw(st.floats(0.0, 1.0))
        elif kind == "site_outage":
            period = draw(st.floats(0.5, 10.0))
            params.update(period_days=period, duration_days=period * draw(fraction))
        elif kind == "rate_limit":
            params["retry_after_days"] = draw(st.floats(0.01, 2.0))
        elif kind == "soft_404":
            params["flap_period_days"] = draw(st.floats(0.5, 10.0))
        stack.append(FAULT_MODEL_REGISTRY.create(kind, **params))
    return stack


# Batches over a 12-URL, 5-site pool: URLs repeat, sites may be None.
_fetch_batches = st.lists(
    st.tuples(
        st.sampled_from(_POOL_URLS),
        st.one_of(st.none(), st.sampled_from([f"s{i}" for i in range(5)])),
        st.floats(0.0, 60.0),
    ),
    max_size=40,
)


class TestFailureProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        models=_fault_stacks(),
        seed=st.integers(0, 2**64 - 1),
        batches=st.lists(_fetch_batches, min_size=1, max_size=3),
    )
    def test_resolve_matches_the_per_model_reference(self, models, seed, batches):
        """One fused pass over memoised keys == every model's own hash chain.

        The batches go through one layer in turn, so later ones resolve
        against a memo the earlier ones filled.
        """
        layer = FaultLayer(models, seed=seed)
        for batch in batches + [[]]:
            urls = [url for url, _, _ in batch]
            sites = [site for _, site, _ in batch]
            times = [at for _, _, at in batch]
            codes, retry_after = layer.resolve(urls, sites, times)
            expected = fault_resolve_reference(models, seed, urls, sites, times)
            assert np.array_equal(codes, expected[0])
            assert np.array_equal(retry_after, expected[1])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32), attempt=st.integers(1, 12))
    def test_retry_jitter_is_deterministic_and_bounded(self, seed, attempt):
        a = _retry_jitter("http://x.test/p", attempt, seed, 0.25)
        b = _retry_jitter("http://x.test/p", attempt, seed, 0.25)
        assert a == b
        assert 0.75 <= a < 1.25

    @settings(max_examples=200, deadline=None)
    @given(
        url=st.text(max_size=40),
        seed=st.integers(0, 2**64 - 1),
        attempt=st.integers(1, 2**16),
        jitter=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_retry_jitter_matches_the_vectorized_hash_chain(
        self, url, seed, attempt, jitter
    ):
        """The Python-int splitmix64 is the fault models' chain, bit for bit."""
        key = np.asarray([_hash64(url)], dtype=np.uint64)
        u = float(_uniform01(_mix(_keyed(key, seed, _RETRY_SALT), attempt))[0])
        expected = 1.0 + jitter * (2.0 * u - 1.0) if jitter > 0.0 else 1.0
        assert _retry_jitter(url, attempt, seed, jitter) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        statuses=st.lists(
            st.sampled_from(sorted(TRANSIENT_CODES)), min_size=1, max_size=8
        ),
    )
    def test_tracker_replays_identically_for_fixed_seed(self, seed, statuses):
        policy = RetrySpec(max_attempts=20)
        runs = []
        for _ in range(2):
            tracker = FailureTracker(policy, seed=seed)
            runs.append(
                [
                    tracker.on_failure(f"u{i}", "s", status, float(i))
                    for i, status in enumerate(statuses)
                ]
            )
        assert runs[0] == runs[1]

    @settings(max_examples=25, deadline=None)
    @given(
        threshold=st.integers(1, 5),
        probe_days=st.floats(0.1, 5.0),
        backoff=st.floats(1.0, 4.0),
        trips=st.integers(1, 6),
    )
    def test_breaker_never_starves_a_recovered_site(
        self, threshold, probe_days, backoff, trips
    ):
        """Quarantines always end, and one success clears the breaker."""
        policy = RetrySpec(
            max_attempts=100,
            jitter=0.0,
            breaker_threshold=threshold,
            breaker_probe_days=probe_days,
            breaker_backoff=backoff,
        )
        tracker = FailureTracker(policy, seed=0)
        at = 0.0
        for trip in range(trips):
            needed = threshold if trip == 0 else 1  # probation re-trips on one
            for i in range(needed):
                tracker.on_failure(f"u{trip}-{i}", "site", STATUS_TIMEOUT, at)
                at += 0.001
            quarantine = probe_days * backoff ** trip
            assert tracker.quarantined("site", at)
            # The quarantine is finite: the probe slot is always reachable.
            assert not tracker.quarantined("site", at + quarantine + 1e-6)
            at += quarantine + 1e-3
        tracker.on_success("probe", "site")
        assert not tracker.quarantined("site", at)
        assert tracker.counters["breaker_trips"] == trips

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 64))
    def test_zero_rate_models_never_claim_a_fetch(self, seed, n):
        urls, sites, times = _batch(n=n, seed=seed % 1000)
        layer = _layer(
            (
                FaultModelSpec("transient", {"rate": 0.0}),
                FaultModelSpec("site_outage", {"rate": 0.0}),
                FaultModelSpec("rate_limit", {"rate": 0.0}),
                FaultModelSpec("soft_404", {"rate": 0.0}),
            ),
            seed=seed,
        )
        codes, retry_after = layer.resolve(urls, sites, times)
        assert np.all(codes == STATUS_OK)
        assert np.all(retry_after == 0.0)


# --------------------------------------------------------------------------- #
# Spec layer
# --------------------------------------------------------------------------- #


class TestFaultSpecs:
    def test_fault_model_spec_validates_kind_and_params(self):
        with pytest.raises(ValueError):
            FaultModelSpec(kind="cosmic_rays")
        with pytest.raises(ValueError):
            FaultModelSpec(kind="transient", params={"rating": 0.1})
        with pytest.raises(ValueError):
            FaultModelSpec(kind="transient", params={"rate": 2.0})
        spec = FaultModelSpec(kind="transient", params={"rate": 0.1})
        assert FaultsSpec(models=(spec,)).build_fault_layer().has_status_models

    def test_faults_spec_round_trip(self):
        spec = FaultsSpec(
            models=(
                FaultModelSpec(kind="transient", params={"rate": 0.05}),
                FaultModelSpec(kind="latency", params={"factor": 2.0}),
            ),
            seed=9,
        )
        doc = spec.to_dict()
        assert doc["seed"] == 9
        assert [m["kind"] for m in doc["models"]] == ["transient", "latency"]
        assert FaultsSpec.from_dict(doc) == spec
        with pytest.raises(ValueError):
            FaultsSpec(models=())
        with pytest.raises(ValueError):
            FaultsSpec.from_dict({"models": [], "seed": 0, "bogus": 1})

    def test_retry_spec_round_trip(self):
        spec = RetrySpec(max_attempts=5, site_budget=20)
        assert CrawlerSpec(retry=spec).build_failure_tracker().retry is spec
        assert RetrySpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            RetrySpec(max_attempts=0)

    def test_crawler_spec_omits_faults_when_none(self):
        """Fault-free specs serialize byte-identically to the pre-fault era."""
        doc = CrawlerSpec().to_dict()
        assert "faults" not in doc
        assert "retry" not in doc

    def test_crawler_spec_round_trips_faults(self):
        spec = CrawlerSpec(
            faults=FaultsSpec(
                models=(FaultModelSpec(kind="transient", params={"rate": 0.1}),),
                seed=3,
            ),
            retry=RetrySpec(max_attempts=4),
        )
        restored = CrawlerSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.faults.models == (
            FaultModelSpec(kind="transient", params={"rate": 0.1}),
        )
        assert restored.retry.max_attempts == 4

    def test_faults_require_the_incremental_crawler(self):
        with pytest.raises(ValueError, match="incremental"):
            CrawlerSpec(
                kind="periodic",
                faults=FaultsSpec(models=(FaultModelSpec(kind="transient"),)),
            )
        with pytest.raises(ValueError, match="incremental"):
            CrawlerSpec(kind="periodic", retry=RetrySpec())


# --------------------------------------------------------------------------- #
# Engine parity under faults
# --------------------------------------------------------------------------- #


def _run_faulty(
    engine,
    fault_models,
    retry=None,
    fault_seed=5,
    tracker=True,
    revisit_policy="optimal",
    **overrides,
):
    web = generate_web(WEB_SPEC)
    crawler_class = (
        IncrementalCrawler if engine == "batched" else ReferenceIncrementalCrawler
    )
    faults = None if fault_models is None else FaultsSpec(fault_models, seed=fault_seed)
    crawler = crawler_class(
        web,
        CrawlerSpec(
            collection_capacity=60,
            crawl_budget_per_day=250.0,
            duration_days=12.0,
            measurement_interval_days=1.0,
            track_quality=False,
            faults=faults,
            retry=retry,
            **overrides,
        ),
        PolicySpec(revisit_policy=revisit_policy),
    )
    if not tracker:
        # Faults without failure handling (an UpdateModule wired by hand):
        # every transient failure is terminal, on both engines.
        crawler.update_module.failure_tracker = None
    result = crawler.run()
    return result, crawler


#: Configurations that put each kind of run cut of the batched replay inside
#: a tick window (250 slots here).
CUT_CASES = {
    "no_tracker": {"tracker": False},
    "retry_in_window": {
        "retry": RetrySpec(max_attempts=4, base_delay_days=0.01, breaker_threshold=4)
    },
    "probe_in_window": {
        "retry": RetrySpec(breaker_threshold=2, breaker_probe_days=0.02)
    },
    "realloc_mid_run": {
        "retry": RetrySpec(breaker_threshold=4),
        "reallocation_interval_days": 0.13,
    },
    "polite": {
        "retry": RetrySpec(base_delay_days=0.01, breaker_threshold=4),
        "use_politeness": True,
        "politeness_min_delay_seconds": 1800.0,
        "politeness_night_window": True,
    },
}


def _assert_engines_agree(batched, crawler_b, reference, crawler_r):
    """Counters, series, failure counters, fetch timestamps and the queue."""
    assert batched.pages_crawled == reference.pages_crawled
    assert batched.pages_failed == reference.pages_failed
    assert batched.changes_detected == reference.changes_detected
    assert batched.freshness.times == reference.freshness.times
    assert batched.freshness.freshness == reference.freshness.freshness
    counters = crawler_b.failure_counters()
    assert counters == crawler_r.failure_counters()
    # The weather actually blew.
    if crawler_b.update_module.failure_tracker is None:
        assert batched.pages_failed > 0 and not any(counters.values())
    else:
        assert counters["retries"] > 0
    fetched_b = {r.url: r.fetched_at for r in crawler_b.collection.current_records()}
    fetched_r = {r.url: r.fetched_at for r in crawler_r.collection.current_records()}
    assert fetched_b == fetched_r
    assert snapshot_with_table(crawler_b.collurls) == snapshot_with_table(crawler_r.collurls)
    assert crawler_b.allurls.snapshot() == crawler_r.allurls.snapshot()


@pytest.mark.usefixtures("collection_stays_queued")
class TestEngineParityUnderFaults:
    def test_batched_matches_reference_under_full_weather(self):
        retry = RetrySpec(max_attempts=3, breaker_threshold=4)
        _assert_engines_agree(
            *_run_faulty("batched", FAULT_MODELS, retry),
            *_run_faulty("reference", FAULT_MODELS, retry),
        )

    @pytest.mark.parametrize("policy", ["uniform", "proportional", "optimal"])
    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    def test_run_cuts_match_reference(self, case, policy, monkeypatch):
        """Every way a popped run is cut short leaves no trace.

        Retries and breaker probes that land inside the tick window,
        reallocation triggers in the middle of a run, politeness on top of
        faults, and faults with no failure tracker at all: the batched
        replay must reproduce the reference engine down to every fetch
        timestamp and queue sequence number.
        """
        tails = []
        restore = CollUrls.restore

        def spy(self, entries):
            tails.append(len(entries))
            restore(self, entries)

        monkeypatch.setattr(CollUrls, "restore", spy)
        config = dict(CUT_CASES[case], revisit_policy=policy)
        batched = _run_faulty("batched", FAULT_MODELS, **config)
        assert any(tails)  # runs were cut with entries left to put back
        _assert_engines_agree(
            *batched, *_run_faulty("reference", FAULT_MODELS, **config)
        )

    def test_batched_replay_resolves_weather_per_run(self, monkeypatch):
        """Active weather is resolved once per popped run, not per fetch."""
        calls = []
        resolve = FaultLayer.resolve

        def spy(self, urls, sites, times):
            calls.append(len(urls))
            return resolve(self, urls, sites, times)

        monkeypatch.setattr(FaultLayer, "resolve", spy)
        # A collection that fills and an even revisit policy keep the queue
        # loaded, so popped runs are long; with one hot page refetched every
        # slot a round is one entry and resolves are as many as fetches.
        result, _ = _run_faulty(
            "batched",
            FAULT_MODELS,
            RetrySpec(max_attempts=3, breaker_threshold=4),
            revisit_policy="uniform",
            ranking_interval_days=1.0,
        )
        assert sum(calls) >= result.pages_crawled  # the spy saw the weather
        assert len(calls) * 4 < result.pages_crawled

    def test_replay_predicts_every_fetch_status(self, monkeypatch):
        """The replay's frozen statuses are what ``fetch_many`` resolves.

        The window's weather is resolved twice — by the replay, to decide
        the queue dynamics, and independently by ``fetch_many`` — so the
        fetch layer never has to trust caller-supplied statuses; this pins
        that the two agree on every entry of a chaos run.
        """
        checked = []
        process_batch = UpdateModule.process_batch

        def spy(self, urls, times, **kwargs):
            outcome = process_batch(self, urls, times, **kwargs)
            predicted = [status for status, _due in kwargs["failure_decisions"]]
            # BatchFetchResult.statuses, as crawl_many hands them on.
            assert predicted == outcome.statuses
            checked.append(len(predicted))
            return outcome

        monkeypatch.setattr(UpdateModule, "process_batch", spy)
        result, _ = _run_faulty(
            "batched", FAULT_MODELS, RetrySpec(max_attempts=3, breaker_threshold=4)
        )
        assert sum(checked) == result.pages_crawled + result.pages_failed
        assert result.pages_failed > 0

    def test_zero_rate_faults_are_bit_identical_to_no_faults(self):
        zero = _zero_rate(FAULT_MODELS)
        polite = {k: v for k, v in CUT_CASES["polite"].items() if k != "retry"}
        for config in ({}, polite):
            plain, _ = _run_faulty("batched", None, **config)
            armed, crawler = _run_faulty("batched", zero, **config)
            assert armed.pages_crawled == plain.pages_crawled
            assert armed.pages_failed == plain.pages_failed
            assert armed.changes_detected == plain.changes_detected
            assert armed.freshness.times == plain.freshness.times
            assert armed.freshness.freshness == plain.freshness.freshness
            assert all(v == 0 for v in crawler.failure_counters().values())

    def test_single_shard_sharded_matches_plain_under_faults(self):
        retry = RetrySpec(max_attempts=3)
        plain, crawler = _run_faulty("batched", FAULT_MODELS, retry)
        web = generate_web(WEB_SPEC)
        sharded = ShardedCrawler(
            web,
            CrawlerSpec(
                collection_capacity=60,
                crawl_budget_per_day=250.0,
                duration_days=12.0,
                measurement_interval_days=1.0,
                track_quality=False,
                faults=FaultsSpec(FAULT_MODELS, seed=5),
                retry=retry,
                engine="sharded",
                shards=1,
            ),
            PolicySpec(),
        ).run()
        assert sharded.pages_crawled == plain.pages_crawled
        assert sharded.freshness.times == plain.freshness.times
        assert sharded.freshness.freshness == plain.freshness.freshness
        assert sharded.failures == crawler.failure_counters()

    def test_soft_404_accounting_is_consistent(self):
        """Every soft-404 is a no-observation handled by the retry path."""
        faulty, crawler = _run_faulty(
            "batched",
            (FaultModelSpec("soft_404", {"rate": 0.3}),),
            RetrySpec(max_attempts=2),
        )
        counters = crawler.failure_counters()
        assert counters["soft_404s"] > 0
        # Each soft-404 goes through on_failure exactly once: rescheduled or
        # dropped, never anything else — the accounting must close.
        assert counters["retries"] + counters["retry_drops"] == counters["soft_404s"]
        assert counters["timeouts"] == 0  # only the soft-404 model is armed
        assert faulty.pages_crawled > 0
        assert faulty.changes_detected > 0


# --------------------------------------------------------------------------- #
# Checkpoint integrity
# --------------------------------------------------------------------------- #


def _checkpointer(backend, **kwargs):
    return CrawlCheckpointer(backend, every_days=1.0, **kwargs)


#: ``{"integrity": "<64 hex>", `` — the fixed-width header of a stored checkpoint.
HEADER_LEN = len('{"integrity": "", ') + 64


def _stored_digest(text):
    """The integrity rule, restated: sha256 of the bytes after the header."""
    return hashlib.sha256(("{" + text[HEADER_LEN:]).encode("utf-8")).hexdigest()


def _two_saves(backend, payload=(0.1, "two", 2.5)):
    """Two checkpoints of realistic shape; returns the first one's stored text."""
    saver = _checkpointer(backend)
    saver.save({"format": CHECKPOINT_FORMAT, "tick": 1, "payload": list(payload)}, at=1.0)
    first = backend.load_state_text(CHECKPOINT_STATE_KEY)
    saver.save({"format": CHECKPOINT_FORMAT, "tick": 2, "payload": list(payload)}, at=2.0)
    return first


class TestCheckpointIntegrity:
    def test_checksum_covers_the_stored_bytes_and_excludes_itself(self):
        backend = SqliteBackend()
        state = {"a": 1, "b": [1.5, 2.5]}
        _checkpointer(backend).save(state, at=1.0)
        text = backend.load_state_text(CHECKPOINT_STATE_KEY)
        assert text == '{"integrity": "%s", "a": 1, "b": [1.5, 2.5]}' % state["integrity"]
        assert _stored_digest(text) == state["integrity"]
        # Saving a document that already carries a digest hashes the same bytes.
        again = dict(state, integrity="stale")
        _checkpointer(SqliteBackend()).save(again, at=1.0)
        assert again["integrity"] == state["integrity"]

    def test_save_stamps_and_load_verifies(self):
        backend = SqliteBackend()
        saver = _checkpointer(backend)
        saver.save({"tick": 1}, at=1.0)
        state = _checkpointer(backend).load()
        assert state["tick"] == 1
        text = backend.load_state_text(CHECKPOINT_STATE_KEY)
        assert state["integrity"] == _stored_digest(text)
        assert backend.load_state(CHECKPOINT_STATE_KEY) == state

    def test_previous_slot_is_the_last_stored_text_byte_for_byte(self):
        backend = SqliteBackend()
        first = _two_saves(backend)
        assert backend.load_state_text(CHECKPOINT_PREV_STATE_KEY) == first
        # A loaded (verified) text is demoted the same way, not re-dumped.
        second = backend.load_state_text(CHECKPOINT_STATE_KEY)
        resumed = _checkpointer(backend)
        resumed.load()
        resumed.save({"format": CHECKPOINT_FORMAT, "tick": 3}, at=3.0)
        assert backend.load_state_text(CHECKPOINT_PREV_STATE_KEY) == second

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_one_changed_character_falls_back(self, data):
        backend = SqliteBackend()
        payload = data.draw(
            st.lists(st.floats(allow_nan=False) | st.text(max_size=8), max_size=6),
            label="payload",
        )
        first = _two_saves(backend, payload)
        text = backend.load_state_text(CHECKPOINT_STATE_KEY)
        position = data.draw(st.integers(0, len(text) - 1), label="position")
        assert len(first) == len(text)  # the two saves differ in one digit and the digest
        char = data.draw(
            st.sampled_from('0a"{}[],: \tx').filter(
                lambda c: c not in (text[position], first[position])
            ),
            label="char",
        )
        damaged = text[:position] + char + text[position + 1:]
        backend.save_state_text(CHECKPOINT_STATE_KEY, damaged)
        assert _checkpointer(backend).load()["tick"] == 1
        # ... and with the other slot damaged the same way nothing is resumed.
        backend.save_state_text(
            CHECKPOINT_PREV_STATE_KEY, first[:position] + char + first[position + 1:]
        )
        with pytest.raises(ValueError, match="corrupt"):
            _checkpointer(backend).load()

    def test_whitespace_change_a_parser_cannot_see_falls_back(self):
        backend = SqliteBackend()
        _two_saves(backend)
        text = backend.load_state_text(CHECKPOINT_STATE_KEY)
        spaces = [at for at, char in enumerate(text) if char == " "]
        assert spaces[0] < HEADER_LEN < spaces[-1]  # header and body both covered
        for at in spaces:
            swapped = text[:at] + "\t" + text[at + 1:]
            assert json.loads(swapped) == json.loads(text)
            backend.save_state_text(CHECKPOINT_STATE_KEY, swapped)
            assert _checkpointer(backend).load()["tick"] == 1

    @pytest.mark.parametrize("position", [20, -5])  # inside the header, inside the body
    def test_unencodable_character_falls_back_instead_of_raising(self, position, tmp_path):
        # Damaged bytes may not decode as UTF-8 (here: an encoded lone
        # surrogate); the unreadable slot must fall back, not escape load().
        path = str(tmp_path / "store.sqlite")
        backend = SqliteBackend(path)
        _two_saves(backend)
        text = backend.load_state_text(CHECKPOINT_STATE_KEY)
        backend.close()  # an open store holds the write lock
        at = position % len(text)
        damaged = text[:at].encode() + b"\xed\xa0\x80" + text[at + 1:].encode()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE state SET value = CAST(? AS TEXT) WHERE key = ?",
            (damaged, CHECKPOINT_STATE_KEY),
        )
        conn.commit()
        conn.close()
        backend = SqliteBackend(path)
        with pytest.raises(sqlite3.OperationalError):
            backend.load_state_text(CHECKPOINT_STATE_KEY)
        assert _checkpointer(backend).load()["tick"] == 1
        backend.close()

    @pytest.mark.parametrize("keep", [0.0, 0.01, 0.5, 0.99])
    def test_torn_current_slot_falls_back_to_previous(self, keep):
        backend = SqliteBackend()
        _two_saves(backend)
        text = backend.load_state_text(CHECKPOINT_STATE_KEY)
        backend.save_state_text(CHECKPOINT_STATE_KEY, text[: int(len(text) * keep)])
        assert _checkpointer(backend).load()["tick"] == 1

    def test_corrupt_current_slot_falls_back_to_previous(self):
        backend = SqliteBackend()
        saver = _checkpointer(backend)
        saver.save({"tick": 1}, at=1.0)
        saver.save({"tick": 2}, at=2.0)
        # Damage the current slot the way a torn write would.
        damaged = dict(backend.load_state(CHECKPOINT_STATE_KEY))
        damaged["tick"] = 999
        backend.save_state(CHECKPOINT_STATE_KEY, damaged)
        state = _checkpointer(backend).load()
        assert state["tick"] == 1  # the demoted previous snapshot

    def test_both_slots_corrupt_raises(self):
        backend = SqliteBackend()
        saver = _checkpointer(backend)
        saver.save({"tick": 1}, at=1.0)
        saver.save({"tick": 2}, at=2.0)
        for key in (CHECKPOINT_STATE_KEY, CHECKPOINT_PREV_STATE_KEY):
            damaged = dict(backend.load_state(key))
            damaged["tick"] = 999
            backend.save_state(key, damaged)
        with pytest.raises(ValueError, match="corrupt"):
            _checkpointer(backend).load()

    def test_corrupt_current_without_previous_raises(self):
        backend = SqliteBackend()
        saver = _checkpointer(backend)
        saver.save({"tick": 1}, at=1.0)
        damaged = dict(backend.load_state(CHECKPOINT_STATE_KEY))
        damaged["tick"] = 999
        backend.save_state(CHECKPOINT_STATE_KEY, damaged)
        with pytest.raises(ValueError, match="no previous snapshot"):
            _checkpointer(backend).load()

    def test_checksum_less_legacy_checkpoint_is_refused(self):
        backend = SqliteBackend()
        backend.save_state(CHECKPOINT_STATE_KEY, {"tick": 7})
        with pytest.raises(
            ValueError, match=f"format none .* format {CHECKPOINT_FORMAT}"
        ) as refusal:
            _checkpointer(backend).load()
        assert "corrupt" not in str(refusal.value)

    @pytest.mark.parametrize("old_format", [2, 3, 4])
    def test_older_format_checkpoint_is_refused_naming_both_formats(self, old_format):
        # Format 2's layout: ``integrity`` last, the sha256 of a canonical
        # re-dump. Both slots are equally old, so no fallback.
        backend = SqliteBackend()
        for key, tick in ((CHECKPOINT_PREV_STATE_KEY, 6), (CHECKPOINT_STATE_KEY, 7)):
            state = {"format": old_format, "tick": tick}
            canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
            state["integrity"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            backend.save_state(key, state)
        with pytest.raises(
            ValueError, match=f"format {old_format} .* format {CHECKPOINT_FORMAT}"
        ) as refusal:
            _checkpointer(backend).load()
        assert "corrupt" not in str(refusal.value)

    def test_spec_hash_guard_still_applies_after_fallback(self):
        backend = SqliteBackend()
        saver = _checkpointer(backend, spec_hash="a" * 64)
        saver.save({"format": CHECKPOINT_FORMAT, "tick": 1}, at=1.0)
        with pytest.raises(ValueError, match="different spec"):
            _checkpointer(backend, spec_hash="b" * 64).load()
