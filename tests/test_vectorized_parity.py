"""Parity suite: vectorized hot paths vs. the loops in ``tests/reference/``.

Every vectorized kernel introduced by the NumPy-batched engine — the
crawl-policy simulators, the batched web oracle, the collection metrics and
the optimal-allocation solver — must reproduce the pure-Python reference
implementation to within 1e-9 on shared seeds (the simulators share the
random stream with their references, so they are expected to match
*exactly*). Edge cases covered: rate-0 pages, infinite revisit intervals,
and the first (incomplete) cycle of a shadowing crawler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.freshness.analytic import CrawlMode, CrawlPolicy, UpdateMode
from repro.freshness.metrics import collection_age, collection_freshness
from repro.freshness.optimal_allocation import (
    marginal_freshness,
    optimal_frequency_curve,
    optimal_revisit_frequencies,
)
from repro.simulation.crawler_sim import (
    simulate_crawl_policy,
    simulate_revisit_allocation,
)
from repro.simulation.scenarios import paper_table2_policies
from repro.storage.records import PageRecord

from reference.kernels import (
    _frequency_for_marginal,
    collection_age_reference,
    collection_freshness_reference,
    optimal_revisit_frequencies_reference,
    simulate_crawl_policy_reference,
    simulate_revisit_allocation_reference,
)

TOLERANCE = 1e-9


def _mixed_rates(n: int, seed: int = 77) -> np.ndarray:
    """A population with static, slow, typical and pathological pages."""
    rng = np.random.default_rng(seed)
    rates = rng.exponential(0.15, size=n)
    rates[: n // 10] = 0.0  # static pages
    rates[n // 10 : n // 8] = 25.0  # change many times a day
    return rates


class TestSimulatorParity:
    @pytest.mark.parametrize("label", sorted(paper_table2_policies()))
    def test_crawl_policy_matches_reference(self, label):
        policy = paper_table2_policies()[label]
        rates = _mixed_rates(150)
        vec = simulate_crawl_policy(rates, policy, n_cycles=3, samples_per_cycle=15, seed=21)
        ref = simulate_crawl_policy_reference(
            rates, policy, n_cycles=3, samples_per_cycle=15, seed=21
        )
        assert vec.times == ref.times
        np.testing.assert_allclose(vec.freshness, ref.freshness, atol=TOLERANCE)
        assert vec.mean_freshness == pytest.approx(ref.mean_freshness, abs=TOLERANCE)

    def test_shadowing_first_cycle_visibility(self):
        """With the minimum warm-up, early samples of a shadowing crawler see
        pages whose previous-cycle copy does not exist yet; the visibility
        masking must agree with the reference's ``None`` handling."""
        policy = CrawlPolicy(
            crawl_mode=CrawlMode.BATCH,
            update_mode=UpdateMode.SHADOW,
            cycle_days=30.0,
            batch_duration_days=10.0,
        )
        rates = _mixed_rates(80)
        vec = simulate_crawl_policy(rates, policy, n_cycles=2, warmup_cycles=1, seed=5)
        ref = simulate_crawl_policy_reference(
            rates, policy, n_cycles=2, warmup_cycles=1, seed=5
        )
        np.testing.assert_allclose(vec.freshness, ref.freshness, atol=TOLERANCE)

    def test_revisit_allocation_matches_reference(self):
        rng = np.random.default_rng(9)
        rates = _mixed_rates(200)
        intervals = rng.exponential(12.0, size=200)
        intervals[:7] = np.inf  # never revisited after the initial fetch
        intervals[7:10] = 0.0  # no schedule at all
        vec = simulate_revisit_allocation(
            rates, intervals, duration_days=90.0, n_samples=180, seed=13
        )
        ref = simulate_revisit_allocation_reference(
            rates, intervals, duration_days=90.0, n_samples=180, seed=13
        )
        assert vec.times == ref.times
        np.testing.assert_allclose(vec.freshness, ref.freshness, atol=TOLERANCE)
        assert vec.mean_freshness == pytest.approx(ref.mean_freshness, abs=TOLERANCE)

    def test_all_static_population(self):
        policy = paper_table2_policies()["steady / in-place"]
        vec = simulate_crawl_policy([0.0] * 25, policy, n_cycles=2, seed=1)
        ref = simulate_crawl_policy_reference([0.0] * 25, policy, n_cycles=2, seed=1)
        assert vec.freshness == ref.freshness
        assert vec.mean_freshness == pytest.approx(1.0)

    def test_ndarray_rates_accepted(self):
        """Regression: NumPy-array inputs used to crash on ``if not rates:``."""
        policy = paper_table2_policies()["steady / in-place"]
        rates = np.array([0.05, 0.1, 0.0])
        result = simulate_crawl_policy(rates, policy, n_cycles=2, seed=3)
        assert len(result.freshness) > 0
        alloc = simulate_revisit_allocation(
            rates, np.array([5.0, np.inf, 2.0]), duration_days=20.0, n_samples=10, seed=3
        )
        assert len(alloc.freshness) == 10
        reference = simulate_revisit_allocation_reference(
            rates, np.array([5.0, np.inf, 2.0]), duration_days=20.0, n_samples=10, seed=3
        )
        np.testing.assert_allclose(alloc.freshness, reference.freshness, atol=TOLERANCE)

    def test_empty_rates_still_rejected(self):
        policy = paper_table2_policies()["steady / in-place"]
        for bad in ([], np.array([])):
            with pytest.raises(ValueError):
                simulate_crawl_policy(bad, policy)
            with pytest.raises(ValueError):
                simulate_revisit_allocation(bad, bad)


class TestOracleParity:
    @pytest.fixture(scope="class")
    def records(self, small_web):
        rng = np.random.default_rng(23)
        records = []
        for url in list(small_web.urls())[:400]:
            fetched = float(rng.uniform(0.0, small_web.horizon_days * 0.8))
            records.append(
                PageRecord(
                    url=url, version=0,
                    fetched_at=fetched, first_fetched_at=fetched,
                )
            )
        # Records whose pages the web has never heard of.
        for k in range(4):
            records.append(
                PageRecord(
                    url=f"http://gone.example/{k}", version=0,
                    fetched_at=5.0, first_fetched_at=5.0,
                )
            )
        return records

    @pytest.mark.parametrize("at", [0.0, 1.5, 40.0, 100.0, 126.5])
    def test_collection_freshness_matches_reference(self, small_web, records, at):
        vec = collection_freshness(records, small_web, at)
        ref = collection_freshness_reference(records, small_web, at)
        assert vec == pytest.approx(ref, abs=TOLERANCE)

    @pytest.mark.parametrize("at", [0.0, 1.5, 40.0, 100.0, 126.5])
    def test_collection_age_matches_reference(self, small_web, records, at):
        vec = collection_age(records, small_web, at)
        ref = collection_age_reference(records, small_web, at)
        assert vec == pytest.approx(ref, abs=TOLERANCE)

    def test_empty_collection(self, small_web):
        assert collection_freshness([], small_web, 1.0) == 0.0
        assert collection_age([], small_web, 1.0) == 0.0

    def test_versions_at_matches_scalar_oracle(self, small_web):
        urls = list(small_web.urls())[:200]
        for t in (0.0, 30.0, 126.0):
            batched = small_web.versions_at(urls, t)
            scalar = [small_web.page(url).version_at(t) for url in urls]
            assert [int(v) for v in batched] == scalar

    def test_versions_at_per_record_times(self, small_web):
        urls = list(small_web.urls())[:100]
        times = np.linspace(0.0, 120.0, len(urls))
        batched = small_web.versions_at(urls, times)
        scalar = [small_web.page(u).version_at(float(t)) for u, t in zip(urls, times)]
        assert [int(v) for v in batched] == scalar

    def test_versions_at_unknown_url_raises(self, small_web):
        with pytest.raises(KeyError):
            small_web.versions_at(["http://gone.example/zzz"], 1.0)

    def test_exists_mask_matches_scalar_oracle(self, small_web):
        urls = list(small_web.urls())[:200] + ["http://gone.example/zzz"]
        for t in (0.0, 60.0, 126.0):
            batched = small_web.exists_mask(urls, t)
            scalar = [small_web.exists(url, t) for url in urls]
            assert [bool(v) for v in batched] == scalar

    def test_up_to_date_mask_matches_scalar_oracle(self, small_web):
        urls = list(small_web.urls())[:200]
        pairs = [(url, small_web.page(url).version_at(10.0)) for url in urls]
        pairs.append(("http://gone.example/zzz", 0))
        for t in (10.0, 80.0, 126.0):
            batched = small_web.up_to_date_mask(pairs, t)
            scalar = [small_web.is_up_to_date(url, version, t) for url, version in pairs]
            assert [bool(v) for v in batched] == scalar

    def test_oracle_cache_invalidated_on_mutation(self, tiny_web):
        arrays = tiny_web.oracle_arrays()
        assert arrays is tiny_web.oracle_arrays()  # cached
        tiny_web.invalidate_oracle_cache()
        rebuilt = tiny_web.oracle_arrays()
        assert rebuilt is not arrays
        assert rebuilt.flat.shape == arrays.flat.shape


class TestAllocatorParity:
    @pytest.mark.parametrize(
        "rates,budget,weights",
        [
            (list(_mixed_rates(120)), 8.0, None),
            ([0.5] * 64, 1.0, None),  # degenerate: identical pages, tight budget
            ([0.0, 0.0, 0.3], 2.0, None),  # rate-0 pages
            ([1.0, 86400.0], 1.0, None),  # the paper's two-page example
            (list(_mixed_rates(90, seed=3)), 5.0,
             list(np.random.default_rng(4).uniform(0.0, 3.0, size=90))),
        ],
    )
    def test_matches_reference(self, rates, budget, weights):
        vec = optimal_revisit_frequencies(rates, budget, weights=weights)
        ref = optimal_revisit_frequencies_reference(rates, budget, weights=weights)
        np.testing.assert_allclose(vec, ref, atol=TOLERANCE)
        assert sum(vec) == pytest.approx(budget, rel=1e-6)

    def test_ndarray_inputs_accepted(self):
        rates = np.array([0.1, 0.5, 0.0])
        vec = optimal_revisit_frequencies(rates, 2.0, weights=np.array([1.0, 2.0, 1.0]))
        assert sum(vec) == pytest.approx(2.0)

    def test_funded_pages_share_one_water_level(self):
        rates = _mixed_rates(200, seed=11)
        frequencies = optimal_revisit_frequencies(rates, 10.0)
        marginals = [
            marginal_freshness(rate, frequency)
            for rate, frequency in zip(rates, frequencies)
            if frequency > 1e-9 and rate > 0
        ]
        assert len(marginals) > 10
        assert max(marginals) - min(marginals) < 1e-6

    def test_curve_median_water_level_is_unimodal(self):
        """Satellite fix: the Figure 9 curve recovers mu as the median
        marginal over all funded pages; the shape must stay unimodal even
        with a separate population fixing the water level."""
        population = [0.005 * (1.5 ** i) for i in range(40)]
        grid = [0.001 * (1.6 ** i) for i in range(30)]
        curve = optimal_frequency_curve(grid, budget=2.0, population_rates=population)
        peak = curve.index(max(curve))
        assert 0 < peak < len(curve) - 1
        assert all(curve[i] <= curve[i + 1] + 1e-9 for i in range(peak))
        assert all(
            curve[i] >= curve[i + 1] - 1e-9 for i in range(peak, len(curve) - 1)
        )
        assert curve[-1] < max(curve) * 0.5

    def test_curve_matches_the_scalar_solve(self):
        """The curve solves its grid with the array bisection, once per
        distinct rate; the scalar per-rate solve at the same water level
        agrees within the parity budget (zero, infinite and repeated grid
        rates included)."""
        population = _mixed_rates(60, seed=5)
        grid = [0.0, 0.002, 0.05, 0.05, 0.4, 3.0, 0.002, float("inf"), 40.0]
        curve = optimal_frequency_curve(grid, budget=6.0, population_rates=population)
        allocation = optimal_revisit_frequencies(population, 6.0)
        mu = float(np.median([
            marginal_freshness(rate, frequency)
            for rate, frequency in zip(population, allocation)
            if frequency > 0 and rate > 0
        ]))
        scalar = [_frequency_for_marginal(rate, 1.0, mu) for rate in grid]
        np.testing.assert_allclose(curve, scalar, rtol=TOLERANCE, atol=TOLERANCE)
        assert curve[2] == curve[3] and curve[1] == curve[6]
        assert curve[0] == curve[7] == 0.0
