"""Tests for repro.simweb.change_models."""

import numpy as np
import pytest

from repro.simweb.change_models import (
    BurstyChangeProcess,
    NeverChanges,
    PeriodicChangeProcess,
    PoissonChangeProcess,
)

from reference.oracle import (
    changed_between,
    changes_between,
    last_change_at_or_before,
    next_change_after,
    observed_intervals,
    version_at,
)


class TestPoissonChangeProcess:
    def test_requires_materialisation(self):
        process = PoissonChangeProcess(1.0)
        with pytest.raises(RuntimeError):
            version_at(process, 1.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            PoissonChangeProcess(-1.0)

    def test_mean_rate_and_interval(self):
        process = PoissonChangeProcess(0.25)
        assert process.mean_rate == 0.25
        assert process.mean_interval == 4.0

    def test_zero_rate_never_changes(self, rng):
        process = PoissonChangeProcess(0.0)
        process.materialise(100.0, rng)
        assert version_at(process, 100.0) == 0
        assert process.mean_interval == float("inf")

    def test_change_count_close_to_expectation(self, rng):
        process = PoissonChangeProcess(2.0)
        process.materialise(1000.0, rng)
        count = version_at(process, 1000.0)
        assert count == pytest.approx(2000, rel=0.1)

    def test_version_monotone_in_time(self, rng):
        process = PoissonChangeProcess(1.0)
        process.materialise(50.0, rng)
        versions = [version_at(process, t) for t in np.linspace(0, 50, 200)]
        assert all(b >= a for a, b in zip(versions, versions[1:]))

    def test_changes_between_consistency(self, rng):
        process = PoissonChangeProcess(0.5)
        process.materialise(100.0, rng)
        total = version_at(process, 100.0)
        split = changes_between(process, 0.0, 40.0) + changes_between(process, 40.0, 100.0)
        assert split == total

    def test_changes_between_rejects_reversed_interval(self, rng):
        process = PoissonChangeProcess(0.5)
        process.materialise(10.0, rng)
        with pytest.raises(ValueError):
            changes_between(process, 5.0, 1.0)

    def test_changed_between_matches_count(self, rng):
        process = PoissonChangeProcess(1.0)
        process.materialise(30.0, rng)
        for t0, t1 in [(0, 5), (5, 5.001), (10, 30)]:
            assert changed_between(process, t0, t1) == (changes_between(process, t0, t1) > 0)

    def test_next_change_after(self, rng):
        process = PoissonChangeProcess(1.0)
        process.materialise(30.0, rng)
        times = process.change_times()
        if times:
            first = times[0]
            assert next_change_after(process, 0.0) == first
            assert next_change_after(process, times[-1]) is None

    def test_last_change_at_or_before(self, rng):
        process = PoissonChangeProcess(1.0)
        process.materialise(30.0, rng)
        times = process.change_times()
        if times:
            assert last_change_at_or_before(process, times[0] - 1e-9) is None
            assert last_change_at_or_before(process, 30.0) == times[-1]

    def test_observed_intervals_are_positive(self, rng):
        process = PoissonChangeProcess(2.0)
        process.materialise(100.0, rng)
        assert all(interval > 0 for interval in observed_intervals(process))

    def test_intervals_are_exponential(self, rng):
        from repro.analysis.statistics import fit_exponential

        process = PoissonChangeProcess(1.0)
        process.materialise(5000.0, rng)
        fit = fit_exponential(observed_intervals(process))
        assert fit.rate == pytest.approx(1.0, rel=0.1)
        assert fit.is_plausibly_exponential

    def test_negative_horizon_rejected(self, rng):
        process = PoissonChangeProcess(1.0)
        with pytest.raises(ValueError):
            process.materialise(-1.0, rng)

    def test_version_before_zero_is_zero(self, rng):
        process = PoissonChangeProcess(5.0)
        process.materialise(10.0, rng)
        assert version_at(process, -1.0) == 0


class TestPeriodicChangeProcess:
    def test_exact_change_count(self, rng):
        process = PeriodicChangeProcess(interval=10.0)
        process.materialise(100.0, rng)
        assert version_at(process, 100.0) == 10

    def test_phase_offsets_changes(self, rng):
        process = PeriodicChangeProcess(interval=10.0, phase=3.0)
        process.materialise(100.0, rng)
        assert process.change_times()[0] == pytest.approx(3.0)

    def test_mean_rate(self):
        assert PeriodicChangeProcess(4.0).mean_rate == 0.25

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PeriodicChangeProcess(0.0)
        with pytest.raises(ValueError):
            PeriodicChangeProcess(1.0, phase=-1.0)


class TestBurstyChangeProcess:
    def test_mean_rate_accounts_for_burst_size(self):
        process = BurstyChangeProcess(burst_rate=0.1, burst_size=5)
        assert process.mean_rate == pytest.approx(0.5)

    def test_burst_structure(self, rng):
        process = BurstyChangeProcess(burst_rate=0.05, burst_size=4, burst_duration=0.2)
        process.materialise(1000.0, rng)
        # Total changes should be roughly bursts * burst_size.
        assert version_at(process, 1000.0) == pytest.approx(0.05 * 1000 * 4, rel=0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BurstyChangeProcess(-0.1)
        with pytest.raises(ValueError):
            BurstyChangeProcess(0.1, burst_size=0)
        with pytest.raises(ValueError):
            BurstyChangeProcess(0.1, burst_duration=-1.0)

    def test_zero_rate(self, rng):
        process = BurstyChangeProcess(0.0)
        process.materialise(100.0, rng)
        assert version_at(process, 100.0) == 0


class TestNeverChanges:
    def test_no_changes(self, rng):
        process = NeverChanges()
        process.materialise(1000.0, rng)
        assert version_at(process, 1000.0) == 0
        assert process.mean_rate == 0.0
        assert observed_intervals(process) == []
