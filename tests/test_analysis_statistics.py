"""Tests for repro.analysis.statistics."""

import math

import numpy as np
import pytest

from repro.analysis.statistics import (
    exponential_goodness_of_fit,
    fit_exponential,
    kolmogorov_smirnov_exponential,
    mean_confidence_interval,
    normal_quantile,
)


class TestFitExponential:
    def test_recovers_rate_of_exponential_sample(self):
        rng = np.random.default_rng(0)
        data = rng.exponential(scale=10.0, size=5000)
        fit = fit_exponential(data)
        assert fit.rate == pytest.approx(0.1, rel=0.05)
        assert fit.mean_interval == pytest.approx(10.0, rel=0.05)

    def test_exponential_sample_passes_plausibility_check(self):
        rng = np.random.default_rng(1)
        data = rng.exponential(scale=5.0, size=3000)
        fit = fit_exponential(data)
        assert fit.is_plausibly_exponential

    def test_uniform_sample_fails_plausibility_check(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(9.0, 11.0, size=3000)
        fit = fit_exponential(data)
        assert not fit.is_plausibly_exponential

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential([])

    def test_non_positive_data_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential([1.0, 0.0, 2.0])

    def test_n_samples_recorded(self):
        fit = fit_exponential([1.0, 2.0, 3.0, 4.0])
        assert fit.n_samples == 4


class TestKolmogorovSmirnov:
    def test_perfect_exponential_has_small_statistic(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(scale=1.0, size=4000)
        ks = kolmogorov_smirnov_exponential(data, rate=1.0)
        assert ks < 0.05

    def test_wrong_rate_has_large_statistic(self):
        rng = np.random.default_rng(4)
        data = rng.exponential(scale=1.0, size=4000)
        ks = kolmogorov_smirnov_exponential(data, rate=5.0)
        assert ks > 0.3

    def test_statistic_is_bounded(self):
        ks = kolmogorov_smirnov_exponential([1.0, 2.0, 3.0], rate=0.5)
        assert 0.0 <= ks <= 1.0

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_smirnov_exponential([], rate=1.0)


class TestGoodnessOfFit:
    def test_good_fit_has_small_statistic(self):
        rng = np.random.default_rng(5)
        data = rng.exponential(scale=2.0, size=5000)
        statistic = exponential_goodness_of_fit(data, rate=0.5)
        assert statistic < 0.05

    def test_bad_fit_has_larger_statistic(self):
        rng = np.random.default_rng(6)
        data = rng.uniform(0.0, 4.0, size=5000)
        good = exponential_goodness_of_fit(rng.exponential(2.0, size=5000), rate=0.5)
        bad = exponential_goodness_of_fit(data, rate=0.5)
        assert bad > good

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            exponential_goodness_of_fit([1.0], rate=0.0)

    def test_requires_data(self):
        with pytest.raises(ValueError):
            exponential_goodness_of_fit([], rate=1.0)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_standard_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-4)

    def test_symmetry(self):
        assert normal_quantile(0.3) == pytest.approx(-normal_quantile(0.7), abs=1e-9)

    def test_tails(self):
        assert normal_quantile(1e-6) < -4.0
        assert normal_quantile(1 - 1e-6) > 4.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


class TestMeanConfidenceInterval:
    def test_contains_mean(self):
        mean, lower, upper = mean_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert lower <= mean <= upper
        assert mean == pytest.approx(3.0)

    def test_single_value_degenerate(self):
        mean, lower, upper = mean_confidence_interval([7.0])
        assert mean == lower == upper == 7.0

    def test_wider_confidence_wider_interval(self):
        data = list(np.random.default_rng(7).normal(0, 1, 100))
        _, lower95, upper95 = mean_confidence_interval(data, confidence=0.95)
        _, lower99, upper99 = mean_confidence_interval(data, confidence=0.99)
        assert (upper99 - lower99) > (upper95 - lower95)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
