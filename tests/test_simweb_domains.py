"""Tests for repro.simweb.domains."""

import numpy as np
import pytest

from repro.simweb.change_models import NeverChanges, PoissonChangeProcess
from repro.simweb.domains import (
    DOMAIN_ORDER,
    DOMAIN_PROFILES,
    RATE_CLASSES,
    DomainProfile,
    profile_for,
)


class TestRateClasses:
    def test_five_classes_match_figure2_buckets(self):
        assert len(RATE_CLASSES) == 5

    def test_static_class_has_zero_rate(self):
        assert RATE_CLASSES[-1].rate_per_day == 0.0

    def test_rates_decrease_with_interval(self):
        rates = [c.rate_per_day for c in RATE_CLASSES]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestDomainProfiles:
    def test_table1_site_counts(self):
        assert DOMAIN_PROFILES["com"].site_count == 132
        assert DOMAIN_PROFILES["edu"].site_count == 78
        assert DOMAIN_PROFILES["netorg"].site_count == 30
        assert DOMAIN_PROFILES["gov"].site_count == 30

    def test_total_sites_is_270(self):
        assert sum(p.site_count for p in DOMAIN_PROFILES.values()) == 270

    def test_mixtures_sum_to_one(self):
        for profile in DOMAIN_PROFILES.values():
            assert sum(profile.rate_mixture) == pytest.approx(1.0)

    def test_com_changes_most(self):
        """Figure 2(b): more than 40% of com pages change daily, <10% elsewhere."""
        assert DOMAIN_PROFILES["com"].expected_daily_fraction() > 0.4
        for domain in ("edu", "gov", "netorg"):
            assert DOMAIN_PROFILES[domain].expected_daily_fraction() < 0.1

    def test_edu_gov_mostly_static(self):
        """Figure 2(b): more than half of edu/gov pages never changed."""
        assert DOMAIN_PROFILES["edu"].expected_static_fraction() > 0.5
        assert DOMAIN_PROFILES["gov"].expected_static_fraction() > 0.5

    def test_com_pages_shortest_lived(self):
        """Figure 4(b): com pages have the shortest lifespans."""
        com = DOMAIN_PROFILES["com"]
        for domain in ("edu", "gov", "netorg"):
            other = DOMAIN_PROFILES[domain]
            assert com.mean_lifespan_days < other.mean_lifespan_days
            assert com.permanent_fraction < other.permanent_fraction

    def test_domain_order_matches_table1(self):
        assert list(DOMAIN_ORDER) == ["com", "edu", "netorg", "gov"]

    def test_profile_for_unknown_domain(self):
        with pytest.raises(KeyError):
            profile_for("xyz")

    def test_profile_for_known_domain(self):
        assert profile_for("com") is DOMAIN_PROFILES["com"]


class TestDomainProfileValidation:
    def test_mixture_length_checked(self):
        with pytest.raises(ValueError):
            DomainProfile("x", 1, (0.5, 0.5), 0.5, 10.0)

    def test_mixture_sum_checked(self):
        with pytest.raises(ValueError):
            DomainProfile("x", 1, (0.5, 0.2, 0.1, 0.1, 0.3), 0.5, 10.0)

    def test_permanent_fraction_checked(self):
        with pytest.raises(ValueError):
            DomainProfile("x", 1, (0.2, 0.2, 0.2, 0.2, 0.2), 1.5, 10.0)

    def test_lifespan_checked(self):
        with pytest.raises(ValueError):
            DomainProfile("x", 1, (0.2, 0.2, 0.2, 0.2, 0.2), 0.5, -1.0)


class TestSampling:
    def test_sample_change_process_types(self, rng):
        profile = DOMAIN_PROFILES["com"]
        processes = [profile.sample_change_process(rng) for _ in range(200)]
        assert any(isinstance(p, NeverChanges) for p in processes)
        assert any(isinstance(p, PoissonChangeProcess) for p in processes)

    def test_sampled_mixture_matches_profile(self, rng):
        profile = DOMAIN_PROFILES["edu"]
        samples = [profile.sample_rate_class(rng) for _ in range(5000)]
        static_fraction = sum(1 for s in samples if s.name == "static") / len(samples)
        assert static_fraction == pytest.approx(profile.rate_mixture[-1], abs=0.03)

    def test_com_sampled_rates_higher_than_gov(self, rng):
        com_rates = [
            DOMAIN_PROFILES["com"].sample_change_process(rng).mean_rate
            for _ in range(2000)
        ]
        gov_rates = [
            DOMAIN_PROFILES["gov"].sample_change_process(rng).mean_rate
            for _ in range(2000)
        ]
        assert np.mean(com_rates) > np.mean(gov_rates)
