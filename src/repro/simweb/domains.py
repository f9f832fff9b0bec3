"""Per-domain calibration profiles.

The paper's key empirical finding (Section 3) is that change behaviour is
heavily skewed by domain:

* more than 40% of ``com`` pages changed every day, while fewer than 10% of
  pages in other domains did (Figure 2(b));
* more than 50% of ``edu`` and ``gov`` pages did not change at all during
  the four-month experiment (Figure 2(b));
* it took about 11 days for half of the ``com`` domain to change, versus
  almost four months for ``gov`` (Figure 5(b));
* ``com`` pages were the shortest lived, ``edu``/``gov`` pages the longest
  (Figure 4(b)), with more than 70% of all pages visible for over a month.

Each :class:`DomainProfile` encodes a mixture over change-rate classes and a
lifespan model so that a synthetic web generated from the profiles
reproduces those distributions. Table 1's site mix (132 com, 78 edu,
30 netorg, 30 gov) is also recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.simweb.change_models import ChangeProcess, NeverChanges, PoissonChangeProcess

#: Days per month used throughout the reproduction.
DAYS_PER_MONTH = 30.0


@dataclass(frozen=True)
class RateClass:
    """A change-frequency class: a representative mean change interval (days).

    ``interval_days`` of ``float('inf')`` denotes a page that never changes.
    """

    name: str
    interval_days: float

    @property
    def rate_per_day(self) -> float:
        """Poisson rate corresponding to the representative interval."""
        if self.interval_days == float("inf"):
            return 0.0
        return 1.0 / self.interval_days


#: Representative rate classes matching the Figure 2 buckets. The
#: representative interval of each class sits comfortably inside its bucket
#: so that re-measuring the histogram recovers the intended bucket.
RATE_CLASSES: Tuple[RateClass, ...] = (
    # The "daily" class represents pages the paper found to have "changed
    # whenever we visited them": their true change rate is several times a
    # day, so a daily monitor detects a change at essentially every visit
    # and assigns them to the <= 1 day bucket.
    RateClass("daily", 0.1),          # <= 1 day bucket
    RateClass("weekly", 3.5),         # 1 day .. 1 week bucket
    RateClass("monthly", 15.0),       # 1 week .. 1 month bucket
    RateClass("quarterly", 70.0),     # 1 month .. 4 months bucket
    RateClass("static", float("inf")),  # > 4 months bucket (never changes)
)


@dataclass(frozen=True)
class DomainProfile:
    """Calibrated behaviour of a top-level domain.

    Attributes:
        name: Domain name (``com``, ``edu``, ``netorg``, ``gov``).
        site_count: Number of monitored sites in this domain (Table 1).
        rate_mixture: Probability of each :data:`RATE_CLASSES` entry; sums
            to 1. Calibrated to Figure 2(b).
        permanent_fraction: Fraction of pages that never leave the window
            during the experiment horizon. Calibrated to Figure 4(b).
        mean_lifespan_days: Mean of the exponential lifespan of
            non-permanent pages.
        pages_per_site: Typical number of pages inside the monitoring
            window for sites of this domain (the paper's window was 3,000).
    """

    name: str
    site_count: int
    rate_mixture: Tuple[float, ...]
    permanent_fraction: float
    mean_lifespan_days: float
    pages_per_site: int = 3000

    def __post_init__(self) -> None:
        if len(self.rate_mixture) != len(RATE_CLASSES):
            raise ValueError(
                "rate_mixture must have one weight per rate class "
                f"({len(RATE_CLASSES)} expected, {len(self.rate_mixture)} given)"
            )
        total = sum(self.rate_mixture)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"rate_mixture must sum to 1 (got {total})")
        if not 0.0 <= self.permanent_fraction <= 1.0:
            raise ValueError("permanent_fraction must be within [0, 1]")
        if self.mean_lifespan_days <= 0:
            raise ValueError("mean_lifespan_days must be positive")

    def sample_rate_class(self, rng: np.random.Generator) -> RateClass:
        """Draw a change-rate class according to the calibrated mixture."""
        index = rng.choice(len(RATE_CLASSES), p=np.asarray(self.rate_mixture))
        return RATE_CLASSES[index]

    def sample_change_process(self, rng: np.random.Generator) -> ChangeProcess:
        """Draw a change process for a new page of this domain.

        The representative interval of the sampled class is jittered by a
        small multiplicative factor so that pages are not all identical,
        while staying inside the intended Figure 2 bucket.
        """
        rate_class = self.sample_rate_class(rng)
        if rate_class.interval_days == float("inf"):
            return NeverChanges()
        jitter = rng.uniform(0.85, 1.15)
        return PoissonChangeProcess(1.0 / (rate_class.interval_days * jitter))

    def expected_daily_fraction(self) -> float:
        """Fraction of pages expected to land in the '<= 1 day' bucket."""
        return self.rate_mixture[0]

    def expected_static_fraction(self) -> float:
        """Fraction of pages expected to land in the '> 4 months' bucket."""
        return self.rate_mixture[-1]


#: Calibrated profiles. The rate mixtures reproduce Figure 2(b): the bars
#: are, in order, (<=1day, <=1week, <=1month, <=4months, >4months).
DOMAIN_PROFILES: Dict[str, DomainProfile] = {
    "com": DomainProfile(
        name="com",
        site_count=132,
        rate_mixture=(0.42, 0.17, 0.15, 0.11, 0.15),
        permanent_fraction=0.30,
        mean_lifespan_days=45.0,
    ),
    "netorg": DomainProfile(
        name="netorg",
        site_count=30,
        rate_mixture=(0.09, 0.14, 0.20, 0.22, 0.35),
        permanent_fraction=0.40,
        mean_lifespan_days=70.0,
    ),
    "edu": DomainProfile(
        name="edu",
        site_count=78,
        rate_mixture=(0.03, 0.06, 0.12, 0.24, 0.55),
        permanent_fraction=0.55,
        mean_lifespan_days=100.0,
    ),
    "gov": DomainProfile(
        name="gov",
        site_count=30,
        rate_mixture=(0.02, 0.05, 0.10, 0.27, 0.56),
        permanent_fraction=0.58,
        mean_lifespan_days=110.0,
    ),
}

#: Order in which the paper lists the domains in Table 1.
DOMAIN_ORDER: Sequence[str] = ("com", "edu", "netorg", "gov")


def profile_for(domain: str) -> DomainProfile:
    """Return the calibrated profile for ``domain``.

    Raises:
        KeyError: If the domain is not one of com/edu/netorg/gov.
    """
    try:
        return DOMAIN_PROFILES[domain]
    except KeyError as error:
        known = ", ".join(sorted(DOMAIN_PROFILES))
        raise KeyError(f"unknown domain {domain!r}; known domains: {known}") from error


def sample_calibrated_rates(
    n_pages: int, seed: Union[int, np.random.Generator] = 5
) -> List[float]:
    """Draw page change rates from the calibrated per-domain mixtures.

    Each domain contributes pages in proportion to its Table 1 site share,
    and each page draws a representative rate-class rate from the domain's
    Figure 2(b) mixture. This is the shared population sampler behind the
    ``revisit-policies`` scenario and the Section 4.3 scheduling claims in
    ``tests/test_integration_paper_claims.py``.

    Args:
        n_pages: Approximate population size (per-domain rounding can move
            the total by a page or two).
        seed: Seed, or an existing generator to draw from.

    Returns:
        Change rates in changes per day (0.0 for the static class).
    """
    if n_pages < 1:
        raise ValueError("n_pages must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    total_sites = sum(p.site_count for p in DOMAIN_PROFILES.values())
    rates: List[float] = []
    for profile in DOMAIN_PROFILES.values():
        share = profile.site_count / total_sites
        for _ in range(int(round(n_pages * share))):
            rate_class = RATE_CLASSES[
                rng.choice(len(RATE_CLASSES), p=np.asarray(profile.rate_mixture))
            ]
            rates.append(rate_class.rate_per_day)
    return rates
