"""Closed-form freshness under the Poisson change model.

These formulas generate Figures 7 and 8 and Table 2. They follow the
freshness framework of [CGM99b] ("Synchronizing a database to improve
freshness"), which the paper uses but does not re-derive "due to space
constraints"; we derive them here and cross-check them against the
discrete-event simulator in the integration tests.

Setting: every page changes according to a Poisson process with rate
``lambda`` (changes per day); the crawler re-fetches every page once per
cycle of length ``T`` days. A stored copy fetched ``x`` days ago is still
fresh with probability ``exp(-lambda * x)``.

**In-place update (steady or batch).** Each page is refreshed exactly every
``T`` days and the refreshed copy is immediately visible, so the
time-averaged freshness is

    F = (1 - exp(-lambda*T)) / (lambda*T).

Both the steady and the batch-mode crawler obtain this value, which is the
paper's observation that "their freshness averaged over time is the same, if
they visit pages at the same average speed".

**Steady crawler with shadowing.** The crawler's collection is rebuilt from
scratch over each cycle (pages fetched uniformly over ``[0, T]``); the
current collection is swapped at the end of the cycle and then serves users,
unchanged, for the next ``T`` days. Averaging the copy age over both the
fetch phase and the serving phase gives

    F = [ (1 - exp(-lambda*T)) / (lambda*T) ]^2.

**Batch crawler with shadowing.** The crawl is compressed into the first
``a`` days of the cycle (the paper uses one week of a one-month cycle);
copies are fetched uniformly over ``[0, a]``, swapped in at time ``a`` and
served for ``T`` days:

    F = [ (1 - exp(-lambda*a)) / (lambda*a) ] * [ (1 - exp(-lambda*T)) / (lambda*T) ].

With the paper's parameters (mean change interval four months, monthly
cycle, one-week batch) these give 0.88 / 0.88 / 0.78 / 0.86 for
steady-in-place / batch-in-place / steady-shadow / batch-shadow — Table 2
reports 0.88 / 0.88 / 0.77 / 0.86.

The instantaneous-freshness functions below give the trajectories plotted in
Figures 7 and 8.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple


class CrawlMode(enum.Enum):
    """Batch-mode versus steady crawling (Section 4, design choice 1)."""

    STEADY = "steady"
    BATCH = "batch"


class UpdateMode(enum.Enum):
    """In-place update versus shadowing (Section 4, design choice 2)."""

    IN_PLACE = "in_place"
    SHADOW = "shadow"


@dataclass(frozen=True)
class CrawlPolicy:
    """A crawl-policy combination analysed in Section 4.

    Attributes:
        crawl_mode: Steady or batch-mode crawling.
        update_mode: In-place update or shadowing.
        cycle_days: Length of one crawl cycle (every page is re-fetched once
            per cycle).
        batch_duration_days: For a batch crawler, the active crawling window
            at the start of each cycle; ignored for steady crawlers (where
            the crawl is spread over the whole cycle).
    """

    crawl_mode: CrawlMode
    update_mode: UpdateMode
    cycle_days: float
    batch_duration_days: float = 7.0

    def __post_init__(self) -> None:
        if self.cycle_days <= 0:
            raise ValueError("cycle_days must be positive")
        if self.crawl_mode is CrawlMode.BATCH:
            if not 0 < self.batch_duration_days <= self.cycle_days:
                raise ValueError(
                    "batch_duration_days must be in (0, cycle_days] for a batch crawler"
                )

    @property
    def active_duration_days(self) -> float:
        """Days per cycle during which the crawler fetches pages."""
        if self.crawl_mode is CrawlMode.STEADY:
            return self.cycle_days
        return self.batch_duration_days

    def label(self) -> str:
        """Human-readable label, e.g. ``"steady / in-place"``."""
        crawl = self.crawl_mode.value
        update = "in-place" if self.update_mode is UpdateMode.IN_PLACE else "shadowing"
        return f"{crawl} / {update}"


# --------------------------------------------------------------------- #
# Per-page building blocks
# --------------------------------------------------------------------- #
def _effectively_static(rate: float, *spans: float) -> bool:
    """True when ``rate`` is zero or so small that ``rate * span`` underflows.

    Denormal rates (e.g. 5e-324) make products like ``lam * a`` underflow to
    exactly 0.0, which would divide by zero in the closed-form expressions;
    such a page changes once per ~1e300 days, i.e. never.
    """
    return rate == 0.0 or any(rate * span == 0.0 for span in spans)


def expected_freshness_periodic(rate: float, revisit_interval: float) -> float:
    """Time-averaged freshness of a page revisited every ``revisit_interval`` days.

    Args:
        rate: Poisson change rate (changes per day). Zero means the page
            never changes, so its copy is always fresh.
        revisit_interval: Days between successive re-fetches; ``inf`` means
            the page is never revisited.

    Returns:
        Freshness in [0, 1]: ``(1 - exp(-rate * I)) / (rate * I)``.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if revisit_interval <= 0:
        raise ValueError("revisit_interval must be positive")
    if rate == 0.0:
        return 1.0
    if math.isinf(revisit_interval):
        return 0.0
    x = rate * revisit_interval
    if x == 0.0:
        return 1.0
    # -expm1(-x) = 1 - exp(-x) without cancellation for small x, which keeps
    # the result within [0, 1] even for near-zero rates.
    return -math.expm1(-x) / x


def expected_age_periodic(rate: float, revisit_interval: float) -> float:
    """Time-averaged age (days out of date) of a periodically revisited page.

    ``Age(t) = t - (1 - exp(-rate*t)) / rate`` at ``t`` days after a
    re-fetch; averaging over a cycle of length ``I`` gives
    ``I/2 - 1/rate + (1 - exp(-rate*I)) / (rate^2 * I)``.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if revisit_interval <= 0:
        raise ValueError("revisit_interval must be positive")
    if rate == 0.0:
        return 0.0
    if math.isinf(revisit_interval):
        return float("inf")
    x = rate * revisit_interval
    # The closed form I*(1/2 - 1/x + (1 - e^{-x})/x^2) cancels three
    # O(1/x)-sized terms down to an O(x) result, which loses all precision
    # (and can divide by an underflowed product) for small x; switch to the
    # series I*(x/6 - x^2/24 + x^3/120 - x^4/720 + ...) there.
    if x <= 1e-2:
        return revisit_interval * x * (
            1.0 / 6.0 - x / 24.0 + x * x / 120.0 - x * x * x / 720.0
        )
    return revisit_interval * (0.5 - 1.0 / x - math.expm1(-x) / (x * x))


def expected_freshness_poisson_revisit(rate: float, revisit_rate: float) -> float:
    """Time-averaged freshness when revisits themselves are Poisson events.

    When the crawler revisits a page at exponentially distributed intervals
    with rate ``f`` (instead of a fixed period), the stationary freshness is
    ``f / (f + lambda)``. Provided for the ablation comparing scheduling
    disciplines.
    """
    if rate < 0 or revisit_rate < 0:
        raise ValueError("rates must be non-negative")
    if rate == 0.0:
        return 1.0
    if revisit_rate == 0.0:
        return 0.0
    return revisit_rate / (revisit_rate + rate)


# --------------------------------------------------------------------- #
# Time-averaged freshness of the four policy combinations
# --------------------------------------------------------------------- #
def time_averaged_freshness(policy: CrawlPolicy, rate: float) -> float:
    """Time-averaged freshness of the *current* collection for one page.

    Args:
        policy: The crawl-policy combination.
        rate: The page's Poisson change rate (changes per day).

    Returns:
        The expected freshness in [0, 1] (Table 2 entries are this value
        computed at the paper's parameters).
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if rate == 0.0:
        return 1.0
    cycle_term = expected_freshness_periodic(rate, policy.cycle_days)
    if policy.update_mode is UpdateMode.IN_PLACE:
        return cycle_term
    if policy.crawl_mode is CrawlMode.STEADY:
        return cycle_term * cycle_term
    batch_term = expected_freshness_periodic(rate, policy.batch_duration_days)
    return batch_term * cycle_term


# --------------------------------------------------------------------- #
# Instantaneous freshness trajectories (Figures 7 and 8)
# --------------------------------------------------------------------- #
def steady_inplace_freshness_at(t: float, rate: float, cycle_days: float) -> float:
    """Instantaneous freshness of a steady, in-place crawler's collection.

    In steady state the refresh phases of the pages are uniformly spread
    over the cycle, so the expected freshness is constant in time and equals
    the time average — the flat curve of Figure 7(b).
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    return expected_freshness_periodic(rate, cycle_days)


def batch_inplace_freshness_at(
    t: float, rate: float, cycle_days: float, batch_duration_days: float
) -> float:
    """Instantaneous freshness of a batch-mode, in-place crawler's collection.

    During the crawling window freshness climbs as pages are re-fetched;
    during the idle remainder of the cycle it decays exponentially — the
    saw-tooth of Figure 7(a).
    """
    _validate_batch(cycle_days, batch_duration_days)
    if t < 0:
        raise ValueError("t must be non-negative")
    if _effectively_static(rate, batch_duration_days):
        return 1.0
    a = batch_duration_days
    big_t = cycle_days
    tau = t % big_t
    m = min(tau, a)
    lam = rate
    # All exponents are kept non-positive to avoid overflow for high rates:
    # e^{-lam*tau}(e^{lam*m}-1) == e^{-lam*(tau-m)} - e^{-lam*tau}, etc.
    refreshed = math.exp(-lam * (tau - m)) - math.exp(-lam * tau)
    stale = math.exp(-lam * (tau + big_t - a)) - math.exp(-lam * (tau + big_t - m))
    return _clamp_freshness((refreshed + stale) / (lam * a))


def steady_shadow_freshness_at(
    t: float, rate: float, cycle_days: float, collection: str = "current"
) -> float:
    """Instantaneous freshness of a steady crawler that shadows its collection.

    Args:
        t: Virtual time (days) since the start of a cycle boundary.
        rate: Page change rate.
        cycle_days: Cycle length; the current collection is swapped at each
            cycle boundary.
        collection: ``"current"`` for the user-visible collection (bottom
            curve of Figure 8(a)) or ``"crawler"`` for the shadow collection
            being built (top curve).
    """
    _validate_collection(collection)
    if t < 0:
        raise ValueError("t must be non-negative")
    if _effectively_static(rate, cycle_days):
        return 1.0 if collection == "current" else min(1.0, (t % cycle_days) / cycle_days)
    lam = rate
    big_t = cycle_days
    tau = t % big_t
    if collection == "crawler":
        return _clamp_freshness(-math.expm1(-lam * tau) / (lam * big_t))
    return _clamp_freshness(
        math.exp(-lam * tau) * -math.expm1(-lam * big_t) / (lam * big_t)
    )


def batch_shadow_freshness_at(
    t: float,
    rate: float,
    cycle_days: float,
    batch_duration_days: float,
    collection: str = "current",
) -> float:
    """Instantaneous freshness of a batch crawler that shadows its collection.

    The shadow collection grows from zero during the crawl window; the
    current collection is replaced when the crawl finishes (at phase ``a``)
    and then decays for a full cycle — Figure 8(b).
    """
    _validate_batch(cycle_days, batch_duration_days)
    _validate_collection(collection)
    if t < 0:
        raise ValueError("t must be non-negative")
    a = batch_duration_days
    big_t = cycle_days
    tau = t % big_t
    if _effectively_static(rate, batch_duration_days):
        if collection == "crawler":
            return min(1.0, tau / a)
        return 1.0
    lam = rate
    # e^{-lam*x}(e^{lam*a}-1) is evaluated as e^{-lam*(x-a)} - e^{-lam*x} so
    # that no positive exponent is ever computed (x >= a in every branch).
    if collection == "crawler":
        if tau <= a:
            return _clamp_freshness(-math.expm1(-lam * tau) / (lam * a))
        return _clamp_freshness(
            (math.exp(-lam * (tau - a)) - math.exp(-lam * tau)) / (lam * a)
        )
    if tau >= a:
        return _clamp_freshness(
            (math.exp(-lam * (tau - a)) - math.exp(-lam * tau)) / (lam * a)
        )
    return _clamp_freshness(
        (math.exp(-lam * (tau + big_t - a)) - math.exp(-lam * (tau + big_t))) / (lam * a)
    )


def freshness_at(
    policy: CrawlPolicy, t: float, rate: float, collection: str = "current"
) -> float:
    """Instantaneous freshness under ``policy`` at time ``t`` for one page.

    Dispatches to the four trajectory functions above. For in-place policies
    the ``collection`` argument is ignored (there is only one collection).
    """
    if policy.update_mode is UpdateMode.IN_PLACE:
        if policy.crawl_mode is CrawlMode.STEADY:
            return steady_inplace_freshness_at(t, rate, policy.cycle_days)
        return batch_inplace_freshness_at(
            t, rate, policy.cycle_days, policy.batch_duration_days
        )
    if policy.crawl_mode is CrawlMode.STEADY:
        return steady_shadow_freshness_at(t, rate, policy.cycle_days, collection)
    return batch_shadow_freshness_at(
        t, rate, policy.cycle_days, policy.batch_duration_days, collection
    )


def freshness_trajectory(
    policy: CrawlPolicy,
    rate: float,
    duration_days: float,
    n_points: int = 200,
    collection: str = "current",
) -> Tuple[List[float], List[float]]:
    """Sampled freshness trajectory under ``policy`` (Figures 7 and 8).

    Args:
        policy: The crawl-policy combination.
        rate: Page change rate.
        duration_days: Length of the plotted time axis.
        n_points: Number of evenly spaced samples.
        collection: ``"current"`` or ``"crawler"`` (shadowing policies only).

    Returns:
        ``(times, freshness_values)`` lists of equal length.
    """
    if duration_days <= 0:
        raise ValueError("duration_days must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    times = [duration_days * i / (n_points - 1) for i in range(n_points)]
    values = [freshness_at(policy, t, rate, collection) for t in times]
    return times, values


def _clamp_freshness(value: float) -> float:
    """Clamp a freshness value to [0, 1] (guards against rounding noise)."""
    return min(1.0, max(0.0, value))


def _validate_batch(cycle_days: float, batch_duration_days: float) -> None:
    if cycle_days <= 0:
        raise ValueError("cycle_days must be positive")
    if not 0 < batch_duration_days <= cycle_days:
        raise ValueError("batch_duration_days must be in (0, cycle_days]")


def _validate_collection(collection: str) -> None:
    if collection not in ("current", "crawler"):
        raise ValueError('collection must be "current" or "crawler"')
