"""Oracle for the optimal-allocation solver: every water-level step at full depth.

A verbatim copy of the vectorised ``optimal_revisit_frequencies`` (and its
inner array bisection) as it stood before outer steps learned to stop once
the bracket sums settle the budget side. It runs every inner bisection to
full depth, so it is the reference the early-stopping solver in
``repro.freshness.optimal_allocation`` must match exactly (``==``), and the
baseline its inner-pass count is compared against. Only the input
conversion is trimmed: callers pass valid inputs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

_RATE_EPSILON = 1e-12
_FREQ_LOW = 1e-12
_FREQ_CAP = 1e12
_BISECTION_ITERS = 200


def optimal_revisit_frequencies(
    rates: Sequence[float],
    budget: float,
    weights: Optional[Sequence[float]] = None,
    tolerance: float = 1e-9,
) -> List[float]:
    rate_array = np.asarray(rates, dtype=float)
    weight_array = (
        np.ones(rate_array.size) if weights is None else np.asarray(weights, dtype=float)
    )
    n = rate_array.size
    if n == 0:
        return []

    changing = (rate_array > _RATE_EPSILON) & (weight_array > 0)
    if not changing.any():
        return [0.0] * n

    active_rates = rate_array[changing]
    active_weights = weight_array[changing]

    # The marginal value of the first unit of bandwidth for page i is
    # weights[i] / rates[i]; mu must lie below the largest such value for any
    # page to receive bandwidth at all.
    mu_high = float((active_weights / active_rates).max())
    mu_low = 0.0

    def allocation_for(mu: float) -> np.ndarray:
        frequencies = np.zeros(n)
        frequencies[changing] = _frequencies_for_marginal_array(
            active_rates, active_weights, mu
        )
        return frequencies

    # total is decreasing in mu: bisect for the water level that exhausts
    # the budget. As mu -> 0+ the total grows without bound, so mu_low always
    # ends up on the over-budget side and mu_high on the under-budget side.
    for _ in range(_BISECTION_ITERS):
        mu_mid = 0.5 * (mu_low + mu_high)
        if mu_mid <= 0:
            break
        total = float(allocation_for(mu_mid).sum())
        if abs(total - budget) <= tolerance * max(1.0, budget):
            mu_low = mu_high = mu_mid
            break
        if total > budget:
            mu_low = mu_mid
        else:
            mu_high = mu_mid

    frequencies = allocation_for(mu_high if mu_high > 0 else mu_low)
    leftover = budget - float(frequencies.sum())
    if leftover > tolerance * max(1.0, budget) and mu_low > 0:
        # Degenerate (but common) case: some page's marginal freshness is flat
        # at exactly the water level — its frequency jumps discontinuously as
        # mu crosses 1/rate, so bisection alone cannot hit the budget. The
        # KKT-optimal completion gives the leftover budget to exactly those
        # pages, capped at their allocation just below the water level.
        capacity = allocation_for(mu_low) - frequencies
        order = np.argsort(-capacity, kind="stable")
        caps = capacity[order]
        already_given = np.cumsum(caps) - caps
        extras = np.clip(leftover - already_given, 0.0, caps)
        frequencies[order] += extras

    # Normalise residual numerical drift so the budget is met exactly.
    total = float(frequencies.sum())
    if total > 0:
        frequencies *= budget / total
    return frequencies.tolist()


def _marginal_freshness_array(rates: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
    """Elementwise ``dF/df`` for positive rates and frequencies."""
    x = rates / frequencies
    decay = np.exp(-x)
    return (1.0 - decay) / rates - decay / frequencies


def _frequencies_for_marginal_array(
    rates: np.ndarray, weights: np.ndarray, mu: float
) -> np.ndarray:
    """Solve ``weight * dF/df(rate, f) = mu`` for every page at once.

    Array counterpart of :func:`_frequency_for_marginal`: pages whose first
    marginal unit of bandwidth is already worth less than ``mu`` get 0; the
    rest are solved together by array bisection with the same bracket
    growth and iteration count as the scalar reference.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    frequencies = np.zeros(rates.size)
    funded = mu < weights / rates
    if not funded.any():
        return frequencies
    rate = rates[funded]
    target = mu / weights[funded]

    def gap_positive(freq: np.ndarray) -> np.ndarray:
        return _marginal_freshness_array(rate, freq) - target > 0

    low = np.full(rate.shape, _FREQ_LOW)
    high = np.maximum(rate, 1.0)
    growing = np.ones(rate.shape, dtype=bool)
    while True:
        need = growing & gap_positive(high)
        if not need.any():
            break
        high[need] *= 2.0
        growing &= high <= _FREQ_CAP
    for _ in range(_BISECTION_ITERS):
        mid = 0.5 * (low + high)
        if ((mid == low) | (mid == high)).all():
            # Every bracket has collapsed to adjacent floats: further
            # iterations are bit-exact no-ops, so stopping early returns
            # the same answer the full iteration count would.
            break
        above = gap_positive(mid)
        low = np.where(above, mid, low)
        high = np.where(above, high, mid)
    frequencies[funded] = 0.5 * (low + high)
    return frequencies
