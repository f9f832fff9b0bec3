"""Freshness-optimal allocation of revisit frequencies (Figure 9).

Section 4 (design choice 3) argues, following [CGM99b], that the revisit
frequency of a page should *not* simply be proportional to its change
frequency: pages that change extremely often are not worth revisiting at
all, because their copy goes stale almost immediately no matter what.

Formally: pages ``i = 1..n`` change with Poisson rates ``lambda_i``; the
crawler can afford a total revisit budget ``B`` (page fetches per day,
``sum f_i = B``). Revisiting page ``i`` every ``1/f_i`` days yields
time-averaged freshness

    F(lambda, f) = (f / lambda) * (1 - exp(-lambda / f)),       f > 0
    F(lambda, 0) = 0  (for lambda > 0),   F(0, f) = 1.

``F`` is concave and increasing in ``f``, so the optimal allocation follows
from the Karush-Kuhn-Tucker conditions: there is a water level ``mu > 0``
such that each page either satisfies ``dF/df(lambda_i, f_i) = mu`` or gets
``f_i = 0`` when even the first marginal unit of bandwidth is worth less
than ``mu`` (which happens exactly when ``1/lambda_i < mu``, i.e. for pages
that change too often). Solving ``f_i(mu)`` per page and bisecting on ``mu``
to exhaust the budget gives the allocation; the resulting ``f(lambda)``
curve is the unimodal shape of Figure 9.

The same machinery supports per-page importance weights (Section 5.3 notes
the UpdateModule "may need to consult the importance of a page in deciding
on revisit frequency"): maximising ``sum w_i F(lambda_i, f_i)`` simply
replaces the marginal-value condition by ``w_i * dF/df = mu``.

The solver is vectorized: ``f_i(mu)`` is found for *all* pages at once by
array bisection, so each step of the outer water-level search is a handful
of NumPy passes instead of a 200-iteration scalar bisection per page. The
original scalar solver is kept as a test oracle in
``tests/reference/kernels.py``.

Pages that share a ``(rate, weight)`` pair solve to the same frequency, and
the crawler's pages share few pairs: EP's estimate is a function of a
page's visit and change counts, and pages without one share the default
or the floor rate. So the bisection runs on the ``m`` distinct pairs, pair
``j`` standing for ``c_j`` pages, and its answers are scattered back.

Each outer step only asks on which side of the budget the total at ``mu``
lands, and the inner bisection usually settles that long before its
brackets collapse, so a step stops as soon as the answer is certain:

* After any number of inner levels, every funded page's final frequency
  ``0.5 * (low + high)`` lies inside its pair's current bracket
  ``[low, high]`` (brackets only shrink, and a float midpoint never leaves
  its bracket), so the exact final sum ``S`` lies in
  ``[c . low, c . high]``.
* A float sum of ``k`` non-negative terms is within ``k * eps / 2`` of
  the exact sum, relatively (``eps = 2**-52``), and so is a float dot
  product of ``m <= k`` such terms (at most ``m`` roundings per term). Paying
  that once for the bracket bound and once for the final total
  ``fl(sum f)``, the total is at most ``fl(c . high) * (1 + 4 k eps)``
  and at least ``fl(c . low) / (1 + 4 k eps)``, with ``k`` the funded
  *page* count (unfunded pages add exact zeros); the factor 4 covers
  second-order terms and the rounding of the scaled bound itself.
* The outer step's test — ``abs(total - budget) <= slack``, else
  ``total > budget`` — sorts totals into three ordered bands (under, on,
  over), because ``fl(total - budget)`` is monotone in ``total``. So when
  the upper bound already falls in "under", or the lower bound in
  "over", the finished total would too, and the step returns that side.

A sound bound only decides *when* a step may stop, never *which* side it
reports. Each pair's bisection depends on that pair alone (the growth
loop's ``any`` and the collapse test's ``all`` see the same set of values
however many pages hold it), and a step that runs to full depth scatters
its answers to all ``n`` pages before its exact sum, so every sum that
decides anything (a step's side, the leftover completion, the final
normalisation) is the same ``n``-long sum in the same order as solving
each page alone. So every ``mu`` decision and the returned frequencies
are bit-identical to solving every page at every step to full depth.
Only a step too close to the budget for even collapsed brackets to tell
— in practice the one that ends the search inside ``slack`` — runs all
levels, and its allocation is reused as the final one.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Rates below this threshold are treated as "never changes"; it avoids
#: numerical underflow for denormal inputs and has no practical effect (the
#: threshold corresponds to one change per ~3 billion years).
_RATE_EPSILON = 1e-12

#: Bracket bounds of the per-page frequency bisection (fetches per day).
_FREQ_LOW = 1e-12
_FREQ_CAP = 1e12

#: Iterations of each bisection; 200 halvings drive the bracket far below
#: any meaningful tolerance.
_BISECTION_ITERS = 200

#: Relative float-sum error margin, per funded page, of the bracket-sum
#: bounds that let an outer water-level step stop early (module docstring).
_SUM_ERROR_PER_TERM = 4 * float(np.finfo(float).eps)


def page_freshness(rate: float, frequency: float) -> float:
    """Time-averaged freshness of one page revisited ``frequency`` times/day."""
    if rate < 0 or frequency < 0:
        raise ValueError("rate and frequency must be non-negative")
    if rate <= _RATE_EPSILON:
        return 1.0
    if frequency == 0.0:
        return 0.0
    x = rate / frequency
    if x <= _RATE_EPSILON:
        return 1.0
    return -math.expm1(-x) / x


def marginal_freshness(rate: float, frequency: float) -> float:
    """Derivative of :func:`page_freshness` with respect to the frequency.

    ``dF/df = (1/lambda)(1 - exp(-lambda/f)) - exp(-lambda/f)/f``; the limit
    as ``f -> 0+`` is ``1/lambda`` and the function decreases to 0.
    """
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if rate <= _RATE_EPSILON:
        return 0.0
    if frequency <= 0.0:
        return 1.0 / rate
    x = rate / frequency
    return (1.0 - math.exp(-x)) / rate - math.exp(-x) / frequency


def total_freshness(
    rates: Sequence[float],
    frequencies: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> float:
    """Weighted average freshness of a page population under an allocation.

    Args:
        rates: Per-page change rates.
        frequencies: Per-page revisit frequencies (same length as ``rates``).
        weights: Optional per-page importance weights; uniform when omitted.

    Returns:
        ``sum w_i F_i / sum w_i``.
    """
    if len(rates) != len(frequencies):
        raise ValueError("rates and frequencies must have the same length")
    if len(rates) == 0:
        return 0.0
    if weights is None:
        weights = [1.0] * len(rates)
    if len(weights) != len(rates):
        raise ValueError("weights must have the same length as rates")
    total_weight = sum(weights)
    if total_weight <= 0:
        raise ValueError("weights must sum to a positive value")
    return (
        sum(w * page_freshness(r, f) for w, r, f in zip(weights, rates, frequencies))
        / total_weight
    )


def uniform_revisit_frequencies(rates: Sequence[float], budget: float) -> List[float]:
    """Every page gets the same revisit frequency (the fixed-frequency policy)."""
    _validate_budget(rates, budget)
    if len(rates) == 0:
        return []
    return [budget / len(rates)] * len(rates)


def proportional_revisit_frequencies(rates: Sequence[float], budget: float) -> List[float]:
    """Revisit frequency proportional to the change rate.

    This is the intuitive-but-suboptimal policy the paper warns about. Pages
    that never change receive no visits; if no page changes at all, the
    budget is spread uniformly.
    """
    _validate_budget(rates, budget)
    if len(rates) == 0:
        return []
    total_rate = float(sum(rates))
    if total_rate == 0.0:
        return uniform_revisit_frequencies(rates, budget)
    return [budget * float(rate) / total_rate for rate in rates]


def optimal_revisit_frequencies(
    rates: Sequence[float],
    budget: float,
    weights: Optional[Sequence[float]] = None,
    tolerance: float = 1e-9,
) -> List[float]:
    """Freshness-optimal revisit frequencies under a total budget.

    Args:
        rates: Per-page Poisson change rates (changes per day, not NaN);
            any sequence or NumPy array. An infinite rate gets frequency 0.
        budget: Total revisit budget (page fetches per day); must be
            finite, and positive when there is at least one page.
        weights: Optional finite importance weights; the allocation then
            maximises the weighted freshness sum.
        tolerance: Relative tolerance of the budget bisection.

    Returns:
        Per-page revisit frequencies summing to ``budget`` (up to the
        tolerance). Pages with rate 0 always get frequency 0 (their copy is
        fresh forever); pages that change too fast relative to the budget
        may also get frequency 0, which is the Figure 9 effect.
    """
    rate_array, weight_array = _as_rate_and_weight_arrays(rates, budget, weights)
    n = rate_array.size
    if n == 0:
        return []

    # An infinite rate is never worth a visit (its first unit is worth 0).
    changing = (rate_array > _RATE_EPSILON) & (rate_array < math.inf) & (weight_array > 0)
    if not changing.any():
        return [0.0] * n

    # Pages sharing a (rate, weight) pair solve to the same frequency, so
    # each distinct pair is solved once and scattered back to its pages. A
    # complex key ``rate + i * weight`` makes the pairs one sortable column.
    keys = rate_array[changing]
    if weights is not None:
        keys = keys + 1j * weight_array[changing]
    pairs, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    pair_rates = np.ascontiguousarray(pairs.real)
    pair_weights = np.ones(pairs.size) if weights is None else pairs.imag.copy()
    counts = counts.astype(float)

    # The marginal value of the first unit of bandwidth for page i is
    # weights[i] / rates[i]; mu must lie below the largest such value for any
    # page to receive bandwidth at all.
    mu_high = float((pair_weights / pair_rates).max())
    mu_low = 0.0
    slack = tolerance * max(1.0, budget)

    def budget_side(total: float) -> int:
        """0 when ``total`` meets the budget, else +1 over / -1 under it."""
        if abs(total - budget) <= slack:
            return 0
        return 1 if total > budget else -1

    def allocation_for(mu: float, side_of: Optional[Callable[[float], int]] = None):
        """``(side, frequencies)`` at ``mu``; see :func:`_bisect_frequencies`."""
        side, solved = _bisect_frequencies(pair_rates, pair_weights, mu, counts, side_of)
        if solved is None:
            return side, None
        frequencies = np.zeros(n)
        frequencies[changing] = solved[inverse]
        if side_of is not None:
            side = side_of(float(frequencies.sum()))
        return side, frequencies

    # total is decreasing in mu: bisect for the water level that exhausts
    # the budget. As mu -> 0+ the total grows without bound, so mu_low always
    # ends up on the over-budget side and mu_high on the under-budget side.
    # A step only needs the side of the budget its total lands on; the
    # allocation of a step that had to finish is kept for the end.
    low_allocation = high_allocation = None
    for _ in range(_BISECTION_ITERS):
        mu_mid = 0.5 * (mu_low + mu_high)
        if mu_mid <= 0:
            break
        side, frequencies = allocation_for(mu_mid, budget_side)
        if side == 0:
            mu_low = mu_high = mu_mid
            low_allocation = high_allocation = frequencies
            break
        if side > 0:
            mu_low, low_allocation = mu_mid, frequencies
        else:
            mu_high, high_allocation = mu_mid, frequencies

    if mu_high > 0:
        mu_final, frequencies = mu_high, high_allocation
    else:
        mu_final, frequencies = mu_low, low_allocation
    if frequencies is None:
        frequencies = allocation_for(mu_final)[1]
    leftover = budget - float(frequencies.sum())
    if leftover > slack and mu_low > 0:
        # Degenerate (but common) case: some page's marginal freshness is flat
        # at exactly the water level — its frequency jumps discontinuously as
        # mu crosses 1/rate, so bisection alone cannot hit the budget. The
        # KKT-optimal completion gives the leftover budget to exactly those
        # pages, capped at their allocation just below the water level.
        if low_allocation is None:
            low_allocation = allocation_for(mu_low)[1]
        capacity = low_allocation - frequencies
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


def optimal_frequency_curve(
    rates: Sequence[float],
    budget: float,
    population_rates: Optional[Sequence[float]] = None,
) -> List[float]:
    """The Figure 9 curve: optimal frequency as a function of change rate.

    Args:
        rates: The change-rate values at which to evaluate the curve (the
            horizontal axis of Figure 9).
        budget: Revisit budget for the *population*.
        population_rates: The change rates of the page population that fixes
            the water level; defaults to ``rates`` themselves (one page per
            horizontal-axis point).

    Returns:
        The optimal revisit frequency for a page of each given rate, holding
        the population's water level fixed.
    """
    population = list(population_rates) if population_rates is not None else list(rates)
    allocation = optimal_revisit_frequencies(population, budget)
    # Recover the water level as the median marginal over all funded pages:
    # every funded page sits at the same water level in exact arithmetic, so
    # the median averages out the per-page bisection noise that a single
    # (arbitrary) page would contribute.
    marginals = [
        marginal_freshness(rate, frequency)
        for rate, frequency in zip(population, allocation)
        if frequency > 0 and rate > 0
    ]
    if not marginals:
        return [0.0 for _ in rates]
    mu = float(np.median(marginals))
    grid = np.asarray(rates, dtype=float)
    solvable = grid > _RATE_EPSILON
    distinct, inverse = np.unique(grid[solvable], return_inverse=True)
    curve = np.zeros(grid.size)
    curve[solvable] = _bisect_frequencies(distinct, np.ones(distinct.size), mu)[1][inverse]
    return curve.tolist()


# --------------------------------------------------------------------- #
# Internals
# --------------------------------------------------------------------- #
def _marginal_freshness_array(rates: np.ndarray, frequencies: np.ndarray) -> np.ndarray:
    """Elementwise ``dF/df`` for positive rates and frequencies."""
    x = rates / frequencies
    decay = np.exp(-x)
    return (1.0 - decay) / rates - decay / frequencies


def _bisect_frequencies(
    rates: np.ndarray,
    weights: np.ndarray,
    mu: float,
    counts: Optional[np.ndarray] = None,
    side_of: Optional[Callable[[float], int]] = None,
) -> Tuple[Optional[int], Optional[np.ndarray]]:
    """Solve ``weight * dF/df(rate, f) = mu`` for every page at once.

    Pages whose first marginal unit of bandwidth is already worth less than
    ``mu`` get 0; the rest are solved together by array bisection. Element
    ``j`` stands for ``counts[j]`` pages (one when ``counts`` is omitted).

    Returns ``(None, frequencies)``. Given ``side_of`` (which maps a budget
    total to -1, 0 or +1 and is monotone in it), it instead returns
    ``(side, None)`` as soon as the count-weighted bracket sums prove that
    the finished allocation's total has side -1 or +1 (the module docstring
    has the argument); a side still open at full depth gets ``(None,
    frequencies)`` as usual.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    frequencies = np.zeros(rates.size)
    funded = mu < weights / rates
    if not funded.any():
        return None, frequencies
    rate = rates[funded]
    target = mu / weights[funded]
    count = np.ones(rate.size) if counts is None else counts[funded]

    def gap_positive(freq: np.ndarray) -> np.ndarray:
        # ``marginal - target > 0`` exactly: a float difference of finite
        # values is positive iff the first is larger.
        return _marginal_freshness_array(rate, freq) > target

    low = np.full(rate.shape, _FREQ_LOW)
    high = np.maximum(rate, 1.0)
    growing = np.ones(rate.shape, dtype=bool)
    while True:
        need = growing & gap_positive(high)
        if not need.any():
            break
        high[need] *= 2.0
        growing &= high <= _FREQ_CAP
    margin = 1.0 + _SUM_ERROR_PER_TERM * float(count.sum())
    for _ in range(_BISECTION_ITERS):
        if side_of is not None:
            if side_of(float(count @ high) * margin) < 0:
                return -1, None
            if side_of(float(count @ low) / margin) > 0:
                return 1, None
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
    return None, frequencies


def _as_rate_and_weight_arrays(
    rates: Sequence[float], budget: float, weights: Optional[Sequence[float]]
):
    rate_array = np.asarray(rates, dtype=float)
    if rate_array.ndim != 1:
        raise ValueError("rates must be a one-dimensional sequence")
    _validate_budget(rate_array, budget)
    if weights is None:
        weight_array = np.ones(rate_array.size)
    else:
        weight_array = np.asarray(weights, dtype=float)
        if weight_array.shape != rate_array.shape:
            raise ValueError("weights must have the same length as rates")
        if not ((weight_array >= 0) & (weight_array < math.inf)).all():
            raise ValueError("weights must be finite and non-negative")
    return rate_array, weight_array


def _validate_budget(rates: Sequence[float], budget: float) -> None:
    # Written so that NaN, which fails every comparison, fails the checks
    # (a NaN rate would get frequency 0, a NaN budget NaN everywhere).
    if not (np.asarray(rates, dtype=float) >= 0).all():
        raise ValueError("rates must be non-negative (and not NaN)")
    if not math.isfinite(budget):
        raise ValueError("budget must be finite")
    if len(rates) > 0 and budget <= 0:
        raise ValueError("budget must be positive when pages are present")
