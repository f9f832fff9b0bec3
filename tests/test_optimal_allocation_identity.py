"""The optimal-allocation solver against its full-depth oracle.

``optimal_revisit_frequencies`` stops an outer water-level step as soon as
the inner brackets settle on which side of the budget its total lands
(module docstring of ``repro.freshness.optimal_allocation``). That is an
exactness argument, not an approximation, so the result must equal — ``==``,
not approx — the oracle in ``tests/allocation_oracle.py``, which runs every
step to full depth and solves every page itself. Two untimed guards count
inner passes and the elements they carry, so an edit that silently loses
the early stop, or solves each page instead of each distinct
``(rate, weight)`` pair, fails here without a stopwatch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import allocation_oracle
from repro.freshness import optimal_allocation
from repro.freshness.optimal_allocation import optimal_revisit_frequencies

#: The update module's floor rate for pages never seen to change (180-day
#: history window): many pages share it exactly in every real solve.
_FLOOR_RATE = 0.5 / 180
#: The update module's prior for a page with no history yet (one change per
#: default seven-day revisit interval).
_DEFAULT_RATE = 1.0 / 7


def _pooled_rates(rng, n: int, size: int) -> np.ndarray:
    """``n`` rates drawn from ``size`` distinct values, as the crawler sees them.

    The update module's estimates repeat heavily: EP is a pure function of a
    page's visit and change counts, and pages without an estimate (or with a
    tiny one) share the default or the floor rate.
    """
    pool = np.concatenate(([_FLOOR_RATE, _DEFAULT_RATE], rng.exponential(0.2, 48)))
    return rng.choice(pool[:size], n)


#: One reallocation's population in the crawler's shape: 5 000 pages
#: sharing 25 distinct rates.
_CRAWLER_RATES = _pooled_rates(np.random.default_rng(37), 5000, 25)


@st.composite
def solver_inputs(draw):
    """``(rates, budget, weights, tolerance)`` across the regimes the solver meets.

    Rates span 1e-6..1e3 with exact zeros and the floor rate mixed in;
    weights are absent, spread, or spread with zeros; budgets span
    1e-2..1e5; "flat" populations (one rate for every page) under a small
    budget put the water level on the flat part of the marginal, where the
    leftover completion runs. "Pooled" populations draw rates (and
    optionally weights) from a few distinct values, so ``(rate, weight)``
    pairs repeat and partly collide, as in the crawler's solves.
    """
    # tolerance 0 makes most late steps run to full depth, which exercises
    # the kept allocations; it also makes the oracle walk all 200 outer
    # steps, hence the smaller population.
    tolerance = draw(st.sampled_from([1e-9, 1e-12, 0.0]))
    n = draw(st.integers(1, 2000 if tolerance else 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.floats(-6.0, 3.0))
    high = draw(st.floats(low, 3.0))
    shape = draw(st.sampled_from(["spread", "flat", "pooled"]))
    if shape == "spread":
        rates = 10.0 ** rng.uniform(low, high, n)
    elif shape == "flat":
        rates = np.full(n, 10.0 ** low)
    else:
        rates = _pooled_rates(rng, n, draw(st.integers(1, 50)))
    rates[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    rates[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = _FLOOR_RATE
    weights = draw(st.sampled_from([None, "spread", "zeros", "pooled"]))
    if weights == "pooled":
        weights = rng.choice(rng.exponential(1.0, draw(st.integers(1, 5))), n).tolist()
    elif weights is not None:
        spread = rng.exponential(1.0, n)
        if weights == "zeros":
            spread[rng.random(n) < 0.3] = 0.0
        weights = spread.tolist()
    budget = 10.0 ** draw(st.floats(-2.0, 5.0))
    return rates.tolist(), budget, weights, tolerance


@settings(max_examples=60, deadline=None)
@given(solver_inputs())
@example(([1.0] * 500, 1.0, None, 1e-9))  # flat marginal: the leftover branch
@example(([0.0, 0.0], 3.0, None, 1e-9))  # nothing changes
@example(([0.2, _FLOOR_RATE, 5.0], 2.0, [1.0, 0.0, 2.0], 1e-9))
@example((_CRAWLER_RATES.tolist(), 10000.0, None, 1e-9))  # the crawler's shape
def test_matches_full_depth_oracle_exactly(case):
    rates, budget, weights, tolerance = case
    expected = allocation_oracle.optimal_revisit_frequencies(
        rates, budget, weights, tolerance
    )
    assert optimal_revisit_frequencies(rates, budget, weights, tolerance) == expected


def _count_marginal_passes(module, monkeypatch) -> list:
    """``[passes, elements]`` of ``module._marginal_freshness_array``, live."""
    calls = [0, 0]
    marginal = module._marginal_freshness_array

    def counting(rates, frequencies):
        calls[0] += 1
        calls[1] += rates.size
        return marginal(rates, frequencies)

    monkeypatch.setattr(module, "_marginal_freshness_array", counting)
    return calls


def test_early_stop_at_least_halves_inner_passes(monkeypatch):
    rng = np.random.default_rng(2024)
    rates = rng.exponential(0.2, 5000)
    rates[:250] = 0.0
    rates[250:750] = _FLOOR_RATE
    budget = 10000.0

    oracle_calls = _count_marginal_passes(allocation_oracle, monkeypatch)
    solver_calls = _count_marginal_passes(optimal_allocation, monkeypatch)
    expected = allocation_oracle.optimal_revisit_frequencies(rates, budget)
    assert optimal_revisit_frequencies(rates, budget) == expected
    assert solver_calls[0] * 2 <= oracle_calls[0], (solver_calls[0], oracle_calls[0])


def test_each_distinct_rate_is_solved_once(monkeypatch):
    rates = _CRAWLER_RATES
    assert np.unique(rates).size == 25
    calls = _count_marginal_passes(optimal_allocation, monkeypatch)
    expected = allocation_oracle.optimal_revisit_frequencies(rates, 10000.0)
    assert optimal_revisit_frequencies(rates, 10000.0) == expected
    passes, elements = calls
    assert elements <= 25 * passes, (elements, passes)
