"""Monte-Carlo simulation of crawl policies over Poisson pages.

The simulator plays out a crawl policy against a population of pages with
known Poisson change rates and measures the empirical freshness of the
user-visible collection over time. It works at the page-statistics level
(no URLs, no content) so that large populations and long horizons run in
milliseconds; the full-architecture simulation lives in :mod:`repro.core`.

Two entry points:

* :func:`simulate_crawl_policy` — the four Section 4 combinations (steady or
  batch crossed with in-place or shadowing), every page revisited once per
  cycle. Used to cross-check the analytic formulas and to regenerate
  Figures 7/8 and Table 2 by measurement rather than by formula.
* :func:`simulate_revisit_allocation` — arbitrary per-page revisit
  intervals (uniform, proportional or optimal allocations), used for the
  Figure 9/10 policy-comparison benchmarks.

Both entry points run on a vectorized NumPy core: all change events are
concatenated into one flat per-page-sorted array, each event is binned
against the sorted sample grid with a single ``np.searchsorted``, and a
running maximum along the sample axis yields the last change at or before
every sample instant for every page at once. A page is fresh at ``t`` iff
that last change does not postdate the user-visible copy's fetch time,
which is computed for all (page, sample) pairs by broadcast arithmetic.

The original per-page/per-sample loops are kept as test oracles in
``tests/reference/kernels.py``; they share this module's sampling helpers,
so the vectorized results match them exactly on shared seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.freshness.analytic import CrawlMode, CrawlPolicy, UpdateMode

ArrayLike = Union[Sequence[float], np.ndarray]


@dataclass(frozen=True)
class PolicySimulationResult:
    """Result of a Monte-Carlo crawl-policy simulation.

    Attributes:
        times: Sample instants (days), measured from the start of the
            measurement window (warm-up excluded).
        freshness: Empirical freshness of the user-visible collection at
            each sample instant.
        mean_freshness: Time-averaged freshness over the measurement window.
    """

    times: Sequence[float]
    freshness: Sequence[float]
    mean_freshness: float


def simulate_crawl_policy(
    rates: ArrayLike,
    policy: CrawlPolicy,
    n_cycles: int = 12,
    samples_per_cycle: int = 40,
    warmup_cycles: int = 2,
    seed: int = 0,
) -> PolicySimulationResult:
    """Simulate one of the four Section 4 policy combinations.

    Every page is re-fetched exactly once per cycle. For a steady crawler
    the fetch phases are spread uniformly over the cycle; for a batch
    crawler they are spread uniformly over the batch window at the start of
    the cycle. With shadowing, fetched copies only become visible when the
    cycle's crawl completes.

    Args:
        rates: Per-page Poisson change rates (changes per day); any
            sequence or NumPy array.
        policy: The crawl-policy combination to simulate.
        n_cycles: Number of measured cycles.
        samples_per_cycle: Freshness samples per cycle.
        warmup_cycles: Cycles simulated before measurement starts, so the
            system reaches steady state (shadowing needs at least one
            completed cycle before users see anything).
        seed: Random seed for the change-time sampling.

    Returns:
        A :class:`PolicySimulationResult`.
    """
    rates = _as_rates(rates)
    _validate_policy_args(n_cycles, samples_per_cycle, warmup_cycles)
    rng = np.random.default_rng(seed)
    n_pages = len(rates)
    cycle = policy.cycle_days
    total_days = (warmup_cycles + n_cycles) * cycle

    change_times = _sample_change_times(rates, total_days, rng)
    phases = rng.uniform(0.0, policy.active_duration_days, size=n_pages)

    measure_start = warmup_cycles * cycle
    sample_times = np.linspace(
        measure_start, total_days, n_cycles * samples_per_cycle, endpoint=False
    )

    freshness = _freshness_series(
        change_times,
        sample_times,
        lambda block: _policy_copy_times(block, phases, policy),
    )
    return _build_result(sample_times, freshness, measure_start)


def simulate_revisit_allocation(
    rates: ArrayLike,
    intervals: ArrayLike,
    duration_days: float = 360.0,
    n_samples: int = 400,
    warmup_days: Optional[float] = None,
    seed: int = 0,
) -> PolicySimulationResult:
    """Simulate an in-place crawler with arbitrary per-page revisit intervals.

    Args:
        rates: Per-page Poisson change rates; any sequence or NumPy array.
        intervals: Per-page revisit intervals in days (``inf`` or values
            larger than the horizon mean the page is effectively never
            revisited after the initial fetch).
        duration_days: Length of the measurement window.
        n_samples: Number of freshness samples.
        warmup_days: Simulated time before measurement starts; defaults to
            the largest finite interval (so every page has been revisited at
            least once on its own schedule).
        seed: Random seed.

    Returns:
        A :class:`PolicySimulationResult`.
    """
    rates, intervals = _as_rates_and_intervals(rates, intervals)
    _validate_allocation_args(duration_days, n_samples)
    rng = np.random.default_rng(seed)
    warmup_days = _default_warmup(intervals, warmup_days)
    total_days = warmup_days + duration_days

    change_times = _sample_change_times(rates, total_days, rng)
    phases = _sample_phases(intervals, rng)

    sample_times = np.linspace(warmup_days, total_days, n_samples, endpoint=False)

    freshness = _freshness_series(
        change_times,
        sample_times,
        lambda block: _periodic_copy_times(block, phases, intervals),
    )
    return _build_result(sample_times, freshness, warmup_days)


# --------------------------------------------------------------------- #
# Input handling (shared with the loop oracles)
# --------------------------------------------------------------------- #
def _as_rates(rates: ArrayLike) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1:
        raise ValueError("rates must be a one-dimensional sequence")
    if rates.size == 0:
        raise ValueError("at least one page is required")
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    return rates


def _as_rates_and_intervals(
    rates: ArrayLike, intervals: ArrayLike
) -> Tuple[np.ndarray, np.ndarray]:
    raw_rates = np.asarray(rates, dtype=float)
    intervals = np.asarray(intervals, dtype=float)
    if intervals.ndim != 1:
        raise ValueError("intervals must be a one-dimensional sequence")
    if raw_rates.shape != intervals.shape:
        raise ValueError("rates and intervals must have the same length")
    return _as_rates(raw_rates), intervals


def _validate_policy_args(n_cycles: int, samples_per_cycle: int, warmup_cycles: int) -> None:
    if n_cycles < 1 or samples_per_cycle < 1:
        raise ValueError("n_cycles and samples_per_cycle must be positive")
    if warmup_cycles < 1:
        raise ValueError("warmup_cycles must be at least 1")


def _validate_allocation_args(duration_days: float, n_samples: int) -> None:
    if duration_days <= 0 or n_samples < 1:
        raise ValueError("duration_days and n_samples must be positive")


def _default_warmup(intervals: np.ndarray, warmup_days: Optional[float]) -> float:
    if warmup_days is not None:
        return warmup_days
    finite = intervals[np.isfinite(intervals)]
    return float(finite.max()) if finite.size else 0.0


def _build_result(
    sample_times: np.ndarray, freshness: np.ndarray, window_start: float
) -> PolicySimulationResult:
    mean = float(np.mean(freshness)) if freshness.size else 0.0
    relative_times = tuple(float(t - window_start) for t in sample_times)
    return PolicySimulationResult(
        times=relative_times,
        freshness=tuple(float(f) for f in freshness),
        mean_freshness=mean,
    )


# --------------------------------------------------------------------- #
# Sampling (shared with the loop oracles, so both draw identically)
# --------------------------------------------------------------------- #
def _sample_change_times(
    rates: np.ndarray, total_days: float, rng: np.random.Generator
) -> List[np.ndarray]:
    """Sample sorted Poisson change times for each page over the horizon."""
    change_times: List[np.ndarray] = []
    for rate in rates:
        if rate < 0:
            raise ValueError("rates must be non-negative")
        if rate == 0:
            change_times.append(np.empty(0))
            continue
        count = rng.poisson(rate * total_days)
        change_times.append(np.sort(rng.uniform(0.0, total_days, size=count)))
    return change_times


def _sample_phases(intervals: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random fetch phase within each page's own revisit period.

    Pages with a non-finite or non-positive interval draw nothing, so the
    random stream only depends on which pages have a schedule.
    """
    return np.array(
        [rng.uniform(0.0, interval) if math.isfinite(interval) and interval > 0 else 0.0
         for interval in intervals]
    )


# --------------------------------------------------------------------- #
# Vectorized core
# --------------------------------------------------------------------- #
#: Target element count of the per-chunk (pages x samples) work matrices.
#: Chunking the sample axis bounds peak memory at a few such matrices
#: (~16 MB each of float64) regardless of population size or horizon,
#: where a single dense (pages x samples) pass would scale without limit.
_CHUNK_ELEMENTS = 1 << 21

CopyTimesFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _freshness_series(
    change_times: Sequence[np.ndarray],
    sample_times: np.ndarray,
    copy_times_for: CopyTimesFn,
) -> np.ndarray:
    """Freshness of the population at every sample instant, fully batched.

    Args:
        change_times: Per-page sorted change-event times.
        sample_times: Sorted sample instants, shape ``(S,)``.
        copy_times_for: Maps a block of sample instants to the
            ``(copy_times, visible)`` matrices for those instants —
            the fetch time of the user-visible copy for every
            (page, sample) pair, and whether a copy is visible at all
            (False only during a shadowing crawler's first cycle; an
            invisible copy counts as not fresh).

    Returns:
        Freshness values, shape ``(S,)``.

    A page is fresh at ``t`` iff no change falls in ``(copy_time, t]``,
    i.e. iff the last change at or before ``t`` is at or before the copy
    time. Each event is binned against the sample grid with a single
    ``searchsorted``; the last-change-so-far matrix is then built chunk by
    chunk along the sample axis with a running maximum, carrying each
    page's last event across chunk boundaries, so peak memory stays
    bounded (a few ``_CHUNK_ELEMENTS``-sized matrices) for any population.
    """
    n_pages = len(change_times)
    n_samples = len(sample_times)
    lengths = np.array([len(times) for times in change_times], dtype=np.int64)
    if lengths.sum() > 0:
        flat = np.concatenate([times for times in change_times if len(times)])
        page_ids = np.repeat(np.arange(n_pages, dtype=np.int64), lengths)
        # First sample instant at or after each event; the event is "seen"
        # (is <= t) by that sample and every later one. Sorting by bin keeps
        # same-page events time-ascending (the sort is stable), which the
        # last-assignment-wins scatter below relies on.
        bins = np.searchsorted(sample_times, flat, side="left")
        order = np.argsort(bins, kind="stable")
        flat, page_ids, bins = flat[order], page_ids[order], bins[order]
    else:
        flat = np.empty(0)
        page_ids = bins = np.empty(0, dtype=np.int64)

    freshness = np.empty(n_samples)
    carry = np.full(n_pages, -np.inf)  # last change at or before the previous chunk
    chunk = max(1, _CHUNK_ELEMENTS // max(1, n_pages))
    event_start = 0
    for block_start in range(0, n_samples, chunk):
        block_end = min(n_samples, block_start + chunk)
        last_change = np.full((n_pages, block_end - block_start), -np.inf)
        if flat.size:
            event_end = int(np.searchsorted(bins, block_end, side="left"))
            block = slice(event_start, event_end)
            # Events are time-ascending within each (page, bin) pair, so
            # with duplicate indices the last assignment — the largest
            # event time — wins.
            last_change[page_ids[block], bins[block] - block_start] = flat[block]
            event_start = event_end
        np.maximum(last_change[:, 0], carry, out=last_change[:, 0])
        np.maximum.accumulate(last_change, axis=1, out=last_change)
        carry = last_change[:, -1].copy()
        copy_times, visible = copy_times_for(sample_times[block_start:block_end])
        fresh = visible & (last_change <= copy_times)
        freshness[block_start:block_end] = fresh.sum(axis=0) / n_pages
    return freshness


def _policy_copy_times(
    sample_times: np.ndarray, phases: np.ndarray, policy: CrawlPolicy
) -> Tuple[np.ndarray, np.ndarray]:
    """Copy-time and visibility matrices for the once-per-cycle policies.

    Evaluated at all sample instants at once: returns
    ``(copy_times, visible)`` with shape ``(n_pages, len(sample_times))``.
    """
    cycle = policy.cycle_days
    cycle_start = np.floor(sample_times / cycle) * cycle
    fetch_this = cycle_start[None, :] + phases[:, None]
    fetch_prev = fetch_this - cycle
    if policy.update_mode is UpdateMode.IN_PLACE:
        use_this = fetch_this <= sample_times[None, :]
    else:
        completion_offset = (
            cycle
            if policy.crawl_mode is CrawlMode.STEADY
            else policy.batch_duration_days
        )
        use_this = np.broadcast_to(
            sample_times[None, :] >= (cycle_start + completion_offset)[None, :],
            fetch_this.shape,
        )
    copy_times = np.where(use_this, fetch_this, fetch_prev)
    visible = use_this | (fetch_prev >= 0)
    return copy_times, visible


def _periodic_copy_times(
    sample_times: np.ndarray, phases: np.ndarray, intervals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Copy-time matrix for per-page periodic revisit schedules.

    Pages that have not been fetched on their own schedule fall back to the
    initial fetch at time zero, so every copy is visible.
    """
    scheduled = np.isfinite(intervals) & (intervals > 0)
    safe_intervals = np.where(scheduled, intervals, 1.0)
    periods = np.floor(
        (sample_times[None, :] - phases[:, None]) / safe_intervals[:, None]
    )
    copy_times = phases[:, None] + periods * safe_intervals[:, None]
    on_schedule = scheduled[:, None] & (sample_times[None, :] >= phases[:, None])
    copy_times = np.where(on_schedule, copy_times, 0.0)
    visible = np.ones_like(copy_times, dtype=bool)
    return copy_times, visible
