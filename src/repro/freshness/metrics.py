"""Empirical freshness and age of a collection.

Freshness ([CGM99b], quoted in Section 4): the fraction of pages in the
local collection that are *up to date*, i.e. identical to their live
counterpart at the evaluation instant. Age: for each page, how long its
stored copy has been out of date (zero for up-to-date copies), averaged over
the collection.

In the simulation the ground truth is available from the
:class:`~repro.simweb.web.SimulatedWeb` oracle, so both metrics can be
computed exactly: a stored copy fetched at time ``t_f`` is up to date at
time ``t`` iff the page did not change in ``(t_f, t]`` and still exists.

Both metrics run through the *batched* oracle
(:meth:`~repro.simweb.web.SimulatedWeb.oracle_arrays`): one measurement
event over an N-record collection costs a few NumPy passes instead of N
Python oracle calls, which is what the measurement events inside
``IncrementalCrawler.run()`` and every crawl experiment pay repeatedly.
The original per-record loops are kept as test oracles in
``tests/reference/kernels.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.simweb.web import OracleArrays, SimulatedWeb
from repro.storage.records import PageRecord


def collection_freshness(
    records: Iterable[PageRecord],
    web: SimulatedWeb,
    at: float,
) -> float:
    """Fraction of stored records that are up to date at time ``at``.

    A record is up to date when its page still exists and has not changed
    since the record was fetched. An empty collection has freshness 0 (it
    provides no up-to-date pages to users).

    Args:
        records: Stored page records (the *current* collection).
        web: Ground-truth oracle.
        at: Evaluation instant (virtual days).

    Returns:
        Freshness in [0, 1].
    """
    freshness, _ = measure_collection(records, web, at, include_age=False)
    return freshness


def measure_collection(
    records: Iterable[PageRecord],
    web: SimulatedWeb,
    at: float,
    include_age: bool = True,
) -> Tuple[float, Optional[float]]:
    """Freshness and (optionally) age of a collection in one batched pass.

    The URL lookup and per-record fetch-time array — the only remaining
    O(records) Python work — are computed once and shared by both metrics,
    so a measurement event that tracks age does not pay them twice.

    Returns:
        ``(freshness, age)``; ``age`` is None when ``include_age`` is False.
    """
    records = list(records)
    if not records:
        return 0.0, (0.0 if include_age else None)
    arrays = web.oracle_arrays()
    ids, known = arrays.lookup([record.url for record in records])
    fetched = np.array([record.fetched_at for record in records], dtype=float)
    freshness = _freshness_from_arrays(arrays, ids, known, fetched, at, len(records))
    age = (
        _age_from_arrays(arrays, ids, known, fetched, at, len(records))
        if include_age
        else None
    )
    return freshness, age


def _freshness_from_arrays(
    arrays: OracleArrays,
    ids: np.ndarray,
    known: np.ndarray,
    fetched: np.ndarray,
    at: float,
    n_records: int,
) -> float:
    if not known.any():
        return 0.0
    ids = ids[known]
    fetched = fetched[known]
    alive = arrays.exists(ids, at)
    if not alive.any():
        return 0.0
    live_ids = ids[alive]
    unchanged = arrays.versions(live_ids, at) == arrays.versions(live_ids, fetched[alive])
    return int(unchanged.sum()) / n_records


def collection_age(
    records: Iterable[PageRecord],
    web: SimulatedWeb,
    at: float,
) -> float:
    """Average age of the stored records at time ``at``.

    The age of an up-to-date record is zero; the age of a stale record is
    the time since the *first* change after its fetch. Records whose page no
    longer exists age from the moment of deletion... they are treated as
    stale since the deletion instant, matching the freshness definition.

    Args:
        records: Stored page records.
        web: Ground-truth oracle.
        at: Evaluation instant.

    Returns:
        Mean age in days (0 for an empty collection).
    """
    _, age = measure_collection(records, web, at, include_age=True)
    return age


def _age_from_arrays(
    arrays: OracleArrays,
    ids: np.ndarray,
    known: np.ndarray,
    fetched: np.ndarray,
    at: float,
    n_records: int,
) -> float:
    ages = np.maximum(0.0, at - fetched)  # unknown URLs age from their fetch

    if known.any():
        sub_ids = ids[known]
        sub_fetched = fetched[known]
        alive = arrays.exists(sub_ids, at)
        known_ages = np.empty(sub_ids.size)

        # Pages gone from the window: stale since the deletion instant (or
        # since the fetch, for pages the oracle never saw deleted).
        deleted = arrays.deleted[sub_ids]
        deleted = np.where(np.isinf(deleted), sub_fetched, deleted)
        stale_since = np.minimum(np.maximum(sub_fetched, deleted), at)
        known_ages[:] = np.maximum(0.0, at - stale_since)

        # Live pages: age from the first change after the fetch, if any.
        if alive.any():
            live_ids = sub_ids[alive]
            relative_now = np.maximum(0.0, at - arrays.created[live_ids])
            versions_at_fetch = arrays.versions(live_ids, sub_fetched[alive])
            next_change = arrays.next_change_relative(live_ids, versions_at_fetch)
            known_ages[alive] = np.where(
                next_change > relative_now, 0.0, relative_now - next_change
            )
        ages[known] = known_ages

    return float(ages.sum()) / n_records


def time_average(samples: Sequence[Tuple[float, float]]) -> float:
    """Time-weighted average of a piecewise-constant series.

    Args:
        samples: ``(time, value)`` pairs sorted by time; the value is assumed
            to hold from its sample time until the next sample time.

    Returns:
        The time-weighted mean of the values (simple mean when all samples
        share the same timestamp; 0 for an empty series).
    """
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0][1]
    times = [s[0] for s in samples]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("samples must be sorted by time")
    total_span = samples[-1][0] - samples[0][0]
    if total_span == 0:
        return sum(value for _, value in samples) / len(samples)
    weighted = 0.0
    for (t0, v0), (t1, _) in zip(samples, samples[1:]):
        weighted += v0 * (t1 - t0)
    return weighted / total_span
