"""Per-page change histories.

Every time the UpdateModule re-fetches a page it learns one bit: did the
checksum differ from the previous fetch? A :class:`ChangeHistory` stores
those observations (optionally windowed to the most recent months, as the
paper suggests keeping "say, last 6 months") and exposes the summary
statistics the estimators need: number of visits, number of detected
changes, total observation time, and the individual inter-visit intervals.

The history sits on the crawler's per-fetch hot path, so it stores plain
primitives (time, changed, interval) in deques and maintains its summary
statistics incrementally; :class:`Observation` objects are only
materialised for callers that ask for them. Window trimming pops aged
observations from the front, and the running observation-time sum is
rebuilt as a fresh left-fold whenever observations are dropped, so its
value is bit-identical to summing the retained intervals directly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.checkpoint import pack_floats, pack_ints, pack_urls, unpack_urls


@dataclass(frozen=True)
class Observation:
    """One re-visit observation.

    Attributes:
        time: Virtual time of the visit.
        changed: Whether the checksum differed from the previous visit.
        interval: Days since the previous visit.
    """

    time: float
    changed: bool
    interval: float


class ChangeHistory:
    """Change observations for a single page.

    Args:
        first_visit: Virtual time of the first fetch (which establishes the
            baseline checksum; it is not itself a change observation).
        window_days: When given, only observations within the trailing
            window are retained — the paper suggests keeping roughly six
            months of history.
    """

    __slots__ = (
        "first_visit",
        "window_days",
        "_last_visit",
        "_times",
        "_changed",
        "_intervals",
        "_n_changes",
        "_interval_sum",
    )

    def __init__(self, first_visit: float, window_days: Optional[float] = None) -> None:
        if first_visit < 0:
            raise ValueError("first_visit must be non-negative")
        if window_days is not None and window_days <= 0:
            raise ValueError("window_days must be positive when given")
        self.first_visit = first_visit
        self.window_days = window_days
        self._last_visit = first_visit
        self._times: Deque[float] = deque()
        self._changed: Deque[bool] = deque()
        self._intervals: Deque[float] = deque()
        self._n_changes = 0
        self._interval_sum = 0.0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_visit(self, time: float, changed: bool) -> None:
        """Record a re-visit at ``time`` with its change outcome.

        Args:
            time: Virtual time of the visit; must not precede the previous
                visit.
            changed: True when the checksum differed from the previous fetch.
        """
        if time < self._last_visit:
            raise ValueError("visits must be recorded in chronological order")
        interval = time - self._last_visit
        self._times.append(time)
        self._changed.append(changed)
        self._intervals.append(interval)
        if changed:
            self._n_changes += 1
        self._interval_sum += interval
        self._last_visit = time
        self._trim()

    def _trim(self) -> None:
        if self.window_days is None or not self._times:
            return
        cutoff = self._last_visit - self.window_days
        dropped = False
        # Observations are chronological, so aging out is a prefix removal.
        while self._times and self._times[0] < cutoff:
            self._times.popleft()
            if self._changed.popleft():
                self._n_changes -= 1
            self._intervals.popleft()
            dropped = True
        if dropped:
            # Rebuild as a left-fold over the survivors so the running sum
            # stays bit-identical to sum(retained intervals).
            self._interval_sum = sum(self._intervals)

    # ------------------------------------------------------------------ #
    # Summary statistics
    # ------------------------------------------------------------------ #
    @property
    def last_visit(self) -> float:
        """Virtual time of the most recent visit."""
        return self._last_visit

    @property
    def observations(self) -> Tuple[Observation, ...]:
        """All retained observations, oldest first (materialised on demand)."""
        return tuple(
            Observation(time=time, changed=changed, interval=interval)
            for time, changed, interval in zip(
                self._times, self._changed, self._intervals
            )
        )

    def last_outcome(self) -> Tuple[float, bool]:
        """The newest observation as a cheap ``(interval, changed)`` pair.

        The EB estimator folds exactly one observation per visit; this
        accessor hands it over without materialising an
        :class:`Observation`.

        Raises:
            IndexError: When no re-visit has been recorded yet.
        """
        return self._intervals[-1], self._changed[-1]

    @property
    def n_visits(self) -> int:
        """Number of recorded re-visits (excluding the very first fetch)."""
        return len(self._times)

    @property
    def n_changes(self) -> int:
        """Number of re-visits at which a change was detected."""
        return self._n_changes

    @property
    def observation_time(self) -> float:
        """Total time covered by the retained observations (days)."""
        return self._interval_sum

    def intervals(self) -> List[float]:
        """Inter-visit intervals of the retained observations."""
        return list(self._intervals)

    def mean_interval(self) -> float:
        """Average inter-visit interval (0 when there are no observations)."""
        if not self._times:
            return 0.0
        return self._interval_sum / len(self._times)

    def detected_change_intervals(self) -> List[float]:
        """Observed intervals between successive *detected* changes.

        This is the Section 3.1 quantity: if a page was observed for 50 days
        and changed 5 times, the average change interval estimate is 10 days.
        The individual intervals feed the Figure 6 exponential fit.
        """
        intervals: List[float] = []
        elapsed_since_change = 0.0
        for changed, interval in zip(self._changed, self._intervals):
            elapsed_since_change += interval
            if changed:
                intervals.append(elapsed_since_change)
                elapsed_since_change = 0.0
        return intervals

    def average_change_interval(self) -> Optional[float]:
        """Observation time divided by detected changes, or None if no change.

        This mirrors the paper's estimate of a page's average change
        interval; its granularity is bounded below by the visit interval.
        """
        changes = self.n_changes
        if changes == 0:
            return None
        return self.observation_time / changes


def histories_to_columns(histories: Dict[str, ChangeHistory], ids: Dict[str, int]) -> dict:
    """Checkpoint columns for many histories, in dict order, every slot packed
    (the URLs through ``ids``, :func:`~repro.storage.checkpoint.pack_urls`).

    Observations are concatenated (``counts`` splits them). Of the
    intervals only each page's first is kept (NaN for a page without
    observations): every later one is its visit time minus the previous
    visit's. A page's last visit is its last visit time, or its first visit
    without one, and every history shares its owner's window, so neither is
    stored. ``interval_sum`` travels verbatim: recomputing its left-fold on
    restore could differ in the last ulp.
    """
    values = list(histories.values())
    return {
        "urls": pack_urls(list(histories), ids),
        "first_visit": pack_floats([h.first_visit for h in values]),
        "n_changes": pack_ints([h._n_changes for h in values]),
        "interval_sum": pack_floats([h._interval_sum for h in values]),
        "counts": pack_ints([len(h._times) for h in values]),
        "times": pack_floats([t for h in values for t in h._times]),
        "changed": pack_ints([c for h in values for c in h._changed], "?"),
        "first_interval": pack_floats(
            [h._intervals[0] if h._intervals else math.nan for h in values]
        ),
    }


def histories_from_columns(
    columns: dict, table: Sequence[str], window_days: Optional[float]
) -> Dict[str, ChangeHistory]:
    """Rebuild the histories :func:`histories_to_columns` wrote, exactly, their
    URLs looked up in ``table``.

    Every history gets ``window_days``, the window they were recorded
    under. Each interval but a page's first is rebuilt as ``time - previous
    time``, the float subtraction :meth:`ChangeHistory.record_visit` made.
    """
    times, counts = columns["times"], columns["counts"]
    starts = np.cumsum(counts) - counts
    intervals = np.empty_like(times)
    intervals[1:] = times[1:] - times[:-1]
    observed = counts > 0
    intervals[starts[observed]] = columns["first_interval"][observed]
    times, intervals = times.tolist(), intervals.tolist()
    changed = columns["changed"].tolist()
    histories: Dict[str, ChangeHistory] = {}
    for url, first_visit, n_changes, interval_sum, start, count in zip(
        unpack_urls(columns["urls"], table),
        columns["first_visit"].tolist(),
        columns["n_changes"].tolist(),
        columns["interval_sum"].tolist(),
        starts.tolist(),
        counts.tolist(),
    ):
        end = start + count
        history = ChangeHistory(first_visit, window_days)
        history._last_visit = times[end - 1] if count else first_visit
        history._times = deque(times[start:end])
        history._changed = deque(changed[start:end])
        history._intervals = deque(intervals[start:end])
        history._n_changes = n_changes
        history._interval_sum = interval_sum
        histories[url] = history
    return histories
