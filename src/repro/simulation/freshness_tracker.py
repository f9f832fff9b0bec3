"""Recording freshness time series during a simulated crawl.

A :class:`FreshnessTracker` periodically samples the freshness of a
collection against the simulated-web oracle and accumulates a
:class:`FreshnessTimeSeries`, from which time-averaged values and
trajectories (the curves of Figures 7 and 8) can be read.

Each sample runs through the batched oracle path of
:mod:`repro.freshness.metrics`: the record list is materialised once and
measured with a handful of NumPy passes over the web's precomputed
change-time arrays, so measurement events inside ``IncrementalCrawler.run()``
cost O(records) array work rather than O(records) Python oracle calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.freshness.metrics import collection_freshness, time_average
from repro.simweb.web import SimulatedWeb
from repro.storage.collection import Collection


@dataclass
class FreshnessTimeSeries:
    """A sampled freshness time series."""

    times: List[float] = field(default_factory=list)
    freshness: List[float] = field(default_factory=list)

    def add(self, time: float, freshness: float) -> None:
        """Append one sample."""
        if self.times and time < self.times[-1]:
            raise ValueError("samples must be appended in chronological order")
        if not 0.0 <= freshness <= 1.0:
            raise ValueError("freshness must be within [0, 1]")
        self.times.append(time)
        self.freshness.append(freshness)

    def __len__(self) -> int:
        return len(self.times)

    def mean_freshness(self) -> float:
        """Time-weighted average freshness over the recorded samples."""
        return time_average(list(zip(self.times, self.freshness)))

    def as_series(self) -> Tuple[Sequence[float], Sequence[float]]:
        """The ``(times, freshness)`` series for plotting/reporting."""
        return tuple(self.times), tuple(self.freshness)

    def after(self, start_time: float) -> "FreshnessTimeSeries":
        """A copy containing only samples at or after ``start_time``.

        Useful to drop warm-up transients before computing averages.
        """
        trimmed = FreshnessTimeSeries()
        for time, fresh in zip(self.times, self.freshness):
            if time >= start_time:
                trimmed.add(time, fresh)
        return trimmed


class FreshnessTracker:
    """Samples the freshness of a collection on a fixed schedule.

    Freshness only: no result reads a collection's age, which
    :func:`repro.freshness.metrics.collection_age` measures on demand.

    Args:
        web: Ground-truth oracle.
        collection: The collection whose *current* records are measured.
        denominator: Optional fixed denominator for the freshness fraction.
            The paper's collection has a fixed target size; measuring
            freshness against that target (rather than against however many
            pages happen to be stored) penalises an incomplete collection,
            which matters for shadowing crawlers mid-cycle.
    """

    def __init__(
        self,
        web: SimulatedWeb,
        collection: Collection,
        denominator: Optional[int] = None,
    ) -> None:
        if denominator is not None and denominator < 1:
            raise ValueError("denominator must be at least 1 when given")
        self._web = web
        self._collection = collection
        self._denominator = denominator
        self.series = FreshnessTimeSeries()

    def sample(self, at: float) -> float:
        """Measure the collection freshness at virtual time ``at`` and record it."""
        records = list(self._collection.current_records())
        freshness = collection_freshness(records, self._web, at)
        if self._denominator is not None:
            freshness = freshness * len(records) / self._denominator
            freshness = min(1.0, freshness)
        self.series.add(at, freshness)
        return freshness
