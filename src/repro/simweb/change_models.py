"""Page change processes.

Section 3.4 of the paper verifies that page changes are well described by a
Poisson process: the interval between successive changes of a page with rate
``lambda`` is exponentially distributed with density ``lambda * exp(-lambda*t)``
(Theorem 1). :class:`PoissonChangeProcess` is therefore the default model.

Two additional processes are provided for ablations and tests:

* :class:`PeriodicChangeProcess` changes at exactly fixed intervals, which is
  the "clockwork" counter-example against which the Poisson assumption can be
  compared (Figure 6 would show a spike instead of an exponential).
* :class:`BurstyChangeProcess` emits batches of changes followed by silent
  periods, modelling the Figure 1(b) caveat: a page that changes several
  times in one day and then rests, for which a once-a-day observer measures
  the interval between *batches* of changes.

All processes expose the same interface: a sorted array of change times over
a horizon; a page's version at a virtual time is the number of change times
at or before it, which the web's batched oracle looks up for many pages at
once. Virtual time is measured in days.

The concrete processes register themselves in
:data:`repro.api.registry.CHANGE_MODELS` (``"poisson"``, ``"periodic"``,
``"bursty"``, ``"never"``), so web specs and the generator can select a
model by name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as np

from repro.api.registry import register_change_model


class ChangeProcess(ABC):
    """Abstract model of when a page's content changes.

    A change process is materialised over a finite horizon ``[0, horizon]``
    of virtual days. Implementations pre-sample the change times once, so
    that repeated queries (from crawlers, monitors and metrics) are
    consistent and cheap.
    """

    def __init__(self) -> None:
        self._change_times: Optional[List[float]] = None
        self._change_times_array: Optional[np.ndarray] = None

    @abstractmethod
    def _sample_change_times(self, horizon: float, rng: np.random.Generator) -> List[float]:
        """Sample the (sorted) change times over ``[0, horizon]``."""

    @property
    @abstractmethod
    def mean_rate(self) -> float:
        """Expected number of changes per day."""

    def materialise(self, horizon: float, rng: np.random.Generator) -> None:
        """Sample and store change times over ``[0, horizon]``.

        Calling this twice replaces the previous sample; the web generator
        materialises every page exactly once (in bulk, through
        :meth:`materialise_many`).
        """
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        self._change_times = sorted(self._sample_change_times(horizon, rng))
        self._change_times_array = None

    def _set_materialised(self, horizon: float, times: np.ndarray) -> None:
        """Install pre-sampled (sorted ascending) change times directly.

        Bulk samplers hand each process its slice of a web-wide draw; the
        array doubles as the cached representation the batched oracle
        consumes.
        """
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        array = np.ascontiguousarray(times, dtype=float)
        array.setflags(write=False)
        self._change_times = array
        self._change_times_array = array

    @classmethod
    def materialise_many(
        cls,
        processes: Sequence["ChangeProcess"],
        horizons: Sequence[float],
        rng: np.random.Generator,
    ) -> None:
        """Materialise many processes of this class in bulk.

        The base implementation simply loops :meth:`materialise`.
        Subclasses whose sampling vectorises (Poisson counts + uniform
        placement, periodic grids) override it to draw once per *web*
        instead of once per page — the generator groups pages by model
        class and calls this per group. Bulk sampling draws from ``rng``
        in a different order than the per-page loop, so webs generated
        before and after this change differ for the same seed (each is a
        valid sample of the same distribution).
        """
        for process, horizon in zip(processes, horizons):
            process.materialise(float(horizon), rng)

    @property
    def is_materialised(self) -> bool:
        """True once :meth:`materialise` has been called."""
        return self._change_times is not None

    def change_times(self) -> Sequence[float]:
        """All sampled change times, sorted ascending."""
        self._require_materialised()
        return tuple(self._change_times)  # type: ignore[arg-type]

    def change_times_array(self) -> np.ndarray:
        """Sampled change times as a cached, read-only NumPy array.

        This is the representation the batched oracle consumes; the array is
        built once per materialisation, so repeated batched queries pay no
        conversion cost.
        """
        self._require_materialised()
        if self._change_times_array is None:
            array = np.asarray(self._change_times, dtype=float)
            array.setflags(write=False)
            self._change_times_array = array
        return self._change_times_array

    def _require_materialised(self) -> None:
        if self._change_times is None:
            raise RuntimeError(
                "change process has not been materialised; call materialise() first"
            )


@register_change_model("poisson")
class PoissonChangeProcess(ChangeProcess):
    """Poisson change process with a fixed rate (changes per day).

    This is the model the paper validates in Section 3.4 and uses for all of
    the Section 4 analysis.
    """

    def __init__(self, rate: float) -> None:
        super().__init__()
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self._rate = rate

    @property
    def mean_rate(self) -> float:
        return self._rate

    @property
    def mean_interval(self) -> float:
        """Expected number of days between changes (infinite for rate 0)."""
        if self._rate == 0:
            return float("inf")
        return 1.0 / self._rate

    def _sample_change_times(self, horizon: float, rng: np.random.Generator) -> List[float]:
        if self._rate == 0 or horizon == 0:
            return []
        # Sample the number of events, then place them uniformly: conditional
        # on the count, Poisson event times are i.i.d. uniform on the horizon.
        count = rng.poisson(self._rate * horizon)
        return list(np.sort(rng.uniform(0.0, horizon, size=count)))

    @classmethod
    def materialise_many(
        cls,
        processes: Sequence["ChangeProcess"],
        horizons: Sequence[float],
        rng: np.random.Generator,
    ) -> None:
        """All Poisson pages of a web in two draws, with no sorting.

        One vectorized Poisson draw fixes every page's event count;
        conditional on the count, the sorted event times of page ``i`` are
        distributed as order statistics of ``c_i`` uniforms on its horizon,
        which are constructed directly from exponential spacings:
        ``U_(k) = (E_1 + ... + E_k) / (E_1 + ... + E_{c+1})``. One
        exponential draw covers every spacing of every page, and segment
        prefix sums replace the per-page sampling loop *and* the sort.
        """
        n = len(processes)
        horizon_array = np.asarray(horizons, dtype=float)
        rates = np.array([process._rate for process in processes], dtype=float)
        counts = rng.poisson(rates * horizon_array)
        total_events = int(counts.sum())
        # One spacing per event plus the closing spacing of each page.
        spacings = rng.standard_exponential(total_events + n)
        segment_lengths = counts + 1
        ends = np.cumsum(segment_lengths)
        starts = ends - segment_lengths
        running = np.cumsum(spacings)
        bases = np.where(starts > 0, running[starts - 1], 0.0)
        totals = running[ends - 1] - bases
        event_mask = np.ones(total_events + n, dtype=bool)
        event_mask[ends - 1] = False
        partial = running[event_mask] - np.repeat(bases, counts)
        times = partial * np.repeat(horizon_array / totals, counts)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        for i, process in enumerate(processes):
            process._set_materialised(
                horizon_array[i], times[offsets[i] : offsets[i + 1]]
            )


@register_change_model("periodic")
class PeriodicChangeProcess(ChangeProcess):
    """Deterministic change process: one change every ``interval`` days."""

    def __init__(self, interval: float, phase: float = 0.0) -> None:
        super().__init__()
        if interval <= 0:
            raise ValueError("interval must be positive")
        if phase < 0:
            raise ValueError("phase must be non-negative")
        self._interval = interval
        self._phase = phase % interval

    @property
    def mean_rate(self) -> float:
        return 1.0 / self._interval

    def _sample_change_times(self, horizon: float, rng: np.random.Generator) -> List[float]:
        times = []
        t = self._phase if self._phase > 0 else self._interval
        while t <= horizon:
            times.append(t)
            t += self._interval
        return times

    @classmethod
    def materialise_many(
        cls,
        processes: Sequence["ChangeProcess"],
        horizons: Sequence[float],
        rng: np.random.Generator,
    ) -> None:
        """Periodic grids as one ``arange`` per page — no randomness at all.

        The grid is built as ``start + k * interval`` rather than by
        repeated addition, which avoids the scalar loop's accumulated
        rounding drift on long horizons.
        """
        for process, horizon in zip(processes, horizons):
            horizon = float(horizon)
            start = process._phase if process._phase > 0 else process._interval
            if horizon <= 0 or start > horizon:
                process._set_materialised(horizon, np.empty(0))
                continue
            count = int(np.floor((horizon - start) / process._interval)) + 1
            times = start + process._interval * np.arange(count)
            # Guard the float edge: the formula may land one step past the
            # horizon where the scalar loop would have stopped.
            while count > 0 and times[count - 1] > horizon:
                count -= 1
            process._set_materialised(horizon, times[:count])


@register_change_model("bursty")
class BurstyChangeProcess(ChangeProcess):
    """Bursts of changes separated by exponential quiet periods.

    Burst arrival follows a Poisson process with rate ``burst_rate``; each
    burst contains ``burst_size`` changes spread over ``burst_duration`` days.
    A daily observer sees at most one change per day, so what it estimates is
    the interval between bursts — the situation of Figure 1(b).
    """

    def __init__(self, burst_rate: float, burst_size: int = 5, burst_duration: float = 0.5) -> None:
        super().__init__()
        if burst_rate < 0:
            raise ValueError("burst_rate must be non-negative")
        if burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if burst_duration < 0:
            raise ValueError("burst_duration must be non-negative")
        self._burst_rate = burst_rate
        self._burst_size = burst_size
        self._burst_duration = burst_duration

    @property
    def mean_rate(self) -> float:
        return self._burst_rate * self._burst_size

    @property
    def burst_rate(self) -> float:
        """Expected number of bursts per day."""
        return self._burst_rate

    def _sample_change_times(self, horizon: float, rng: np.random.Generator) -> List[float]:
        if self._burst_rate == 0 or horizon == 0:
            return []
        n_bursts = rng.poisson(self._burst_rate * horizon)
        burst_starts = np.sort(rng.uniform(0.0, horizon, size=n_bursts))
        times: List[float] = []
        for start in burst_starts:
            offsets = rng.uniform(0.0, self._burst_duration, size=self._burst_size)
            for offset in offsets:
                t = start + offset
                if t <= horizon:
                    times.append(float(t))
        return times


@register_change_model("never")
class NeverChanges(ChangeProcess):
    """A page whose content never changes (the static edu/gov tail)."""

    @property
    def mean_rate(self) -> float:
        return 0.0

    def _sample_change_times(self, horizon: float, rng: np.random.Generator) -> List[float]:
        return []
