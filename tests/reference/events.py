"""Virtual clock and callback event queue of the per-URL reference engine.

:mod:`reference.crawl` schedules one callback per fetched page on an
:class:`EventQueue`; the product's crawl loop replays the same
``(time, sequence)`` ordering with
:class:`repro.simulation.events.StreamScheduler`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional


class VirtualClock:
    """Monotonically increasing virtual time in days.

    Args:
        start: Initial time (defaults to day 0).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("start time must be non-negative")
        self._now = start

    @property
    def now(self) -> float:
        """Current virtual time in days."""
        return self._now

    def advance(self, delta_days: float) -> float:
        """Move the clock forward by ``delta_days`` and return the new time."""
        if delta_days < 0:
            raise ValueError("cannot advance the clock by a negative amount")
        self._now += delta_days
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to ``t`` (no-op when ``t`` is in the past)."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.4f})"


EventCallback = Callable[[float], None]


@dataclass(order=True)
class ScheduledEvent:
    """An event on the queue, ordered by time then insertion order."""

    time: float
    sequence: int
    label: str = field(compare=False)
    callback: EventCallback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventQueue:
    """Time-ordered event queue driving a :class:`VirtualClock`.

    Args:
        clock: The shared virtual clock; events run at their scheduled time
            and the clock is advanced to that time before the callback fires.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._heap: List[ScheduledEvent] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def clock(self) -> VirtualClock:
        """The clock events are scheduled against."""
        return self._clock

    @property
    def pending(self) -> int:
        """Number of events still waiting to run."""
        return sum(1 for event in self._heap if not event.cancelled)

    @property
    def processed(self) -> int:
        """Number of events that have been executed."""
        return self._processed

    def schedule(self, time: float, callback: EventCallback, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run at virtual time ``time``.

        Scheduling an event in the past raises — events may only be placed
        at or after the current clock time.
        """
        if time < self._clock.now - 1e-12:
            raise ValueError(
                f"cannot schedule an event at {time} before the current time "
                f"{self._clock.now}"
            )
        event = ScheduledEvent(
            time=time,
            sequence=next(self._counter),
            label=label,
            callback=callback,
        )
        heapq.heappush(self._heap, event)
        return event

    def schedule_after(
        self, delay: float, callback: EventCallback, label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` days from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self._clock.now + delay, callback, label)

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a previously scheduled event (it will be skipped)."""
        event.cancelled = True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events in time order until ``end_time`` (inclusive).

        Args:
            end_time: Stop once the next event would run after this time.
                The clock is left at ``end_time`` (or at the last event time
                if that is later due to an exactly-equal timestamp).
            max_events: Optional safety cap on the number of events.

        Returns:
            The number of events executed by this call.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            if event.time > end_time + 1e-12:
                break
            heapq.heappop(self._heap)
            self._clock.advance_to(event.time)
            event.callback(self._clock.now)
            executed += 1
            self._processed += 1
        self._clock.advance_to(end_time)
        return executed
