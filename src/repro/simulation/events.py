"""The crawl loop's event streams.

The incremental crawler interleaves several recurring activities — popping
URLs from the priority queue, recomputing importance scores, taking
freshness measurements. :class:`StreamScheduler` orders those activities
in virtual time by ``(time, sequence)`` with sequence numbers assigned in
scheduling order, and exposes them as data rather than callbacks, so the
driver can pop one labelled event, *claim* the sequence numbers of an
entire run of same-stream follow-ups it intends to process in bulk, and
still interleave with the other streams exactly as a per-event callback
queue would have.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple


class StreamScheduler:
    """Heap of labelled recurring events ordered by ``(time, sequence)``.

    Sequence numbers are assigned in scheduling order, so a driver that
    replays the same scheduling decisions observes the same interleaving,
    including ties. The extra capability over a plain heap is
    :meth:`claim_sequence`: the crawl loop processes many crawl slots per
    pop, and each *virtual* slot consumes a sequence number just as its
    per-event counterpart would have, keeping every later tie-break
    decision identical to the event-per-fetch execution.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str]] = []
        self._next_sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def next_sequence(self) -> int:
        """The sequence number the next scheduled (or claimed) event gets."""
        return self._next_sequence

    def claim_sequence(self) -> int:
        """Consume and return the next sequence number without scheduling.

        Used for events that are processed inline (a crawl slot folded into
        a batch) but must still count against the ordering, so that a
        subsequent real event ties against later streams exactly as if the
        inline event had been scheduled and popped.
        """
        sequence = self._next_sequence
        self._next_sequence += 1
        return sequence

    def claim_sequences(self, count: int) -> None:
        """Consume ``count`` sequence numbers at once (bulk inline events)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._next_sequence += count

    def schedule(self, time: float, label: str) -> None:
        """Schedule a ``label`` event at virtual time ``time``."""
        heapq.heappush(self._heap, (time, self.claim_sequence(), label))

    def peek(self) -> Optional[Tuple[float, int, str]]:
        """The earliest ``(time, sequence, label)`` without removing it."""
        return self._heap[0] if self._heap else None

    def pop(self) -> Tuple[float, int, str]:
        """Remove and return the earliest ``(time, sequence, label)``."""
        return heapq.heappop(self._heap)

    def snapshot(self) -> dict:
        """JSON-serializable scheduler state (entries + sequence counter)."""
        return {
            "entries": [list(entry) for entry in sorted(self._heap)],
            "next_sequence": self._next_sequence,
        }

    def restore_snapshot(self, state: dict) -> None:
        """Rebuild the scheduler exactly as captured by :meth:`snapshot`."""
        self._heap = [
            (float(time), int(sequence), str(label))
            for time, sequence, label in state["entries"]
        ]
        heapq.heapify(self._heap)
        self._next_sequence = int(state["next_sequence"])
