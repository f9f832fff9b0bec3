"""CollUrls: the priority queue of collection URLs.

Figure 12: "CollUrls is implemented as a priority-queue, where the URLs to
be crawled early are placed in the front." The UpdateModule pops the due
heads, crawls them and pushes them back with their next scheduled visit
times; the RankingModule pushes newly admitted URLs to the very front so
they are crawled immediately, and removes URLs it decides to drop from the
collection.

The implementation is a binary heap keyed by ``(scheduled_time, sequence)``
with lazy deletion, so pushes, pops and removals are all logarithmic.
Ordering among entries that share a scheduled time is resolved purely by
the sequence number — front-of-queue placement uses a *negative* sequence
counter instead of nudging times by epsilons, which keeps bulk scheduling
collision-safe: identical times never collide ambiguously and no float
granularity games are needed.

The crawl loop drains and refills all crawl slots of a tick window with
:meth:`pop_due` / :meth:`schedule_many` / :meth:`restore`, a handful of
calls instead of one heap round-trip per fetched page;
:meth:`schedule_front_many` queues a refinement scan's admissions at once.
"""

from __future__ import annotations

import heapq
import math
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.storage.checkpoint import pack_floats, pack_ints, pack_urls, unpack_urls

#: A queue entry as returned by :meth:`CollUrls.pop_due`:
#: ``(scheduled_time, sequence, url)`` — the heap's native key layout, so
#: bulk pops hand entries over without re-packing, and the sequence makes an
#: entry restorable at its exact original queue position.
QueueEntry = Tuple[float, int, str]


class CollUrls:
    """Priority queue of URLs ordered by ``(scheduled_time, sequence)``.

    The URL-to-entry map stores the *same tuple object* that sits in the
    heap, so staleness checks during lazy deletion are identity comparisons
    rather than tuple comparisons.
    """

    def __init__(self) -> None:
        self._heap: List[QueueEntry] = []
        self._scheduled: Dict[str, QueueEntry] = {}
        # Plain-int counters (not itertools.count) so the queue can be
        # snapshotted and restored exactly for checkpoint/resume.
        self._counter = 0
        # Front-of-queue entries take sequence numbers from a *decreasing*
        # negative counter: the most recently admitted page is crawled first
        # (the paper's "placed on the top of CollUrls"), deterministically
        # and without perturbing any scheduled time.
        self._front_counter = -1

    def __contains__(self, url: str) -> bool:
        return url in self._scheduled

    def __len__(self) -> int:
        return len(self._scheduled)

    def schedule(self, url: str, visit_time: float) -> None:
        """Not called: the crawl loop runs :meth:`schedule_many`. Defined
        only because the e2e benchmark's tracer table names it."""

    def schedule_many(self, urls: Sequence[str], visit_times: Sequence[float]) -> None:
        """Insert each ``url`` with its visit time, rescheduling it if queued.

        One call for a whole batch of reschedules. The pairs take sequence
        numbers in order, so entries scheduled at the same time keep their
        scheduling order; a rescheduled URL's old heap entry is invalidated
        lazily.
        """
        if len(urls) != len(visit_times):
            raise ValueError("urls and visit_times must have the same length")
        counter = self._counter
        scheduled = self._scheduled
        heap = self._heap
        if len(urls) * 8 > len(heap):
            for url, visit_time in zip(urls, visit_times):
                entry = (visit_time, counter, url)
                counter += 1
                scheduled[url] = entry
                heap.append(entry)
            heapq.heapify(heap)
        else:
            for url, visit_time in zip(urls, visit_times):
                entry = (visit_time, counter, url)
                counter += 1
                scheduled[url] = entry
                heapq.heappush(heap, entry)
        self._counter = counter

    def schedule_front(self, url: str, now: float) -> None:
        """Place ``url`` at the very front of the queue.

        The RankingModule uses this for newly admitted pages: "The URL for
        this new page is placed on the top of CollUrls, so that the
        UpdateModule can crawl the page immediately." Front entries share
        the current head's scheduled time and win the tie through a negative
        sequence number (later admissions first), so repeated admissions
        never rely on float-epsilon nudges that could collide.
        """
        head_time = self.peek_time()
        front_time = now if head_time is None else min(now, head_time)
        entry = (front_time, self._front_counter, url)
        self._front_counter -= 1
        self._scheduled[url] = entry
        heapq.heappush(self._heap, entry)

    def schedule_front_many(self, urls: Sequence[str], now: float) -> None:
        """Bulk :meth:`schedule_front`: one call for a scan's admissions.

        Equivalent to calling :meth:`schedule_front` once per URL in order:
        after the first push that entry is the head, so every URL shares its
        front time, and the sequence numbers descend as they would.
        """
        if not urls:
            return
        head_time = self.peek_time()
        front_time = now if head_time is None else min(now, head_time)
        first = self._front_counter
        self._front_counter = first - len(urls)
        sequences = range(first, self._front_counter, -1)
        entries = list(zip(repeat(front_time), sequences, urls))
        self._scheduled.update(zip(urls, entries))
        if len(entries) * 8 > len(self._heap):  # as in schedule_many
            self._heap.extend(entries)
            heapq.heapify(self._heap)
        else:
            for entry in entries:
                heapq.heappush(self._heap, entry)

    def pop(self) -> None:
        """Not called: the crawl loop runs :meth:`pop_due`. Defined only
        because the e2e benchmark's tracer table names it."""

    def pop_due(
        self, until: float = math.inf, max_n: Optional[int] = None
    ) -> List[QueueEntry]:
        """Pop up to ``max_n`` entries scheduled at or before ``until``.

        Entries come out in exact queue order — ``(scheduled_time,
        sequence)`` ascending. The crawl loop drains a whole tick window
        with one call and puts any unconsumed tail back with
        :meth:`restore`.

        Args:
            until: Only entries with ``scheduled_time <= until`` are popped
                (the default pops regardless of time: the head is served
                to every crawl slot even when it is scheduled in the
                future).
            max_n: Cap on the number of entries popped (``None`` = no cap).

        Returns:
            ``(scheduled_time, sequence, url)`` tuples, earliest first.
        """
        popped: List[QueueEntry] = []
        append = popped.append
        limit = len(self._scheduled) if max_n is None else max_n
        heap = self._heap
        scheduled = self._scheduled
        heappop = heapq.heappop
        while heap and len(popped) < limit:
            entry = heap[0]
            url = entry[2]
            if scheduled.get(url) is not entry:
                heappop(heap)
                continue
            if entry[0] > until:
                break
            heappop(heap)
            del scheduled[url]
            append(entry)
        return popped

    def restore(self, entries: Sequence[QueueEntry]) -> None:
        """Reinsert entries popped by :meth:`pop_due` at their exact positions.

        The original ``(scheduled_time, sequence)`` key is preserved, so the
        restored entries resume the exact queue order they had before being
        popped. Only valid for entries whose URLs have not been rescheduled
        since they were popped.
        """
        for entry in entries:
            url = entry[2]
            if url in self._scheduled:
                raise ValueError(
                    f"cannot restore {url!r}: it has been rescheduled since"
                )
            self._scheduled[url] = entry
            heapq.heappush(self._heap, entry)

    def peek(self) -> Optional[Tuple[str, float]]:
        """The earliest ``(url, scheduled_time)`` without removing it."""
        while self._heap:
            entry = self._heap[0]
            url = entry[2]
            if self._scheduled.get(url) is not entry:
                heapq.heappop(self._heap)
                continue
            return url, entry[0]
        return None

    def peek_time(self) -> Optional[float]:
        """Scheduled time of the earliest entry (``None`` when empty)."""
        head = self.peek()
        return None if head is None else head[1]

    def remove(self, url: str) -> bool:
        """Drop ``url`` from the queue; returns False when it was not queued."""
        if url not in self._scheduled:
            return False
        del self._scheduled[url]
        return True

    def scheduled_time(self, url: str) -> Optional[float]:
        """The currently scheduled visit time of ``url`` (``None`` if absent)."""
        entry = self._scheduled.get(url)
        return None if entry is None else entry[0]

    def urls(self) -> List[str]:
        """All queued URLs (unordered)."""
        return list(self._scheduled.keys())

    def urls_in_queue_order(self) -> List[str]:
        """All queued URLs in exact queue order — ``(time, sequence)``.

        Unlike :meth:`urls`, whose order reflects dict-insertion history
        and therefore the *operational* path taken (a
        :meth:`pop_due`/:meth:`restore` round trip moves entries to the
        end even though their queue positions are unchanged), this order
        is a pure function of the queue contents. Order-sensitive
        consumers — anything that feeds a float reduction, where
        summation order shifts results at the ulp level — must use this
        so that engines taking different operational paths over the same
        queue state see the same sequence.
        """
        entries = sorted(self._scheduled.values())
        return [entry[2] for entry in entries]

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self, ids: Dict[str, int]) -> dict:
        """Checkpoint queue state: live entries + both counters.

        Entries are emitted as columns in canonical ``(time, sequence)``
        order (not dict-insertion order) so the snapshot is a pure function
        of the queue contents, independent of the operational path taken.
        The URLs are an index column through ``ids``
        (:func:`~repro.storage.checkpoint.pack_urls`).
        """
        entries = sorted(self._scheduled.values())
        return {
            "times": pack_floats([entry[0] for entry in entries]),
            "sequences": pack_ints([entry[1] for entry in entries]),
            "urls": pack_urls([entry[2] for entry in entries], ids),
            "next_sequence": self._counter,
            "next_front_sequence": self._front_counter,
        }

    def restore_snapshot(self, state: dict, table: Sequence[str]) -> None:
        """Rebuild the queue exactly as captured by :meth:`snapshot`, its
        URLs looked up in ``table``.

        Each entry tuple is built once and shared between the heap and the
        URL map, preserving the identity-based lazy-deletion invariant.
        """
        heap: List[QueueEntry] = list(zip(
            state["times"].tolist(), state["sequences"].tolist(), unpack_urls(state["urls"], table)
        ))
        scheduled = {entry[2]: entry for entry in heap}
        heapq.heapify(heap)
        self._heap = heap
        self._scheduled = scheduled
        self._counter = int(state["next_sequence"])
        self._front_counter = int(state["next_front_sequence"])
