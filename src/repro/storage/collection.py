"""In-place and shadowing collections.

Section 4 (design choice 2) contrasts two ways a crawler can install newly
fetched pages:

* **in-place update** — the fetched copy immediately replaces the old copy
  in the collection users query;
* **shadowing** — fetched copies accumulate in a separate *crawler's
  collection*; when the crawl cycle completes, the *current collection* is
  atomically replaced by the crawler's collection.

Both disciplines implement the same :class:`Collection` interface so that
crawlers and metrics are agnostic of the choice. The freshness of what users
actually see is always computed over :meth:`Collection.current_records`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional

from repro.storage.records import PageRecord


class CollectionFullError(RuntimeError):
    """Raised when storing a new page into a collection that is at capacity."""


class Collection(ABC):
    """Common interface of the two update disciplines.

    The paper's conceptual model (Algorithm 5.1) assumes "the local
    collection maintains a fixed number of pages": storing a *new* page into
    a full working collection is refused, so the RankingModule must discard
    a page first. Records live in plain dicts keyed by URL, whose insertion
    order is the collection's scan order.

    Args:
        capacity: Maximum number of records in the working collection;
            ``None`` means unbounded.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be at least 1 when given")
        self.capacity = capacity
        self._working: Dict[str, PageRecord] = {}

    def store(self, record: PageRecord) -> None:
        """Install a fetched page copy (new page or re-fetch).

        A re-fetch replaces the stored record in place, keeping its
        position in the scan order.

        Raises:
            CollectionFullError: When the working collection is at capacity
                and the URL is not already stored — Steps [7]-[9] of
                Algorithm 5.1 discard a page first.
        """
        records = self._working
        if (
            record.url not in records
            and self.capacity is not None
            and len(records) >= self.capacity
        ):
            raise CollectionFullError(
                f"collection is at capacity ({self.capacity}); discard a page first"
            )
        records[record.url] = record

    def discard(self, url: str) -> Optional[PageRecord]:
        """Remove a page from the crawler's working collection."""
        return self._working.pop(url, None)

    @abstractmethod
    def current_records(self) -> List[PageRecord]:
        """Records visible to users/queries right now."""

    def current_urls(self) -> List[str]:
        """URLs visible to users/queries right now.

        Cheaper than :meth:`current_records` for callers (quality sampling)
        that only need the key set, not the record objects.
        """
        return [record.url for record in self.current_records()]

    def working_records(self) -> List[PageRecord]:
        """Records in the crawler's working collection (same as current for
        in-place updates; the shadow space for a shadowing collection)."""
        return list(self._working.values())

    def get_working(self, url: str) -> Optional[PageRecord]:
        """Working-collection record for ``url`` (None when absent)."""
        return self._working.get(url)

    @abstractmethod
    def complete_cycle(self, at: float) -> None:
        """Signal that a crawl cycle finished at virtual time ``at``."""

    def current_size(self) -> int:
        """Number of records users can currently query."""
        return len(self.current_records())


class InPlaceCollection(Collection):
    """A collection whose pages are updated in place.

    New and re-fetched pages become visible to users immediately; the
    crawler and queries see the same records.
    """

    def current_records(self) -> List[PageRecord]:
        return list(self._working.values())

    def current_urls(self) -> List[str]:
        return list(self._working)

    def complete_cycle(self, at: float) -> None:
        """In-place collections have no cycle boundary; this is a no-op."""


class ShadowCollection(Collection):
    """A collection maintained by shadowing.

    The crawler writes into the *shadow* (working) records. Queries read the
    *current* records, which are only replaced when :meth:`complete_cycle`
    is called — that is the instant the paper's Figure 8 marks with dotted
    lines, where the freshness of the current collection jumps to the
    freshness of the crawler's collection.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        super().__init__(capacity)
        self._current: Dict[str, PageRecord] = {}
        self._swap_times: List[float] = []

    @property
    def swap_times(self) -> List[float]:
        """Virtual times at which the current collection was replaced."""
        return list(self._swap_times)

    def current_records(self) -> List[PageRecord]:
        return list(self._current.values())

    def current_urls(self) -> List[str]:
        return list(self._current)

    def complete_cycle(self, at: float) -> None:
        """Atomically replace the current collection with the shadow one.

        The shadow space starts empty afterwards: the next cycle collects a
        brand new set of pages from scratch, as described in Section 4.
        """
        self._current, self._working = self._working, {}
        self._swap_times.append(at)
