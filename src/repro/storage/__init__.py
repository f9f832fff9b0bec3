"""Repository substrate: the crawler's local collection.

The paper's WebBase repository stores the crawled copies of pages; the
crawler either updates pages *in place* or builds a *shadow* collection that
replaces the current one when a crawl cycle completes (Section 4, item 2).

This package provides:

* :class:`PageRecord` — the stored copy of one page (the content version
  it holds, which plays the paper's checksum; fetch time, importance,
  change history);
* :class:`InPlaceCollection` and :class:`ShadowCollection` — the two update
  disciplines the paper compares, behind a common, capacity-bounded
  :class:`Collection` interface (what users/queries see is
  ``current_records``);
* :class:`SqliteBackend` — the one store for checkpoint state and a
  completed run's result and final collection image, volatile in memory or
  durable in a file, registered as ``sqlite`` in
  :data:`repro.api.registry.STORAGE_BACKENDS`;
* :class:`CollectionJournal` and :class:`CrawlCheckpointer` — the writer of
  a run's final collection image and the resumable-state snapshotter whose
  save commits the store.
"""

from repro.storage.records import PageRecord, record_to_dict
from repro.storage.collection import Collection, InPlaceCollection, ShadowCollection
from repro.storage.backends import SqliteBackend
from repro.storage.checkpoint import CollectionJournal, CrawlCheckpointer

__all__ = [
    "PageRecord",
    "record_to_dict",
    "Collection",
    "InPlaceCollection",
    "ShadowCollection",
    "SqliteBackend",
    "CollectionJournal",
    "CrawlCheckpointer",
]
