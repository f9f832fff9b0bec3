"""Stored page records.

A :class:`PageRecord` is the unit the repository stores: the local copy of a
page together with the bookkeeping the incremental crawler needs — when the
copy was fetched, the content version it holds (for change detection: the
version plays the paper's checksum, Section 5.3), the page's estimated
importance (for the refinement decision) and the number of times the crawler
has visited and seen the page change (for the frequency estimators).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Dict, List, Sequence

from repro.storage.checkpoint import (
    INT,
    pack_floats,
    pack_ints,
    pack_urls,
    unpack_array,
    unpack_floats,
    unpack_urls,
)


@dataclass
class PageRecord:
    """The repository's copy of one page.

    Attributes:
        url: The page URL.
        version: Content version seen at the last fetch; a re-fetch that
            sees another version has detected a change.
        fetched_at: Virtual time of the last successful fetch.
        first_fetched_at: Virtual time of the first successful fetch.
        outlinks: Out-links extracted at the last fetch.
        importance: Latest importance score assigned by the RankingModule.
        visit_count: Number of times the crawler has fetched this page.
        change_count: Number of visits at which a change was detected.
    """

    url: str
    version: int
    fetched_at: float
    first_fetched_at: float
    outlinks: Sequence[str] = field(default_factory=tuple)
    importance: float = 0.0
    visit_count: int = 1
    change_count: int = 0

    def __post_init__(self) -> None:
        if self.fetched_at < 0 or self.first_fetched_at < 0:
            raise ValueError("fetch times must be non-negative")
        if self.fetched_at < self.first_fetched_at:
            raise ValueError("fetched_at cannot precede first_fetched_at")
        if self.visit_count < 1:
            raise ValueError("a stored record implies at least one visit")
        if self.change_count < 0 or self.change_count > self.visit_count:
            raise ValueError("change_count must be between 0 and visit_count")


#: Every field in constructor order, and the ones a checkpoint packs (the
#: version as 64 bits: it plays the paper's page checksum).
_FIELDS = tuple(f.name for f in fields(PageRecord))
_FLOAT_FIELDS = ("fetched_at", "first_fetched_at", "importance")
_INT_FIELDS = {"version": "<i8", "visit_count": INT, "change_count": INT}


def records_to_columns(records: Sequence[PageRecord], ids: Dict[str, int]) -> dict:
    """A collection image: one column per field, in record order.

    The float and int fields are packed
    (:func:`~repro.storage.checkpoint.pack_floats`, ``pack_ints``), the
    URLs as index columns through ``ids``
    (:func:`~repro.storage.checkpoint.pack_urls`): ``url``, and every
    out-link back to back in ``outlinks``, split by ``outlink_counts``.
    """
    columns = {name: [getattr(record, name) for record in records] for name in _FIELDS}
    for name in _FLOAT_FIELDS:
        columns[name] = pack_floats(columns[name])
    for name, dtype in _INT_FIELDS.items():
        columns[name] = pack_ints(columns[name], dtype)
    columns["url"] = pack_urls(columns["url"], ids)
    outlinks = columns["outlinks"]
    columns["outlinks"] = pack_urls([url for links in outlinks for url in links], ids)
    columns["outlink_counts"] = pack_ints(list(map(len, outlinks)))
    return columns


def records_from_columns(columns: dict, table: Sequence[str]) -> List[PageRecord]:
    """Rebuild the records :func:`records_to_columns` wrote, in order, their
    URLs looked up in ``table``."""
    values = dict(columns)
    for name in _FLOAT_FIELDS:
        values[name] = unpack_floats(columns[name])
    for name, dtype in _INT_FIELDS.items():
        values[name] = unpack_array(columns[name], dtype).tolist()
    values["url"] = unpack_urls(columns["url"], table)
    links = iter(unpack_urls(columns["outlinks"], table))
    counts = unpack_array(columns["outlink_counts"]).tolist()
    values["outlinks"] = [tuple(islice(links, count)) for count in counts]
    return [PageRecord(*row) for row in zip(*(values[name] for name in _FIELDS))]
