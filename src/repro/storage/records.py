"""Stored page records.

A :class:`PageRecord` is the unit the repository stores: the local copy of a
page together with the bookkeeping the incremental crawler needs — when the
copy was fetched, the content version it holds (for change detection: the
version plays the paper's checksum, Section 5.3), the page's estimated
importance (for the refinement decision) and the number of times the crawler
has visited and seen the page change (for the frequency estimators).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Sequence

from repro.storage.checkpoint import pack_floats, unpack_floats


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

    def refreshed(
        self,
        version: int,
        fetched_at: float,
        outlinks: Sequence[str],
    ) -> "PageRecord":
        """Return a new record reflecting a re-fetch of the page.

        The change counter is incremented when the version differs from the
        stored one, which is exactly how the UpdateModule detects changes.
        """
        if fetched_at < self.fetched_at:
            raise ValueError("re-fetch time cannot precede the previous fetch")
        changed = version != self.version
        return replace(
            self,
            version=version,
            fetched_at=fetched_at,
            outlinks=tuple(outlinks),
            visit_count=self.visit_count + 1,
            change_count=self.change_count + (1 if changed else 0),
        )

    @property
    def observed_change_fraction(self) -> float:
        """Fraction of visits at which a change was observed."""
        if self.visit_count == 0:
            return 0.0
        return self.change_count / self.visit_count

    def observation_span(self) -> float:
        """Days between the first and the most recent fetch."""
        return self.fetched_at - self.first_fetched_at


def record_to_dict(record: PageRecord) -> dict:
    """A JSON-serializable dict holding every field of ``record``.

    Floats survive a JSON round trip bit-exactly (``json`` serialises with
    ``repr``, the shortest round-tripping form), which the checkpoint/resume
    parity guarantee relies on.
    """
    return {
        "url": record.url,
        "version": record.version,
        "fetched_at": record.fetched_at,
        "first_fetched_at": record.first_fetched_at,
        "outlinks": list(record.outlinks),
        "importance": record.importance,
        "visit_count": record.visit_count,
        "change_count": record.change_count,
    }


#: Every field in constructor order, and the ones a checkpoint packs as floats.
_FIELDS = tuple(f.name for f in fields(PageRecord))
_FLOAT_FIELDS = ("fetched_at", "first_fetched_at", "importance")


def records_to_columns(records: Sequence[PageRecord]) -> dict:
    """A checkpoint's collection image: one column per field, in record order.

    The float fields are packed (:func:`~repro.storage.checkpoint.pack_floats`).
    """
    columns = {name: [getattr(record, name) for record in records] for name in _FIELDS}
    for name in _FLOAT_FIELDS:
        columns[name] = pack_floats(columns[name])
    return columns


def records_from_columns(columns: dict) -> List[PageRecord]:
    """Rebuild the records :func:`records_to_columns` wrote, in order."""
    values = {
        name: unpack_floats(columns[name]) if name in _FLOAT_FIELDS else columns[name]
        for name in _FIELDS
    }
    values["outlinks"] = map(tuple, values["outlinks"])
    return [PageRecord(*row) for row in zip(*values.values())]
