"""Pluggable collection storage backends.

The paper's WebBase crawler maintains a *long-lived* collection; until this
module existed, every crawl's records, change-history events and estimator
state lived in Python dicts and died with the process. A
:class:`StorageBackend` persists three kinds of data:

* **crawl records** — the collection's :class:`~repro.storage.records.PageRecord`
  rows (put/get/scan/delete, mirroring the repository);
* **change-history events** — an append-only log of per-fetch observations
  ``(url, time, changed, stored)``, the durable form of what feeds the
  frequency estimators;
* **named state blobs** — JSON documents holding checkpointed crawler state
  (queue order, estimator running sums, politeness last-request map — see
  :mod:`repro.storage.checkpoint`), stored as the text that was written.

Backends are selected by name through the ``STORAGE_BACKENDS`` registry
(``repro.api.registry``), exactly like revisit policies and estimators:

* ``memory`` — plain dicts/lists; the default, no persistence, bit-identical
  to pre-backend behaviour;
* ``sqlite`` — a WAL-mode SQLite database written with batched
  ``executemany`` calls inside one open transaction, which only
  :meth:`~StorageBackend.flush` commits: a checkpointed crawl flushes with
  each checkpoint, so after a kill the file holds exactly its last
  committed checkpoint.

All scans return live records in **first-put order** (re-putting an existing
URL keeps its position; deleting and re-putting moves it to the end), which
every backend implements identically so callers can rely on one contract.
"""

from __future__ import annotations

import json
import sqlite3
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.registry import register_storage_backend
from repro.storage.records import PageRecord

#: One change-history event: (url, virtual time, change detected, page stored).
ChangeEvent = Tuple[str, float, bool, bool]


class StorageBackend(ABC):
    """Abstract interface every collection store implements.

    The interface is deliberately batch-first: ``put_records`` and
    ``append_events`` take sequences because the batched crawl engine
    produces whole tick windows of outcomes at once.
    """

    #: Whether this backend *can* keep data across processes (when given a
    #: path); :attr:`persistent` reports whether this instance actually does.
    can_persist: bool = False

    # ------------------------------------------------------------------ #
    # Crawl records
    # ------------------------------------------------------------------ #
    @abstractmethod
    def put_records(self, records: Iterable[PageRecord]) -> None:
        """Insert or replace the given records (keyed by URL)."""

    @abstractmethod
    def get_record(self, url: str) -> Optional[PageRecord]:
        """The stored record for ``url``, or ``None``."""

    @abstractmethod
    def delete_record(self, url: str) -> bool:
        """Remove ``url``; returns ``False`` when it was not stored."""

    @abstractmethod
    def scan_records(self) -> List[PageRecord]:
        """All stored records, in first-put order."""

    @abstractmethod
    def record_count(self) -> int:
        """Number of stored records."""

    def replace_records(self, records: Iterable[PageRecord]) -> None:
        """Atomically swap the whole record set (clear + put)."""
        self.clear_records()
        self.put_records(records)

    def update_importance(self, records: Sequence[PageRecord]) -> None:
        """Rewrite the ``importance`` of stored records (here: re-put them)."""
        self.put_records(records)

    def update_fetches(self, records: Sequence[PageRecord]) -> None:
        """Rewrite ``fetched_at``, ``visit_count`` and ``importance`` of
        stored records, the fields an unchanged re-fetch moves (here: re-put
        them)."""
        self.put_records(records)

    @abstractmethod
    def clear_records(self) -> None:
        """Remove every stored record."""

    # ------------------------------------------------------------------ #
    # Change-history events
    # ------------------------------------------------------------------ #
    @abstractmethod
    def append_events(self, events: Sequence[ChangeEvent]) -> None:
        """Append observations to the change-history log."""

    @abstractmethod
    def scan_events(self) -> List[ChangeEvent]:
        """The full event log, in append order."""

    @abstractmethod
    def event_count(self) -> int:
        """Number of logged events."""

    @abstractmethod
    def truncate_events(self, count: int) -> None:
        """Keep only the first ``count`` events (drop the tail).

        Used on resume to discard events a killed run appended after the
        checkpoint being restored.
        """

    # ------------------------------------------------------------------ #
    # Named state blobs
    # ------------------------------------------------------------------ #
    @abstractmethod
    def save_state_text(self, key: str, text: str) -> None:
        """Persist ``text`` verbatim under ``key`` (overwrites)."""

    @abstractmethod
    def load_state_text(self, key: str) -> Optional[str]:
        """The text stored under ``key``, exactly as written, or ``None``."""

    @abstractmethod
    def delete_state(self, key: str) -> bool:
        """Drop the state document under ``key``; False when absent."""

    def save_state(self, key: str, payload: dict) -> None:
        """Persist a JSON-serializable document under ``key``; the one place
        state is encoded, so a bad payload fails loudly here on every backend."""
        self.save_state_text(key, json.dumps(payload))

    def load_state(self, key: str) -> Optional[dict]:
        """A fresh copy (tuples now lists) of the document at ``key``, or ``None``."""
        text = self.load_state_text(key)
        return None if text is None else json.loads(text)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Commit every write since the last flush, atomically.

        The only point at which a durable backend's contents change: until
        it, writes are visible to this instance alone. A no-op for the
        volatile backends, whose writes apply at once.
        """

    def close(self) -> None:
        """Release held resources; the backend is unusable afterwards.

        A durable backend drops whatever was written since the last
        :meth:`flush`, exactly as a killed process would.
        """

    @property
    def persistent(self) -> bool:
        """True when the data survives this process."""
        return False


@register_storage_backend("memory")
class MemoryBackend(StorageBackend):
    """Dict/list-backed store — the pre-backend behaviour, made explicit.

    Records are held by reference (not copied), so a record mutated in place
    by the crawler is immediately current here; ``scan_records`` therefore
    reflects live crawler state exactly, which keeps the ``memory`` backend
    bit-identical to running without any backend at all.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        # ``path`` is accepted (and ignored) so every backend shares one
        # construction signature through the registry.
        self._records: Dict[str, PageRecord] = {}
        self._events: List[ChangeEvent] = []
        self._state: Dict[str, str] = {}

    def put_records(self, records: Iterable[PageRecord]) -> None:
        for record in records:
            self._records[record.url] = record

    def get_record(self, url: str) -> Optional[PageRecord]:
        return self._records.get(url)

    def delete_record(self, url: str) -> bool:
        return self._records.pop(url, None) is not None

    def scan_records(self) -> List[PageRecord]:
        return list(self._records.values())

    def record_count(self) -> int:
        return len(self._records)

    def clear_records(self) -> None:
        self._records.clear()

    def append_events(self, events: Sequence[ChangeEvent]) -> None:
        self._events.extend(
            (str(url), float(time), bool(changed), bool(stored))
            for url, time, changed, stored in events
        )

    def scan_events(self) -> List[ChangeEvent]:
        return list(self._events)

    def event_count(self) -> int:
        return len(self._events)

    def truncate_events(self, count: int) -> None:
        del self._events[max(0, count):]

    def save_state_text(self, key: str, text: str) -> None:
        self._state[key] = text

    def load_state_text(self, key: str) -> Optional[str]:
        return self._state.get(key)

    def delete_state(self, key: str) -> bool:
        return self._state.pop(key, None) is not None


@register_storage_backend("sqlite")
class SqliteBackend(StorageBackend):
    """SQLite-backed store (WAL mode when file-backed).

    Writes are batched ``executemany`` statements that accumulate in one
    open transaction; :meth:`flush` is the only commit and :meth:`close`
    without it rolls back. A crawl flushes with each checkpoint, so a killed
    run leaves the file at its last committed checkpoint. ``path=None``
    opens an in-memory database (useful for tests and benchmarks); a file
    path makes the store durable and enables WAL journaling so a killed
    crawler never corrupts the database.

    The only durable backend in the box: ``can_persist`` is ``True``.

    SQLite ``REAL`` columns are IEEE-754 doubles, so fetch timestamps and
    importance scores round-trip bit-exactly — the resume parity guarantee
    depends on this.

    A file whose ``records`` table has other columns (a store written by
    an older build) is refused on open, naming both layouts.
    """

    can_persist = True

    #: The ``records`` columns this build reads and writes, in table order.
    _RECORD_COLUMNS = (
        "url", "version", "fetched_at", "first_fetched_at", "outlinks",
        "importance", "visit_count", "change_count",
    )
    _SELECT_RECORDS = f"SELECT {', '.join(_RECORD_COLUMNS)} FROM records"

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS records (
        url TEXT PRIMARY KEY,
        version INTEGER NOT NULL,
        fetched_at REAL NOT NULL,
        first_fetched_at REAL NOT NULL,
        outlinks TEXT NOT NULL,
        importance REAL NOT NULL,
        visit_count INTEGER NOT NULL,
        change_count INTEGER NOT NULL
    );
    CREATE TABLE IF NOT EXISTS events (
        seq INTEGER PRIMARY KEY,
        url TEXT NOT NULL,
        time REAL NOT NULL,
        changed INTEGER NOT NULL,
        stored INTEGER NOT NULL
    );
    CREATE TABLE IF NOT EXISTS state (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    );
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = path
        self._conn = sqlite3.connect(path if path is not None else ":memory:")
        found = tuple(
            row[1] for row in self._conn.execute("PRAGMA table_info(records)")
        )
        if found and found != self._RECORD_COLUMNS:
            self._conn.close()
            raise ValueError(
                f"store {path!r} holds records with columns {list(found)}: "
                f"this build reads and writes {list(self._RECORD_COLUMNS)} only"
            )
        if path is not None:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(self._SCHEMA)
        self._conn.commit()

    @property
    def path(self) -> Optional[str]:
        """The database file path (``None`` for in-memory)."""
        return self._path

    def put_records(self, records: Iterable[PageRecord]) -> None:
        rows = [
            (
                record.url,
                record.version,
                record.fetched_at,
                record.first_fetched_at,
                json.dumps(list(record.outlinks)),
                record.importance,
                record.visit_count,
                record.change_count,
            )
            for record in records
        ]
        if not rows:
            return
        # Upsert (rather than INSERT OR REPLACE) keeps the original rowid,
        # preserving first-put scan order across re-fetch updates.
        self._conn.executemany(
            """
            INSERT INTO records
                (url, version, fetched_at, first_fetched_at,
                 outlinks, importance, visit_count, change_count)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?)
            ON CONFLICT(url) DO UPDATE SET
                version=excluded.version,
                fetched_at=excluded.fetched_at,
                first_fetched_at=excluded.first_fetched_at,
                outlinks=excluded.outlinks,
                importance=excluded.importance,
                visit_count=excluded.visit_count,
                change_count=excluded.change_count
            """,
            rows,
        )

    def update_importance(self, records: Sequence[PageRecord]) -> None:
        """One ``UPDATE`` per record in one ``executemany``; every row must exist."""
        self._update_rows(
            "importance", "importance = ?",
            [(record.importance, record.url) for record in records],
        )

    def update_fetches(self, records: Sequence[PageRecord]) -> None:
        """Like :meth:`update_importance`, for the three columns an unchanged
        re-fetch moves; skips :meth:`put_records`' ``json.dumps`` of out-links."""
        self._update_rows(
            "fetch", "fetched_at = ?, visit_count = ?, importance = ?",
            [
                (record.fetched_at, record.visit_count, record.importance, record.url)
                for record in records
            ],
        )

    def _update_rows(self, what: str, assignments: str, rows: List[Tuple]) -> None:
        """``UPDATE records SET <assignments> WHERE url = ?`` for every row,
        raising when a row is missing (the store stopped mirroring)."""
        if not rows:
            return
        cursor = self._conn.executemany(
            f"UPDATE records SET {assignments} WHERE url = ?", rows
        )
        if cursor.rowcount != len(rows):
            raise RuntimeError(
                f"{what} update matched {cursor.rowcount} of {len(rows)} "
                "records: the store no longer mirrors the collection"
            )

    def get_record(self, url: str) -> Optional[PageRecord]:
        row = self._conn.execute(
            f"{self._SELECT_RECORDS} WHERE url = ?", (url,)
        ).fetchone()
        if row is None:
            return None
        return self._row_to_record(row)

    def delete_record(self, url: str) -> bool:
        cursor = self._conn.execute("DELETE FROM records WHERE url = ?", (url,))
        return cursor.rowcount > 0

    def scan_records(self) -> List[PageRecord]:
        rows = self._conn.execute(f"{self._SELECT_RECORDS} ORDER BY rowid").fetchall()
        return [self._row_to_record(row) for row in rows]

    def record_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def clear_records(self) -> None:
        self._conn.execute("DELETE FROM records")

    def append_events(self, events: Sequence[ChangeEvent]) -> None:
        if not events:
            return
        self._conn.executemany(
            "INSERT INTO events (url, time, changed, stored) VALUES (?, ?, ?, ?)",
            (
                (str(url), float(time), int(bool(changed)), int(bool(stored)))
                for url, time, changed, stored in events
            ),
        )

    def scan_events(self) -> List[ChangeEvent]:
        rows = self._conn.execute(
            "SELECT url, time, changed, stored FROM events ORDER BY seq"
        ).fetchall()
        return [(url, time, bool(changed), bool(stored)) for url, time, changed, stored in rows]

    def event_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM events").fetchone()[0]

    def truncate_events(self, count: int) -> None:
        self._conn.execute(
            "DELETE FROM events WHERE seq NOT IN"
            " (SELECT seq FROM events ORDER BY seq LIMIT ?)",
            (max(0, count),),
        )

    def save_state_text(self, key: str, text: str) -> None:
        self._conn.execute(
            "INSERT INTO state (key, value) VALUES (?, ?)"
            " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
            (key, text),
        )

    def load_state_text(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM state WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def delete_state(self, key: str) -> bool:
        cursor = self._conn.execute("DELETE FROM state WHERE key = ?", (key,))
        return cursor.rowcount > 0

    def flush(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    @property
    def persistent(self) -> bool:
        return self._path is not None

    @staticmethod
    def _row_to_record(row: Tuple) -> PageRecord:
        (url, version, fetched_at, first_fetched_at,
         outlinks, importance, visit_count, change_count) = row
        return PageRecord(
            url=url,
            version=version,
            fetched_at=fetched_at,
            first_fetched_at=first_fetched_at,
            outlinks=tuple(json.loads(outlinks)),
            importance=importance,
            visit_count=visit_count,
            change_count=change_count,
        )

