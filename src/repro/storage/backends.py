"""The collection store: one SQLite database per crawl.

The paper's WebBase crawler maintains a *long-lived* collection. A
:class:`SqliteBackend` persists three kinds of data:

* **crawl records** — the collection's :class:`~repro.storage.records.PageRecord`
  rows (put/get/scan/delete, mirroring the repository);
* **change-history events** — an append-only log of per-fetch observations
  ``(url, time, changed, stored)``, the durable form of what feeds the
  frequency estimators;
* **named state blobs** — JSON documents holding checkpointed crawler state
  (queue order, estimator running sums, politeness last-request map — see
  :mod:`repro.storage.checkpoint`), stored as the text that was written.

It is registered as ``sqlite`` in the ``STORAGE_BACKENDS`` registry
(``repro.api.registry``), the one name a spec's ``crawler.storage`` takes.
``path=None`` gives a volatile in-memory database; a file path gives a
durable WAL-mode one. Writes are batched ``executemany`` calls inside one
open transaction, which only :meth:`~SqliteBackend.flush` commits: a
checkpointed crawl flushes with each checkpoint, so after a kill the file
holds exactly its last committed checkpoint.

Scans return records in **first-put order**: re-putting an existing URL
keeps its position; deleting and re-putting moves it to the end.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.api.registry import register_storage_backend
from repro.storage.records import PageRecord

#: One change-history event: (url, virtual time, change detected, page stored).
ChangeEvent = Tuple[str, float, bool, bool]


@register_storage_backend("sqlite")
class SqliteBackend:
    """SQLite collection store: in memory without a path, durable WAL with one.

    The interface is batch-first: ``put_records`` and ``append_events`` take
    sequences because the batched crawl engine produces whole tick windows
    of outcomes at once. SQLite ``REAL`` columns are IEEE-754 doubles, so
    fetch timestamps and importance scores round-trip bit-exactly — the
    resume parity guarantee depends on this.

    A path that cannot be opened as a database, and a file whose ``records``
    table has other columns (a store written by an older build), are refused
    on open with a ``ValueError`` naming the path.
    """

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
        conn = None
        try:
            conn = sqlite3.connect(path if path is not None else ":memory:")
            found = tuple(row[1] for row in conn.execute("PRAGMA table_info(records)"))
        except sqlite3.Error as error:
            if conn is not None:
                conn.close()
            raise ValueError(f"cannot open store {path!r}: {error}") from error
        self._conn = conn
        if found and found != self._RECORD_COLUMNS:
            conn.close()
            raise ValueError(
                f"store {path!r} holds records with columns {list(found)}: "
                f"this build reads and writes {list(self._RECORD_COLUMNS)} only"
            )
        if path is not None:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(self._SCHEMA)
        conn.commit()

    @property
    def path(self) -> Optional[str]:
        """The database file path (``None`` for in-memory)."""
        return self._path

    def put_records(self, records: Iterable[PageRecord]) -> None:
        """Insert or replace the given records (keyed by URL)."""
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

    def replace_records(self, records: Iterable[PageRecord]) -> None:
        """Swap the whole record set (clear + put) inside the open transaction."""
        self.clear_records()
        self.put_records(records)

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
        """Keep only the first ``count`` events: on resume, drops what a
        killed run appended after the checkpoint being restored."""
        self._conn.execute(
            "DELETE FROM events WHERE seq NOT IN"
            " (SELECT seq FROM events ORDER BY seq LIMIT ?)",
            (max(0, count),),
        )

    def save_state_text(self, key: str, text: str) -> None:
        """Store ``text`` verbatim under ``key`` (overwrites)."""
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

    def save_state(self, key: str, payload: dict) -> None:
        """Store a JSON-serializable document under ``key``; the one place
        state is encoded, so a bad payload fails loudly here."""
        self.save_state_text(key, json.dumps(payload))

    def load_state(self, key: str) -> Optional[dict]:
        """A fresh copy (tuples now lists) of the document at ``key``, or ``None``."""
        text = self.load_state_text(key)
        return None if text is None else json.loads(text)

    def flush(self) -> None:
        """Commit every write since the last flush, atomically: the only
        point at which the file's contents change."""
        self._conn.commit()

    def close(self) -> None:
        """Release the connection, dropping whatever was written since the
        last :meth:`flush`, exactly as a killed process would."""
        self._conn.close()

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

