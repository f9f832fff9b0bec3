"""The collection store: one SQLite database per crawl.

The paper's WebBase crawler maintains a *long-lived* collection. A
:class:`SqliteBackend` persists two kinds of data:

* **change-history events** — an append-only log of per-fetch observations
  ``(url, time, changed, stored)``, the durable form of what feeds the
  frequency estimators;
* **named state texts** — JSON documents stored as the text that was
  written: the two checkpoint slots (full crawler snapshots, see
  :mod:`repro.storage.checkpoint`), a completed run's result and its final
  collection image.

The collection itself is stored once: as the ``collection`` columns of each
checkpoint, and at run end as the final image. A ``records`` table left by
an older build, which mirrored the collection row by row, is neither read
nor written.

It is registered as ``sqlite`` in the ``STORAGE_BACKENDS`` registry
(``repro.api.registry``), the one name a spec's ``crawler.storage`` takes.
``path=None`` gives a volatile in-memory database; a file path gives a
durable WAL-mode one. Every write goes into one open transaction, which
only :meth:`~SqliteBackend.flush` commits: a checkpointed crawl flushes with
each checkpoint, so after a kill the file holds exactly its last committed
checkpoint. That transaction holds SQLite's write lock from the moment the
store opens, so a store another connection is writing is refused at open,
before any crawl work.
"""

from __future__ import annotations

import json
import sqlite3
from typing import List, Optional, Sequence, Tuple

from repro.api.registry import register_storage_backend

#: One change-history event: (url, virtual time, change detected, page stored).
ChangeEvent = Tuple[str, float, bool, bool]


@register_storage_backend("sqlite")
class SqliteBackend:
    """SQLite collection store: in memory without a path, durable WAL with one.

    The contract is events (append, scan, count, truncate), state texts
    (save, load, delete, plus the JSON pair), :meth:`flush` as the only
    commit, and :meth:`close`. ``append_events`` takes a sequence because
    the batched crawl engine produces whole tick windows of outcomes at
    once. SQLite ``REAL`` columns are IEEE-754 doubles, so event times
    round-trip bit-exactly.

    A path that cannot be opened as a database, or whose write lock another
    connection holds past SQLite's busy timeout, is refused with a
    ``ValueError`` naming the path.
    """

    _SCHEMA = """
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
            if path is not None:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(self._SCHEMA)
            conn.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as error:
            if conn is not None:
                conn.close()
            raise ValueError(f"cannot open store {path!r}: {error}") from error
        self._conn = conn

    @property
    def path(self) -> Optional[str]:
        """The database file path (``None`` for in-memory)."""
        return self._path

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
        """Commit every write since the last flush, atomically (the only
        point at which the file's contents change), and take the write lock
        again for the next."""
        self._conn.commit()
        try:
            self._conn.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as error:
            raise ValueError(f"cannot lock store {self._path!r}: {error}") from error

    def close(self) -> None:
        """Release the connection, dropping whatever was written since the
        last :meth:`flush`, exactly as a killed process would."""
        self._conn.close()
