"""The collection store: one SQLite database per crawl.

The paper's WebBase crawler maintains a *long-lived* collection. A
:class:`SqliteBackend` persists it as **named state values**, each stored
as it was written: JSON texts, and beside a checkpoint's or an image's JSON
header its raw column bytes as a BLOB. The values are the two checkpoint
slots (full crawler snapshots, see :mod:`repro.storage.checkpoint`), a
completed run's result and its final collection image.

The collection is stored once: as the ``collection`` columns of each
checkpoint, and at run end as the final image. Each page's observations
(visit times, changed bits, intervals) live in the checkpoint's estimator
histories. ``records`` and ``events`` tables left by older builds, which
mirrored the collection row by row and logged every fetch, are neither read
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
from typing import Optional, Union

from repro.api.registry import register_storage_backend

@register_storage_backend("sqlite")
class SqliteBackend:
    """SQLite collection store: in memory without a path, durable WAL with one.

    The contract is state values (save, load, delete, plus the JSON pair),
    :meth:`flush` as the only commit, and :meth:`close`.

    A path that cannot be opened as a database, or whose write lock another
    connection holds past SQLite's busy timeout, is refused with a
    ``ValueError`` naming the path; so is a read, a write or a commit SQLite
    fails (a damaged page or a full disk among them).
    """

    _SCHEMA = """
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

    def save_state_text(self, key: str, value: Union[str, bytes]) -> None:
        """Store ``value`` verbatim under ``key`` (overwrites): a text, or
        bytes, which SQLite keeps as a BLOB."""
        try:
            self._conn.execute(
                "INSERT INTO state (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (key, value),
            )
        except sqlite3.Error as error:
            raise ValueError(f"cannot write store {self._path!r}: {error}") from error

    def load_state_text(self, key: str) -> Optional[Union[str, bytes]]:
        """The value stored under ``key`` as it was written, or ``None``."""
        try:
            row = self._conn.execute("SELECT value FROM state WHERE key = ?", (key,)).fetchone()
        except sqlite3.Error as error:
            raise ValueError(f"cannot read store {self._path!r}: {error}") from error
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
        try:
            self._conn.commit()
        except sqlite3.Error as error:
            raise ValueError(f"cannot commit store {self._path!r}: {error}") from error
        try:
            self._conn.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as error:
            raise ValueError(f"cannot lock store {self._path!r}: {error}") from error

    def close(self) -> None:
        """Release the connection, dropping whatever was written since the
        last :meth:`flush`, exactly as a killed process would."""
        self._conn.close()
