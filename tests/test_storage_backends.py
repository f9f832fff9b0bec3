"""Contract tests for the SQLite collection store.

The store honours one contract in both its forms — state texts (JSON
documents among them) that round-trip floats bit-exactly — so the contract
tests run on an in-memory store and on a WAL file. The file form adds two
rules: ``flush`` is its only commit, and ``close`` without it drops the
unflushed writes; and the store holds SQLite's write lock from open to
close, so a store another connection holds is refused at open. A write or
a commit SQLite fails, a full disk among them, is refused naming the store.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sqlite3
import struct
import sys

import pytest

from repro.api.registry import STORAGE_BACKENDS
from repro.api.specs import CrawlerSpec, ExperimentSpec, WebSpec
from repro.storage import PageRecord, SqliteBackend
from repro.storage.checkpoint import unpack_array
from repro.storage.records import records_from_columns, records_to_columns


def make_record(url: str, fetched_at: float = 1.5, **overrides) -> PageRecord:
    fields = dict(
        url=url,
        version=7,
        fetched_at=fetched_at,
        first_fetched_at=min(fetched_at, overrides.get("first_fetched_at", fetched_at)),
        outlinks=(f"{url}/a", f"{url}/b"),
        importance=0.125,
        visit_count=3,
        change_count=1,
    )
    fields.update(overrides)
    return PageRecord(**fields)


@pytest.fixture(params=("memory", "file"))
def backend(request, tmp_path):
    path = str(tmp_path / "store.sqlite") if request.param == "file" else None
    instance = STORAGE_BACKENDS.create("sqlite", path=path)
    yield instance
    instance.close()


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
def test_storage_registry_holds_exactly_sqlite():
    assert STORAGE_BACKENDS.names() == ["sqlite"]
    created = STORAGE_BACKENDS.create("sqlite")
    try:
        assert isinstance(created, SqliteBackend)
    finally:
        created.close()


@pytest.mark.parametrize("name", ["columnar", "memory"])
def test_columnar_storage_is_refused_naming_the_backends(name):
    with pytest.raises(ValueError) as refused:
        CrawlerSpec(storage=name)
    assert "'sqlite'" in str(refused.value)


@pytest.mark.parametrize("name", ["sqlite"])
def test_crawler_spec_accepts_each_storage_backend(name):
    assert CrawlerSpec(storage=name).storage == name


def test_path_names_the_durable_form(tmp_path):
    volatile = SqliteBackend()
    durable = SqliteBackend(str(tmp_path / "store.sqlite"))
    try:
        assert volatile.path is None
        assert durable.path == str(tmp_path / "store.sqlite")
    finally:
        volatile.close()
        durable.close()


# --------------------------------------------------------------------- #
# State contract
# --------------------------------------------------------------------- #
def test_state_save_load_delete(backend):
    assert backend.load_state("missing") is None
    payload = {
        "floats": [1.0 / 3.0, 0.1 + 0.2, math.inf],
        "nested": {"b": 2, "a": 1},  # order must survive
        "count": 42,
    }
    backend.save_state("chk", payload)
    loaded = backend.load_state("chk")
    assert loaded == payload
    assert list(loaded["nested"]) == ["b", "a"]
    assert loaded["floats"][0] == payload["floats"][0]
    assert math.isinf(loaded["floats"][2])
    backend.save_state("chk", {"count": 1})
    assert backend.load_state("chk") == {"count": 1}
    assert backend.delete_state("chk") is True
    assert backend.delete_state("chk") is False
    assert backend.load_state("chk") is None


def test_keys_are_independent(backend):
    backend.save_state_text("latest", '{"n": 1}')
    backend.save_state_text("previous", '{"n": 0}')
    backend.save_state_text("latest", '{"n": 2}')
    assert backend.load_state_text("previous") == '{"n": 0}'
    assert backend.delete_state("previous") is True
    assert backend.load_state_text("latest") == '{"n": 2}'
    assert backend.load_state_text("previous") is None


def test_state_floats_roundtrip_bit_exactly(backend):
    values = [
        -0.0, 5e-324, 1.0 / 3.0, 0.1 + 0.2, sys.float_info.max,
        -sys.float_info.min, math.nextafter(1.0, 2.0), -math.inf,
    ]
    backend.save_state("floats", {"values": values})
    loaded = backend.load_state("floats")["values"]
    assert [struct.pack("<d", v) for v in loaded] == [struct.pack("<d", v) for v in values]

def test_state_documents_are_detached_copies(backend):
    payload = {"values": [1, 2]}
    backend.save_state("k", payload)
    payload["values"].append(3)
    assert backend.load_state("k") == {"values": [1, 2]}
    # ... and in the other direction: mutating a loaded document must not
    # reach the store.
    backend.load_state("k")["values"].append(4)
    assert backend.load_state("k") == {"values": [1, 2]}


def test_state_is_stored_as_the_text_written(backend):
    backend.save_state("k", {"b": [1.5, (2, 3)], "a": None})
    assert backend.load_state_text("k") == '{"b": [1.5, [2, 3]], "a": null}'
    backend.save_state_text("k", '{"b":\t1}')
    assert backend.load_state_text("k") == '{"b":\t1}'
    assert backend.load_state("k") == {"b": 1}
    assert backend.load_state_text("missing") is None


def test_non_serialisable_state_fails_loudly_in_save_state(backend):
    backend.save_state("k", {"n": 1})
    with pytest.raises(TypeError):
        backend.save_state("k", {"n": object()})
    assert backend.load_state("k") == {"n": 1}


# --------------------------------------------------------------------- #
# SQLite specifics
# --------------------------------------------------------------------- #
def test_the_contract_is_state_flush_and_close():
    public = {name for name in vars(SqliteBackend) if not name.startswith("_")}
    assert public == {
        "path", "save_state_text", "load_state_text", "delete_state", "save_state",
        "load_state", "flush", "close",
    }


def tables_of(path):
    conn = sqlite3.connect(path)
    try:
        return {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
    finally:
        conn.close()


def test_a_fresh_store_holds_state_only(tmp_path):
    path = str(tmp_path / "store.sqlite")
    SqliteBackend(path).close()
    assert tables_of(path) == {"state"}


def test_sqlite_file_persistence(tmp_path):
    path = str(tmp_path / "store.sqlite")
    first = SqliteBackend(path)
    assert first.path is not None
    first.save_state("chk", {"n": 7})
    first.flush()
    first.close()

    reopened = SqliteBackend(path)
    try:
        assert reopened.load_state("chk") == {"n": 7}
    finally:
        reopened.close()


def test_sqlite_drops_unflushed_writes_on_close(tmp_path):
    path = str(tmp_path / "store.sqlite")
    first = SqliteBackend(path)
    first.save_state("chk", {"n": 1})
    first.flush()
    first.save_state("chk", {"n": 2})
    first.save_state("other", {"n": 3})
    assert first.load_state("chk") == {"n": 2}  # visible to the writer before the flush
    first.close()

    reopened = SqliteBackend(path)
    try:
        assert reopened.load_state("chk") == {"n": 1}
        assert reopened.load_state("other") is None
    finally:
        reopened.close()


def test_a_delete_without_a_flush_is_dropped_on_close(tmp_path):
    path = str(tmp_path / "store.sqlite")
    first = SqliteBackend(path)
    first.save_state_text("chk", "{}")
    first.flush()
    assert first.delete_state("chk") is True
    assert first.load_state_text("chk") is None
    first.close()

    reopened = SqliteBackend(path)
    try:
        assert reopened.load_state_text("chk") == "{}"
    finally:
        reopened.close()

def test_a_reader_sees_only_what_a_flush_committed(tmp_path):
    path = str(tmp_path / "store.sqlite")
    writer = SqliteBackend(path)
    reader = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        writer.save_state_text("k", "{}")
        assert reader.execute("SELECT value FROM state").fetchall() == []
        writer.flush()
        assert reader.execute("SELECT value FROM state").fetchall() == [("{}",)]
    finally:
        reader.close()
        writer.close()


@pytest.fixture
def short_busy_timeout(monkeypatch):
    """Connections give up on a held lock at once instead of after 5 s."""
    monkeypatch.setattr(sqlite3, "connect", functools.partial(sqlite3.connect, timeout=0.01))


def test_a_store_another_connection_holds_is_refused_at_open(tmp_path, short_busy_timeout):
    path = str(tmp_path / "store.sqlite")
    SqliteBackend(path).close()
    holder = sqlite3.connect(path)
    holder.execute("BEGIN EXCLUSIVE")
    try:
        with pytest.raises(ValueError, match=r"cannot open store .*store\.sqlite.*locked"):
            SqliteBackend(path)
    finally:
        holder.rollback()
        holder.close()
    SqliteBackend(path).close()


def test_the_write_lock_is_taken_again_after_each_flush(tmp_path, short_busy_timeout):
    path = str(tmp_path / "store.sqlite")
    first = SqliteBackend(path)
    try:
        first.save_state_text("k", "{}")
        first.flush()
        with pytest.raises(ValueError, match="locked"):
            SqliteBackend(path)
    finally:
        first.close()
    second = SqliteBackend(path)
    try:
        assert second.load_state_text("k") == "{}"
    finally:
        second.close()


class LockTakenAtCommit:
    """A connection another writer locks the store behind, between its
    commit and the flush's next ``BEGIN IMMEDIATE``."""

    def __init__(self, conn, holder):
        self._conn = conn
        self._holder = holder

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def commit(self):
        self._conn.commit()
        self._holder.execute("BEGIN EXCLUSIVE")


def test_a_lock_lost_after_a_commit_is_refused_naming_the_store(tmp_path, short_busy_timeout):
    path = str(tmp_path / "store.sqlite")
    backend = SqliteBackend(path)
    holder = sqlite3.connect(path)
    backend._conn = LockTakenAtCommit(backend._conn, holder)
    try:
        backend.save_state_text("k", "{}")
        with pytest.raises(ValueError, match=r"cannot lock store .*store\.sqlite.*locked"):
            backend.flush()
        # The commit before the lost lock still holds.
        assert holder.execute("SELECT value FROM state").fetchall() == [("{}",)]
    finally:
        holder.rollback()
        holder.close()
        backend.close()

def test_a_write_past_a_full_disk_is_refused_naming_the_store(tmp_path, full_disk):
    path = str(tmp_path / "store.sqlite")
    backend = SqliteBackend(path)
    try:
        backend.save_state_text("small", "{}")
        backend.flush()
        with pytest.raises(
            ValueError, match=r"cannot write store .*store\.sqlite.*: database or disk is full"
        ):
            backend.save_state_text("big", "x" * 100_000)
    finally:
        backend.close()
    reopened = SqliteBackend(path)
    try:
        assert reopened.load_state_text("small") == "{}"
        assert reopened.load_state_text("big") is None
    finally:
        reopened.close()


class CommitFails:
    """A connection whose commit fails as SQLite's does when the disk fills."""

    def __init__(self, conn):
        self._conn = conn

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def commit(self):
        raise sqlite3.OperationalError("database or disk is full")


def test_a_failed_commit_is_refused_naming_the_store(tmp_path):
    path = str(tmp_path / "store.sqlite")
    backend = SqliteBackend(path)
    backend._conn = CommitFails(backend._conn)
    try:
        backend.save_state_text("k", "{}")
        with pytest.raises(
            ValueError, match=r"cannot commit store .*store\.sqlite.*: database or disk is full"
        ):
            backend.flush()
    finally:
        backend.close()


#: The ``records`` table older builds kept beside the checkpoints: the
#: collection mirrored row by row (the layout the previous build wrote, and
#: the format-4 one with a page body and its SHA-1 in place of ``version``).
OLD_RECORDS_DDL = {
    "mirror": """
        CREATE TABLE records (
            url TEXT PRIMARY KEY,
            version INTEGER NOT NULL,
            fetched_at REAL NOT NULL,
            first_fetched_at REAL NOT NULL,
            outlinks TEXT NOT NULL,
            importance REAL NOT NULL,
            visit_count INTEGER NOT NULL,
            change_count INTEGER NOT NULL
        )""",
    "bodies": """
        CREATE TABLE records (
            url TEXT PRIMARY KEY,
            content TEXT NOT NULL,
            checksum TEXT NOT NULL,
            fetched_at REAL NOT NULL,
            first_fetched_at REAL NOT NULL,
            outlinks TEXT NOT NULL,
            importance REAL NOT NULL,
            visit_count INTEGER NOT NULL,
            change_count INTEGER NOT NULL
        )""",
}
OLD_RECORD_ROWS = {
    "mirror": [("u", 3, 1.0 / 3.0, 0.25, '["v"]', 0.5, 2, 1)],
    "bodies": [("u", "body", "sha", 1.0 / 3.0, 0.25, '["v"]', 0.5, 2, 1)],
}


#: The ``events`` table every older build appended each fetch to.
OLD_EVENTS_DDL = """
    CREATE TABLE events (
        seq INTEGER PRIMARY KEY,
        url TEXT NOT NULL,
        time REAL NOT NULL,
        changed INTEGER NOT NULL,
        stored INTEGER NOT NULL
    )"""
OLD_EVENT_ROWS = [(1, "u", 1.0 / 3.0, 1, 1), (2, "v", 0.5, 0, 0)]


def old_table(path, name):
    """An older build's table ``name``: its schema text and every row with its rowid."""
    conn = sqlite3.connect(path)
    try:
        schema = conn.execute(
            "SELECT sql FROM sqlite_master WHERE name = ?", (name,)
        ).fetchone()
        return schema, conn.execute(f"SELECT rowid, * FROM {name}").fetchall()
    finally:
        conn.close()


@pytest.mark.parametrize("layout", ["events", *sorted(OLD_RECORDS_DDL)])
def test_an_older_builds_tables_are_neither_read_nor_written(tmp_path, layout):
    """The previous build kept an event log; the builds before it also
    mirrored the collection into a ``records`` table (in two layouts)."""
    path = str(tmp_path / "old.sqlite")
    conn = sqlite3.connect(path)
    conn.execute(OLD_EVENTS_DDL)
    conn.executemany("INSERT INTO events VALUES (?, ?, ?, ?, ?)", OLD_EVENT_ROWS)
    old = {"events"}
    if layout in OLD_RECORDS_DDL:
        conn.execute(OLD_RECORDS_DDL[layout])
        rows = OLD_RECORD_ROWS[layout]
        conn.executemany(
            f"INSERT INTO records VALUES ({', '.join('?' * len(rows[0]))})", rows
        )
        old.add("records")
    conn.commit()
    conn.close()
    before = {name: old_table(path, name) for name in old}

    backend = SqliteBackend(path)
    try:
        backend.save_state("chk", {"n": 1})
        backend.flush()
    finally:
        backend.close()
    assert {name: old_table(path, name) for name in old} == before
    assert tables_of(path) == old | {"state"}


def test_sqlite_refuses_a_path_it_cannot_open(tmp_path):
    path = str(tmp_path / "missing" / "store.sqlite")
    with pytest.raises(ValueError, match="cannot open store .*missing"):
        SqliteBackend(path)
    assert not os.path.exists(tmp_path / "missing")


def test_sqlite_refuses_a_file_that_is_not_a_database(tmp_path):
    path = tmp_path / "notes.txt"
    data = b"crawl notes, not a database\n" * 64
    path.write_bytes(data)
    with pytest.raises(ValueError, match="cannot open store .*notes.txt.*not a database"):
        SqliteBackend(str(path))
    assert path.read_bytes() == data


def test_sqlite_adds_its_tables_to_a_file_with_other_tables(tmp_path):
    path = str(tmp_path / "other.sqlite")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE unrelated (x INTEGER)")
    conn.execute("INSERT INTO unrelated VALUES (5)")
    conn.commit()
    conn.close()
    backend = SqliteBackend(path)
    try:
        backend.save_state_text("k", "{}")
        backend.flush()
        assert backend.load_state_text("k") == "{}"
    finally:
        backend.close()
    assert tables_of(path) == {"unrelated", "state"}
    conn = sqlite3.connect(path)
    try:
        assert conn.execute("SELECT x FROM unrelated").fetchall() == [(5,)]
    finally:
        conn.close()


# --------------------------------------------------------------------- #
# Record serialization
# --------------------------------------------------------------------- #
def test_record_columns_roundtrip_through_json():
    records = [make_record("u/x", fetched_at=1.0 / 7.0), make_record("u/y", outlinks=())]
    ids = {}
    columns = json.loads(json.dumps(records_to_columns(records, ids)))
    rebuilt = records_from_columns(columns, list(ids))
    assert rebuilt == records
    assert rebuilt[0].fetched_at == records[0].fetched_at
    assert [r.outlinks for r in rebuilt] == [r.outlinks for r in records]


def test_record_columns_hold_one_column_per_field():
    records = [make_record("u/x", version=4), make_record("u/y", version=9)]
    columns = records_to_columns(records, {})
    assert list(columns) == [
        "url", "version", "fetched_at", "first_fetched_at", "outlinks",
        "importance", "visit_count", "change_count", "outlink_counts",
    ]
    assert unpack_array(columns["version"], "<i8").tolist() == [4, 9]


# --------------------------------------------------------------------- #
# Spec round-tripping of the new fields (satellite)
# --------------------------------------------------------------------- #
def test_crawler_spec_storage_fields_roundtrip():
    spec = CrawlerSpec(storage="sqlite", checkpoint_every=5.0)
    assert CrawlerSpec.from_dict(spec.to_dict()) == spec
    assert CrawlerSpec.from_json(spec.to_json()) == spec
    data = spec.to_dict()
    assert data["storage"] == "sqlite"
    assert data["checkpoint_every"] == 5.0


def test_crawler_spec_omits_unset_storage_fields():
    data = CrawlerSpec().to_dict()
    assert "storage" not in data
    assert "checkpoint_every" not in data
    assert CrawlerSpec.from_dict(data) == CrawlerSpec()


def test_spec_hashes_stable_without_storage_fields():
    # Pinned pre-storage-backend hashes: specs that never set the new
    # fields must hash exactly as they did before the fields existed.
    assert CrawlerSpec().spec_hash() == (
        "d3ee2e4e316a1b159f6985e51eb2a11dcc5e5e6ed0d8e9ef496611170f13a098"
    )
    assert ExperimentSpec(
        name="x", web=WebSpec(), crawler=CrawlerSpec()
    ).spec_hash() == (
        "28c49064edce0f13a147f8928c96a838d180eb1198cf8e09763a5caa61955e61"
    )


def test_spec_hash_changes_when_storage_set():
    assert CrawlerSpec(storage="sqlite").spec_hash() != CrawlerSpec().spec_hash()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(storage="nope"), "unknown storage backend"),
        (dict(storage="sqlite", kind="periodic"), "incremental"),
        (dict(checkpoint_every=1.0), "requires a storage backend"),
        (dict(storage="sqlite", checkpoint_every=0.0), "positive"),
        (dict(storage="sqlite", checkpoint_every=-2.0), "positive"),
        (dict(engine="reference"), "'batched', 'sharded'"),
    ],
)
def test_crawler_spec_storage_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        CrawlerSpec(**kwargs)
