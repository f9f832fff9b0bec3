"""Contract tests for the SQLite collection store.

The store honours one contract in both its forms — put/get/scan with
first-put scan order, idempotent deletes, append-only event logs with
resume truncation, and JSON state blobs that round-trip floats bit-exactly —
so the contract tests run on an in-memory store and on a WAL file. The file
form adds one rule: ``flush`` is its only commit, and ``close`` without it
drops the unflushed writes.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3

import pytest

from repro.api.registry import STORAGE_BACKENDS
from repro.api.specs import CrawlerSpec, ExperimentSpec, WebSpec
from repro.storage import PageRecord, SqliteBackend, record_to_dict
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
# Record contract
# --------------------------------------------------------------------- #
def test_put_get_roundtrip_exact(backend):
    record = make_record("u/1", fetched_at=1.0 / 3.0, importance=0.1 + 0.2)
    backend.put_records([record])
    loaded = backend.get_record("u/1")
    assert loaded is not None
    assert record_to_dict(loaded) == record_to_dict(record)
    assert loaded.fetched_at == record.fetched_at  # bit-exact, not approx
    assert loaded.importance == record.importance
    assert isinstance(loaded.outlinks, tuple)


def test_version_roundtrips_as_an_exact_int(backend):
    versions = {"a": 0, "b": 1, "c": 2**40 + 3}
    backend.put_records([make_record(url, version=v) for url, v in versions.items()])
    for url, version in versions.items():
        stored = backend.get_record(url).version
        assert stored == version
        assert type(stored) is int
    assert [r.version for r in backend.scan_records()] == list(versions.values())


def test_get_missing_returns_none(backend):
    assert backend.get_record("nope") is None


def test_scan_order_is_first_put(backend):
    backend.put_records([make_record("b"), make_record("a"), make_record("c")])
    assert [r.url for r in backend.scan_records()] == ["b", "a", "c"]


def test_upsert_keeps_scan_position(backend):
    backend.put_records([make_record("b"), make_record("a"), make_record("c")])
    backend.put_records([make_record("a", fetched_at=9.0, visit_count=7)])
    assert [r.url for r in backend.scan_records()] == ["b", "a", "c"]
    assert backend.get_record("a").visit_count == 7
    assert backend.record_count() == 3


def test_delete_then_reput_moves_to_end(backend):
    backend.put_records([make_record("b"), make_record("a"), make_record("c")])
    assert backend.delete_record("b") is True
    assert backend.delete_record("b") is False  # idempotent
    assert backend.record_count() == 2
    backend.put_records([make_record("b")])
    assert [r.url for r in backend.scan_records()] == ["a", "c", "b"]


def test_clear_and_replace_records(backend):
    backend.put_records([make_record("a"), make_record("b")])
    backend.clear_records()
    assert backend.record_count() == 0
    assert backend.scan_records() == []
    backend.replace_records([make_record("z"), make_record("y")])
    assert [r.url for r in backend.scan_records()] == ["z", "y"]


def test_scan_skips_deleted_records(backend):
    backend.put_records(
        [make_record("a", fetched_at=1.0), make_record("b", fetched_at=2.0),
         make_record("c", fetched_at=3.0)]
    )
    backend.delete_record("b")
    assert backend.get_record("b") is None
    assert [r.url for r in backend.scan_records()] == ["a", "c"]
    assert [r.fetched_at for r in backend.scan_records()] == [1.0, 3.0]
    assert backend.record_count() == 2


def test_many_records_keep_put_order(backend):
    n = 3000
    backend.put_records([make_record(f"u/{i}", fetched_at=float(i)) for i in range(n)])
    assert backend.record_count() == n
    assert backend.get_record("u/2999").fetched_at == 2999.0
    urls = [r.url for r in backend.scan_records()]
    assert urls[:3] == ["u/0", "u/1", "u/2"]
    assert urls[-1] == "u/2999"


# --------------------------------------------------------------------- #
# Event contract
# --------------------------------------------------------------------- #
def test_events_append_scan_truncate(backend):
    events = [
        ("u/1", 0.5, True, True),
        ("u/2", 0.75, False, True),
        ("u/3", 1.0, False, False),
    ]
    backend.append_events(events)
    backend.append_events([])  # no-op
    assert backend.event_count() == 3
    assert backend.scan_events() == events
    backend.truncate_events(2)
    assert backend.scan_events() == events[:2]
    backend.truncate_events(0)
    assert backend.event_count() == 0


def test_event_times_roundtrip_exact(backend):
    time = 1.0 / 3.0 + 1e-9
    backend.append_events([("u", time, True, True)])
    assert backend.scan_events()[0][1] == time


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
def test_sqlite_file_persistence(tmp_path):
    path = str(tmp_path / "store.sqlite")
    first = SqliteBackend(path)
    assert first.path is not None
    first.put_records([make_record("b"), make_record("a")])
    first.append_events([("b", 0.5, True, True)])
    first.save_state("chk", {"n": 7})
    first.flush()
    first.close()

    reopened = SqliteBackend(path)
    try:
        assert [r.url for r in reopened.scan_records()] == ["b", "a"]
        assert reopened.scan_events() == [("b", 0.5, True, True)]
        assert reopened.load_state("chk") == {"n": 7}
    finally:
        reopened.close()


def test_sqlite_drops_unflushed_writes_on_close(tmp_path):
    path = str(tmp_path / "store.sqlite")
    first = SqliteBackend(path)
    first.put_records([make_record("a")])
    first.append_events([("a", 0.5, True, True)])
    first.save_state("chk", {"n": 1})
    first.flush()
    first.put_records([make_record("b"), make_record("a", visit_count=9)])
    first.delete_record("a")
    first.update_fetches([make_record("b", visit_count=4)])
    first.append_events([("b", 0.75, True, True)])
    first.save_state("chk", {"n": 2})
    assert first.record_count() == 1  # visible to the writer before the flush
    first.close()

    reopened = SqliteBackend(path)
    try:
        assert reopened.scan_records() == [make_record("a")]
        assert reopened.scan_events() == [("a", 0.5, True, True)]
        assert reopened.load_state("chk") == {"n": 1}
    finally:
        reopened.close()


#: The ``records`` table a store written by a format-4 build holds: the page
#: body and its SHA-1 where this build keeps the content version.
_BODY_RECORDS_DDL = """
    CREATE TABLE IF NOT EXISTS records (
        url TEXT PRIMARY KEY,
        content TEXT NOT NULL,
        checksum TEXT NOT NULL,
        fetched_at REAL NOT NULL,
        first_fetched_at REAL NOT NULL,
        outlinks TEXT NOT NULL,
        importance REAL NOT NULL,
        visit_count INTEGER NOT NULL,
        change_count INTEGER NOT NULL
    );
"""


def test_sqlite_refuses_a_store_with_another_record_layout(tmp_path):
    path = str(tmp_path / "old.sqlite")
    conn = sqlite3.connect(path)
    conn.executescript(_BODY_RECORDS_DDL)
    conn.close()
    with pytest.raises(ValueError, match=r"'content', 'checksum'.*'url', 'version'"):
        SqliteBackend(path)


def test_sqlite_refusal_leaves_the_old_store_untouched(tmp_path):
    path = str(tmp_path / "old.sqlite")
    conn = sqlite3.connect(path)
    conn.executescript(_BODY_RECORDS_DDL)
    conn.execute(
        "INSERT INTO records VALUES ('u', 'body', 'sha', 1.0, 1.0, '[]', 0.0, 1, 0)"
    )
    conn.commit()
    conn.close()
    with pytest.raises(ValueError):
        SqliteBackend(path)
    conn = sqlite3.connect(path)
    try:
        columns = [row[1] for row in conn.execute("PRAGMA table_info(records)")]
        rows = conn.execute("SELECT url, content FROM records").fetchall()
        tables = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
    finally:
        conn.close()
    assert columns[:3] == ["url", "content", "checksum"]
    assert rows == [("u", "body")]
    assert tables == {"records"}


def test_sqlite_refuses_a_records_table_missing_a_column(tmp_path):
    path = str(tmp_path / "partial.sqlite")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE records (url TEXT PRIMARY KEY, version INTEGER)")
    conn.close()
    with pytest.raises(ValueError, match=r"\['url', 'version'\]: this build"):
        SqliteBackend(path)


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


def test_sqlite_adds_its_tables_to_a_file_without_records(tmp_path):
    path = str(tmp_path / "other.sqlite")
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE unrelated (x INTEGER)")
    conn.close()
    backend = SqliteBackend(path)
    try:
        backend.put_records([make_record("a")])
        assert backend.get_record("a") == make_record("a")
    finally:
        backend.close()


# --------------------------------------------------------------------- #
# Record serialization
# --------------------------------------------------------------------- #
def test_record_columns_roundtrip_through_json():
    records = [make_record("u/x", fetched_at=1.0 / 7.0), make_record("u/y", outlinks=())]
    columns = json.loads(json.dumps(records_to_columns(records)))
    rebuilt = records_from_columns(columns)
    assert [record_to_dict(r) for r in rebuilt] == [record_to_dict(r) for r in records]
    assert rebuilt[0].fetched_at == records[0].fetched_at
    assert [r.outlinks for r in rebuilt] == [r.outlinks for r in records]


def test_record_columns_hold_one_column_per_field():
    records = [make_record("u/x", version=4), make_record("u/y", version=9)]
    columns = records_to_columns(records)
    assert list(columns) == [
        "url", "version", "fetched_at", "first_fetched_at", "outlinks",
        "importance", "visit_count", "change_count",
    ]
    assert columns["version"] == [4, 9]


def test_update_importance_rewrites_importance(backend):
    backend.put_records([make_record("a"), make_record("b")])
    backend.update_importance([make_record("b", importance=0.75)])
    assert backend.get_record("b").importance == 0.75
    assert backend.get_record("a").importance == 0.125
    assert [r.url for r in backend.scan_records()] == ["a", "b"]


def test_update_fetches_rewrites_only_the_refetch_columns(backend):
    backend.put_records([make_record("a"), make_record("b")])
    refetched = make_record(
        "b", fetched_at=4.0, visit_count=5, importance=0.5,
        version=8, outlinks=(), change_count=2,
    )
    backend.update_fetches([refetched])
    stored = backend.get_record("b")
    assert (stored.fetched_at, stored.visit_count, stored.importance) == (4.0, 5, 0.5)
    # The narrow update leaves the other columns as last put.
    assert (stored.version, stored.outlinks, stored.change_count) == (
        7, ("b/a", "b/b"), 1
    )
    assert backend.get_record("a") == make_record("a")
    assert [r.url for r in backend.scan_records()] == ["a", "b"]


def test_sqlite_update_importance_requires_every_row():
    backend = SqliteBackend()
    backend.put_records([make_record("a")])
    with pytest.raises(RuntimeError, match="1 of 2"):
        backend.update_importance([make_record("a"), make_record("b")])
    with pytest.raises(RuntimeError, match="fetch update matched 1 of 2"):
        backend.update_fetches([make_record("a"), make_record("b")])


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
