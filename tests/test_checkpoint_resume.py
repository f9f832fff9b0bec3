"""Kill-and-resume parity: checkpointed crawls restore bit-identically.

The contract under test is strict: a run that journals into a backend (or
checkpoints and resumes from any checkpoint) must produce *bit-identical*
results — freshness/quality series, counters, per-record fetch timestamps
and estimator state — to the same run executed uninterrupted with no
backend at all.
"""

from __future__ import annotations

import copy
import json
import sqlite3
from pathlib import Path

import pytest

from repro.api.registry import STORAGE_BACKENDS
from repro.api.runner import build_web, run
from repro.api.specs import (
    CrawlerSpec,
    ExperimentSpec,
    FaultModelSpec,
    FaultsSpec,
    PolicySpec,
    RetrySpec,
    WebSpec,
)
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.sharded_crawler import shard_namespace, shard_store_path
from repro.storage.backends import SqliteBackend
from repro.storage.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_PREV_STATE_KEY,
    CHECKPOINT_STATE_KEY,
    COLLECTION_STATE_KEY,
    RESULT_STATE_KEY,
    CollectionJournal,
    CrawlCheckpointer,
    namespaced_state_key,
    unpack_urls,
)
from repro.storage.records import records_from_columns

from reference.crawl import ReferenceIncrementalCrawler
from test_storage_backends import OLD_EVENTS_DDL, OLD_RECORDS_DDL, old_table, tables_of

DURATION = 30.0


def crawler_spec(**overrides) -> CrawlerSpec:
    base = dict(
        collection_capacity=60,
        crawl_budget_per_day=200.0,
        duration_days=DURATION,
        ranking_interval_days=5.0,
        measurement_interval_days=1.0,
        track_quality=True,
    )
    base.update(overrides)
    return CrawlerSpec(**base)


def build_crawler(tiny_web, estimator="ep", **overrides) -> IncrementalCrawler:
    return IncrementalCrawler(
        tiny_web, crawler_spec(**overrides), PolicySpec(estimator=estimator)
    )


def result_fingerprint(crawler, result):
    """Everything the parity contract pins, bit-exact."""
    return {
        "times": list(result.freshness.times),
        "freshness": list(result.freshness.freshness),
        "quality": list(result.quality),
        "quality_times": list(result.quality_times),
        "counters": (
            result.pages_crawled,
            result.pages_failed,
            result.changes_detected,
            result.pages_replaced,
        ),
        "records": [
            (r.url, r.fetched_at, r.first_fetched_at, r.visit_count,
             r.change_count, r.version, r.importance)
            for r in crawler.collection.working_records()
        ],
        "estimates": list(crawler.update_module.estimated_rates().items()),
    }


def final_image(backend, namespace=None):
    """The collection image a completed journal wrote, as records."""
    image = backend.load_state(namespaced_state_key(namespace, COLLECTION_STATE_KEY))
    return records_from_columns(image, image["table"])


def checkpoint_records(state):
    """The collection a checkpoint document holds, as records."""
    return records_from_columns(state["collection"], state["allurls"]["url"])


def snapshot_with_table(module):
    """``module.snapshot`` through a fresh URL → index dict, and the URL
    table it built. Two such pairs are equal exactly when the modules'
    URL-keyed snapshots are."""
    ids = {}
    return module.snapshot(ids), list(ids)


# --------------------------------------------------------------------- #
# Journal parity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("estimator", ["ep", "eb"])
@pytest.mark.parametrize("use_politeness", [False, True])
def test_journaled_run_is_bit_identical(tiny_web, estimator, use_politeness):
    plain = build_crawler(tiny_web, estimator=estimator, use_politeness=use_politeness)
    expected = result_fingerprint(plain, plain.run())

    backend = SqliteBackend()
    journaled = build_crawler(
        tiny_web, estimator=estimator, use_politeness=use_politeness
    )
    outcome = journaled.run(journal=CollectionJournal(backend))
    assert result_fingerprint(journaled, outcome) == expected

    # The store's final image is the final working collection exactly.
    live = {r.url: r for r in journaled.collection.working_records()}
    stored = {r.url: r for r in final_image(backend)}
    assert set(stored) == set(live)
    for url, record in live.items():
        assert stored[url].fetched_at == record.fetched_at
        assert stored[url].visit_count == record.visit_count
        assert stored[url].change_count == record.change_count
        assert stored[url].importance == record.importance


def test_journal_works_on_reference_engine(tiny_web):
    backend = SqliteBackend()
    crawler = ReferenceIncrementalCrawler(
        tiny_web, crawler_spec(track_quality=False, duration_days=10.0), PolicySpec()
    )
    crawler.run(journal=CollectionJournal(backend))
    assert final_image(backend) == crawler.collection.working_records()


# --------------------------------------------------------------------- #
# Checkpoint/resume parity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("use_politeness", [False, True])
def test_resume_from_every_checkpoint_is_bit_identical(tiny_web, use_politeness):
    plain = build_crawler(tiny_web, use_politeness=use_politeness)
    expected = result_fingerprint(plain, plain.run())

    backend = SqliteBackend()
    checkpointer = CrawlCheckpointer(backend, every_days=7.0)
    states = []
    # Deep-copy through JSON: exactly what a persistent backend stores.
    checkpointer.on_save = lambda state: states.append(json.loads(json.dumps(state)))
    full = build_crawler(tiny_web, use_politeness=use_politeness)
    full_outcome = full.run(
        journal=CollectionJournal(backend), checkpointer=checkpointer
    )
    assert checkpointer.saves >= 3
    assert result_fingerprint(full, full_outcome) == expected

    for state in states:
        resume_backend = SqliteBackend()
        resumed = build_crawler(tiny_web, use_politeness=use_politeness)
        outcome = resumed.run(
            journal=CollectionJournal(resume_backend),
            resume_state=copy.deepcopy(state),
        )
        assert result_fingerprint(resumed, outcome) == expected


def test_the_hits_example_resumes_from_every_checkpoint():
    """``examples/specs/hits_crawl.json`` checkpoints the HITS warm vectors
    (hubs and authorities, packed); each checkpoint resumes to the
    uninterrupted run."""
    path = Path(__file__).resolve().parent.parent / "examples" / "specs" / "hits_crawl.json"
    spec = ExperimentSpec.from_dict(json.loads(path.read_text(encoding="utf-8")))
    web = build_web(spec.web)
    plain = IncrementalCrawler(web, spec.crawler, spec.policy)
    expected = result_fingerprint(plain, plain.run())
    checkpointer = CrawlCheckpointer(SqliteBackend(), every_days=spec.crawler.checkpoint_every)
    states = []
    checkpointer.on_save = lambda state: states.append(json.loads(json.dumps(state)))
    IncrementalCrawler(web, spec.crawler, spec.policy).run(checkpointer=checkpointer)
    warm = states[-1]["ranking"]["warm"]
    assert warm["pagerank"] is None and warm["hubs"] and warm["authorities"]
    for state in states:
        resumed = IncrementalCrawler(web, spec.crawler, spec.policy)
        assert result_fingerprint(resumed, resumed.run(resume_state=state)) == expected


#: A fault mix that makes the batched engine discard and re-admit pages,
#: and revisit a URL within one batch after a retry.
CHURN_FAULTS = FaultsSpec(
    models=(
        FaultModelSpec("transient", {"rate": 0.15}),
        FaultModelSpec("soft_404", {"rate": 0.05, "flap_period_days": 3.0}),
    ),
    seed=3,
)


@pytest.mark.parametrize("faults", [None, CHURN_FAULTS], ids=["plain", "churn"])
def test_every_checkpoint_and_the_final_image_hold_the_collection(tiny_web, faults):
    backend = SqliteBackend()
    journal = CollectionJournal(backend)
    crawler = build_crawler(
        tiny_web, faults=faults,
        retry=RetrySpec(max_attempts=2) if faults is not None else None,
    )
    checkpointer = CrawlCheckpointer(backend, every_days=3.0)
    images = []

    def look(state):
        # What the store holds, against a copy of the live records (the
        # crawl keeps refreshing them in place).
        stored = checkpoint_records(backend.load_state(CHECKPOINT_STATE_KEY))
        images.append((stored, copy.deepcopy(crawler.collection.working_records())))

    checkpointer.on_save = look
    outcome = crawler.run(journal=journal, checkpointer=checkpointer)
    images.append((final_image(backend), crawler.collection.working_records()))
    assert outcome.pages_replaced > 0
    # One image per checkpoint, one at run end.
    assert len(images) == checkpointer.saves + 1 >= 8
    for in_store, working in images:
        # Field for field and in collection order, importance included.
        assert in_store == working


def test_the_journal_writes_one_image_at_run_end(tiny_web):
    writes = []

    class CountingBackend(SqliteBackend):
        def save_state_text(self, key, text):
            writes.append(key)
            super().save_state_text(key, text)

    backend = CountingBackend()
    checkpointer = CrawlCheckpointer(backend, every_days=7.0)
    build_crawler(tiny_web).run(journal=CollectionJournal(backend), checkpointer=checkpointer)
    assert checkpointer.saves >= 3
    # Checkpoint slots only, then the final image, written once and last.
    assert writes[-1] == COLLECTION_STATE_KEY
    assert set(writes[:-1]) == {CHECKPOINT_STATE_KEY, CHECKPOINT_PREV_STATE_KEY}
    assert len(writes) == 2 * checkpointer.saves


def _run_killed_after_second_save(tiny_web, backend):
    """Checkpoints taken by a run killed right after its second save."""
    checkpointer = CrawlCheckpointer(backend, every_days=7.0)
    states = []

    def kill_after_second(state):
        states.append(json.loads(json.dumps(state)))
        if checkpointer.saves == 2:
            raise KeyboardInterrupt

    checkpointer.on_save = kill_after_second
    with pytest.raises(KeyboardInterrupt):
        build_crawler(tiny_web).run(
            journal=CollectionJournal(backend), checkpointer=checkpointer
        )
    return states


def store_texts(backend):
    """Every state text a single-crawler store can hold, by key."""
    return {
        key: backend.load_state_text(key)
        for key in (CHECKPOINT_STATE_KEY, CHECKPOINT_PREV_STATE_KEY,
                    COLLECTION_STATE_KEY, RESULT_STATE_KEY)
    }


class FirstSaveProbe(CrawlCheckpointer):
    """A checkpointer that records the store's texts as the resumed run's
    first checkpoint save begins."""

    def __init__(self, backend):
        super().__init__(backend, every_days=7.0)
        self.first = None

    def save(self, state, at):
        if self.first is None:
            self.first = store_texts(self.backend)
        super().save(state, at)


def test_a_fallback_resume_ends_as_the_uninterrupted_store(tiny_web):
    """The latest slot is corrupt, so the resume falls back one checkpoint.

    Nothing is written before the resumed run's first checkpoint, and the
    run ends holding what an uninterrupted run's store holds: the same final
    image and the same latest checkpoint text.
    """
    plain = build_crawler(tiny_web)
    expected = result_fingerprint(plain, plain.run())
    reference = SqliteBackend()
    build_crawler(tiny_web).run(
        journal=CollectionJournal(reference),
        checkpointer=CrawlCheckpointer(reference, every_days=7.0),
    )
    backend = SqliteBackend()
    first, second = _run_killed_after_second_save(tiny_web, backend)
    text = backend.load_state_text(CHECKPOINT_STATE_KEY)
    flipped = "1" if text[-40] == "0" else "0"
    backend.save_state_text(CHECKPOINT_STATE_KEY, text[:-40] + flipped + text[-39:])
    backend.flush()
    before = store_texts(backend)

    loader = FirstSaveProbe(backend)
    state = loader.load()
    assert state["checkpoint_at"] == first["checkpoint_at"] < second["checkpoint_at"]
    resumed = build_crawler(tiny_web)
    outcome = resumed.run(
        journal=CollectionJournal(backend), checkpointer=loader, resume_state=state
    )
    assert loader.first == before
    assert result_fingerprint(resumed, outcome) == expected
    assert final_image(backend) == resumed.collection.working_records()
    assert final_image(backend) == final_image(reference)
    assert backend.load_state_text(CHECKPOINT_STATE_KEY) == reference.load_state_text(
        CHECKPOINT_STATE_KEY
    )


def test_a_normal_resume_writes_nothing_before_its_first_checkpoint(tiny_web):
    plain = build_crawler(tiny_web)
    expected = result_fingerprint(plain, plain.run())
    backend = SqliteBackend()
    _, second = _run_killed_after_second_save(tiny_web, backend)
    before = store_texts(backend)

    loader = FirstSaveProbe(backend)
    state = loader.load()
    assert state["checkpoint_at"] == second["checkpoint_at"]
    resumed = build_crawler(tiny_web)
    outcome = resumed.run(
        journal=CollectionJournal(backend), checkpointer=loader, resume_state=state
    )
    assert loader.first == before
    assert result_fingerprint(resumed, outcome) == expected


def test_a_save_serialises_once_and_a_load_never(tiny_web, monkeypatch):
    """The regression guard for the one-pass save: counts, which repeat exactly."""
    calls = {"dumps": 0, "writes": []}
    real_dumps = json.dumps

    def counting_dumps(*args, **kwargs):
        calls["dumps"] += 1
        return real_dumps(*args, **kwargs)

    class CountingBackend(SqliteBackend):
        def save_state_text(self, key, text):
            calls["writes"].append(key)
            super().save_state_text(key, text)

    backend = CountingBackend()
    checkpointer = CrawlCheckpointer(backend, every_days=7.0)

    def after_save(state):
        # One whole-document dump and one write per slot touched, per save.
        assert calls["dumps"] == checkpointer.saves
        assert len(calls["writes"]) == 2 * checkpointer.saves - 1

    checkpointer.on_save = after_save
    monkeypatch.setattr(json, "dumps", counting_dumps)
    build_crawler(tiny_web).run(checkpointer=checkpointer)
    assert checkpointer.saves >= 3
    assert calls["writes"][:3] == [
        CHECKPOINT_STATE_KEY, CHECKPOINT_PREV_STATE_KEY, CHECKPOINT_STATE_KEY
    ]

    dumps_before = calls["dumps"]
    state = CrawlCheckpointer(backend, every_days=7.0).load()
    assert calls["dumps"] == dumps_before
    assert state["crawl"]["pages_fetched"] > 0


@pytest.mark.parametrize("use_importance", [False, True])
def test_a_checkpoint_holds_each_fact_once(tiny_web, use_importance):
    """No table repeats another: AllUrls keeps no in-links (the graph holds
    them), the crawl module no set of forwarded pages, the ranking scan no
    synced out-links (the graph's source edges), and the update module an
    importance table only when the policy reads it."""
    policy = PolicySpec(revisit_policy="optimal", use_importance=use_importance)
    checkpointer = CrawlCheckpointer(SqliteBackend(), every_days=7.0)
    states = []
    checkpointer.on_save = lambda state: states.append(json.loads(json.dumps(state)))
    IncrementalCrawler(tiny_web, crawler_spec(), policy).run(checkpointer=checkpointer)
    state = states[-1]
    assert set(state["allurls"]) == {"url", "strays", "discovered_at", "last_failed_at"}
    assert set(state["crawl"]) == {"pages_fetched", "pages_failed"}
    assert set(state["ranking"]) == {
        "scans_completed", "pages_replaced", "pages_admitted", "graph", "warm"
    }
    assert bool(state["update"]["importance"]["urls"]) == use_importance


def test_resume_rejects_mismatched_run_shape(tiny_web):
    backend = SqliteBackend()
    checkpointer = CrawlCheckpointer(backend, every_days=7.0)
    crawler = build_crawler(tiny_web)
    crawler.run(checkpointer=checkpointer)
    state = backend.load_state(CHECKPOINT_STATE_KEY)
    assert state is not None

    with pytest.raises(ValueError, match="duration_days"):
        build_crawler(tiny_web, duration_days=DURATION + 5.0).run(
            resume_state=copy.deepcopy(state)
        )
    with pytest.raises(ValueError, match="start_time"):
        build_crawler(tiny_web, start_time=1.0).run(resume_state=copy.deepcopy(state))
    bad_format = copy.deepcopy(state)
    bad_format["format"] = 4  # verifies (same header rule) but holds record bodies
    with pytest.raises(ValueError, match=f"format 4 .* format {CHECKPOINT_FORMAT}"):
        build_crawler(tiny_web).run(resume_state=bad_format)
    with pytest.raises(ValueError, match="politeness"):
        build_crawler(tiny_web, use_politeness=True).run(
            resume_state=copy.deepcopy(state)
        )


def test_checkpoint_requires_batched_engine(tiny_web):
    crawler = ReferenceIncrementalCrawler(tiny_web, crawler_spec(), PolicySpec())
    checkpointer = CrawlCheckpointer(SqliteBackend(), every_days=5.0)
    with pytest.raises(ValueError, match="batched"):
        crawler.run(checkpointer=checkpointer)


def test_checkpointer_validates_spacing():
    with pytest.raises(ValueError, match="positive"):
        CrawlCheckpointer(SqliteBackend(), every_days=0.0)


def test_checkpointer_spec_hash_guard():
    backend = SqliteBackend()
    writer = CrawlCheckpointer(backend, every_days=1.0, spec_hash="a" * 64)
    writer.save({"format": CHECKPOINT_FORMAT}, at=0.0)
    reader = CrawlCheckpointer(backend, every_days=1.0, spec_hash="b" * 64)
    with pytest.raises(ValueError, match="different spec"):
        reader.load()
    same = CrawlCheckpointer(backend, every_days=1.0, spec_hash="a" * 64)
    assert same.load() is not None


# --------------------------------------------------------------------- #
# Runner-level persistence
# --------------------------------------------------------------------- #
WEB_SPEC = WebSpec(
    site_scale=0.04, pages_per_site=15, horizon_days=60.0,
    new_page_fraction=0.2, seed=7,
)
CRAWLER_SPEC = CrawlerSpec(
    collection_capacity=60, crawl_budget_per_day=200.0,
    duration_days=20.0, measurement_interval_days=1.0,
)


def test_runner_in_memory_store_matches_plain_run():
    plain = run(ExperimentSpec(name="p", web=WEB_SPEC, crawler=CRAWLER_SPEC))
    stored = run(ExperimentSpec(
        name="p", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0),
    ))
    assert stored.series == plain.series
    assert stored.summary == plain.summary


def test_runner_sqlite_store_and_result_short_circuit(tmp_path):
    path = str(tmp_path / "crawl.sqlite")
    spec = ExperimentSpec(
        name="sq", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0),
    )
    first = run(spec, store=path)

    probe = SqliteBackend(path)
    try:
        assert probe.load_state(RESULT_STATE_KEY) is not None
        assert probe.load_state(CHECKPOINT_STATE_KEY) is not None
        assert len(final_image(probe)) == first.summary["collection_size"]
    finally:
        probe.close()

    resumed = run(spec, store=path, resume=True)  # completed → short-circuit
    assert resumed.series == first.series
    assert resumed.summary == first.summary
    assert resumed.spec_hash == first.spec_hash


def _kill_runner_store_after_second_save(path, spec):
    """Leave ``spec``'s store at ``path`` as a kill right after its second
    checkpoint would: that checkpoint committed, no result. Returns it."""
    from repro.api.runner import build_web

    web = build_web(WEB_SPEC)
    backend = SqliteBackend(path)
    checkpointer = CrawlCheckpointer(
        backend, every_days=5.0, spec_hash=spec.spec_hash()
    )
    captured = {}

    def stop_after_second_save(state):
        if checkpointer.saves >= 2:
            captured["state"] = state
            raise KeyboardInterrupt  # aborts the run mid-flight, like SIGKILL

    checkpointer.on_save = stop_after_second_save
    partial = IncrementalCrawler(web, crawler_spec(
        crawl_budget_per_day=CRAWLER_SPEC.crawl_budget_per_day,
        collection_capacity=CRAWLER_SPEC.collection_capacity,
        duration_days=CRAWLER_SPEC.duration_days,
    ), PolicySpec())
    with pytest.raises(KeyboardInterrupt):
        partial.run(
            journal=CollectionJournal(backend),
            checkpointer=checkpointer,
        )
    backend.close()
    return captured["state"]


def test_runner_resume_continues_interrupted_run(tmp_path):
    """Simulate a kill: run only long enough to checkpoint, then resume."""
    path = str(tmp_path / "killed.sqlite")
    spec = ExperimentSpec(
        name="kill", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0),
    )
    uninterrupted = run(spec)
    _kill_runner_store_after_second_save(path, spec)

    resumed = run(spec, store=path, resume=True)
    assert resumed.series == uninterrupted.series
    assert resumed.summary == uninterrupted.summary


def _refuse_stored_checkpoint_of_format(tmp_path, old_format):
    """Store a verified checkpoint stamped ``old_format`` under another
    spec hash and assert the resume refuses it by its format stamp: an older
    build's hash need not be this one's (shard stores once included the
    worker count), and the refusal must name the format, not another spec."""
    path = str(tmp_path / f"format{old_format}.sqlite")
    spec = ExperimentSpec(
        name=f"f{old_format}", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0),
    )
    old = _kill_runner_store_after_second_save(path, spec)
    old["format"] = old_format
    backend = SqliteBackend(path)
    CrawlCheckpointer(backend, every_days=5.0, spec_hash="f" * 64).save(
        old, old["checkpoint_at"]
    )
    backend.close()
    with pytest.raises(
        ValueError,
        match=f"format {old_format} cannot be resumed.* format {CHECKPOINT_FORMAT} only",
    ):
        run(spec, store=path, resume=True)


def test_a_stored_format_5_checkpoint_is_refused_by_name(tmp_path):
    """A format-5 store (URL columns spelt out, intervals stored) verifies
    under the same header rule, so the resume refuses it by its stamp."""
    _refuse_stored_checkpoint_of_format(tmp_path, 5)


def test_a_stored_format_6_checkpoint_is_refused_by_name(tmp_path):
    """A format-6 store (histories' windows and last visits stored) verifies
    under the same header rule, so the resume refuses it by its stamp."""
    _refuse_stored_checkpoint_of_format(tmp_path, 6)


def test_a_stored_format_7_checkpoint_is_refused_by_name(tmp_path):
    """A format-7 store (EB posteriors and retry attempts keyed by URL)
    verifies under the same header rule, so the resume refuses it by its
    stamp."""
    _refuse_stored_checkpoint_of_format(tmp_path, 7)


def flip_latest_slot(conn):
    """Damage one character of the latest checkpoint slot's stored text."""
    (text,) = conn.execute(
        "SELECT value FROM state WHERE key = ?", (CHECKPOINT_STATE_KEY,)
    ).fetchone()
    flipped = "1" if text[-40] == "0" else "0"
    conn.execute("UPDATE state SET value = ? WHERE key = ?",
                 (text[:-40] + flipped + text[-39:], CHECKPOINT_STATE_KEY))


@pytest.mark.parametrize("slot", ["latest", "fallback"])
def test_a_store_with_the_old_records_table_resumes_and_leaves_it_untouched(
    tmp_path, slot
):
    """The previous build mirrored the collection into a ``records`` table
    committed with each checkpoint. Such a store resumes, from either slot,
    to the uninterrupted result, and the table is neither read nor written."""
    path = str(tmp_path / "old.sqlite")
    spec = ExperimentSpec(
        name="old", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0),
    )
    uninterrupted = run(spec)
    collection = checkpoint_records(_kill_runner_store_after_second_save(path, spec))
    conn = sqlite3.connect(path)
    conn.execute(OLD_RECORDS_DDL["mirror"])
    conn.executemany("INSERT INTO records VALUES (?, ?, ?, ?, ?, ?, ?, ?)", [
        (r.url, r.version, r.fetched_at, r.first_fetched_at, json.dumps(list(r.outlinks)),
         r.importance, r.visit_count, r.change_count)
        for r in collection
    ])
    if slot == "fallback":
        flip_latest_slot(conn)
    conn.commit()
    conn.close()
    before = old_table(path, "records")
    assert len(before[1]) == len(collection) > 0

    resumed = run(spec, store=path, resume=True)
    assert resumed.series == uninterrupted.series
    assert resumed.summary == uninterrupted.summary
    assert old_table(path, "records") == before


@pytest.mark.parametrize("slot", ["latest", "fallback"])
def test_a_store_with_the_old_event_log_resumes_and_leaves_it_untouched(tmp_path, slot):
    """An older build appended every fetch to an ``events`` table. A store
    carrying one resumes, from either slot, to the uninterrupted result and
    final image, and the table is neither read nor written."""
    path = str(tmp_path / "old.sqlite")
    spec = ExperimentSpec(
        name="old", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0),
    )
    uninterrupted = run(spec)
    _kill_runner_store_after_second_save(path, spec)

    # One event per fetch up to each slot's checkpoint.
    backend = SqliteBackend(path)
    slots = [backend.load_state(CHECKPOINT_PREV_STATE_KEY),
             backend.load_state(CHECKPOINT_STATE_KEY)]
    backend.close()
    previous, logged = (
        state["crawl"]["pages_fetched"] + state["crawl"]["pages_failed"] for state in slots
    )
    urls = unpack_urls(slots[-1]["collection"]["url"], slots[-1]["allurls"]["url"])
    conn = sqlite3.connect(path)
    conn.execute(OLD_EVENTS_DDL)
    conn.executemany("INSERT INTO events VALUES (?, ?, ?, ?, ?)", [
        (seq, urls[seq % len(urls)], seq / 7.0, seq % 3 == 0, seq % 5 != 0)
        for seq in range(1, logged + 1)
    ])
    if slot == "fallback":
        flip_latest_slot(conn)
    conn.commit()
    conn.close()
    before = old_table(path, "events")
    assert len(before[1]) == logged > previous > 0

    resumed = run(spec, store=path, resume=True)
    assert resumed.series == uninterrupted.series
    assert resumed.summary == uninterrupted.summary
    backend = SqliteBackend(path)
    try:
        assert final_image(backend) == \
            uninterrupted.artifacts["crawler"].collection.working_records()
    finally:
        backend.close()
    assert old_table(path, "events") == before


@pytest.mark.parametrize(
    "engine", [{}, {"engine": "sharded", "shards": 2}], ids=["batched", "sharded"]
)
def test_a_completed_store_holds_its_final_collection(tmp_path, engine):
    path = str(tmp_path / "done.sqlite")
    spec = ExperimentSpec(
        name="done", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0, **engine),
    )
    result = run(spec, store=path)
    if not engine:
        backend = SqliteBackend(path)
        try:
            assert final_image(backend) == result.artifacts["crawler"].collection.working_records()
        finally:
            backend.close()
        return
    collected = 0
    for index in range(2):
        namespace = shard_namespace(index)
        backend = SqliteBackend(shard_store_path(path, index))
        try:
            image = final_image(backend, namespace)
            saved = backend.load_state(namespaced_state_key(namespace, RESULT_STATE_KEY))
        finally:
            backend.close()
        # The image is the shard's one copy of its collection: its result
        # holds the collection's size, not its records or estimator state.
        assert "records" not in saved and "update" not in saved
        assert saved["collection_size"] == len(image)
        collected += len(image)
    assert collected == result.summary["collection_size"] > 0


@pytest.mark.parametrize("killed", [True, False], ids=["killed", "completed"])
def test_a_sharded_store_resumes_at_another_worker_count(tmp_path, killed):
    """A store is stamped with the spec minus its worker count, which
    changes no shard's work: a two-shard run at two workers, killed after
    its last checkpoints or completed, resumes at one to the uninterrupted
    result and final images (a completed store returns its stored result,
    which names the two workers that ran it)."""
    path = str(tmp_path / "sharded.sqlite")
    spec = ExperimentSpec(
        name="sharded", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(
            storage="sqlite", checkpoint_every=5.0, engine="sharded", shards=2, workers=2
        ),
    )
    uninterrupted = run(spec, store=path)
    images = []
    for index in range(2):
        backend = SqliteBackend(shard_store_path(path, index))
        image_key = namespaced_state_key(shard_namespace(index), COLLECTION_STATE_KEY)
        images.append(backend.load_state_text(image_key))
        if killed:
            # Drop what only a completed run commits: each store is then a kill's.
            backend.delete_state(image_key)
            backend.delete_state(namespaced_state_key(shard_namespace(index), RESULT_STATE_KEY))
            backend.flush()
        backend.close()
    if killed:
        backend = SqliteBackend(path)
        backend.delete_state(RESULT_STATE_KEY)
        backend.flush()
        backend.close()

    at_one = spec.replace(crawler=spec.crawler.replace(workers=1))
    resumed = run(at_one, store=path, resume=True)
    assert resumed.spec_hash == at_one.spec_hash()
    assert resumed.series == uninterrupted.series
    assert {**resumed.summary, "workers": 2} == uninterrupted.summary
    assert resumed.summary["workers"] == (1 if killed else 2)
    for index, image in enumerate(images):
        backend = SqliteBackend(shard_store_path(path, index))
        image_key = namespaced_state_key(shard_namespace(index), COLLECTION_STATE_KEY)
        assert backend.load_state_text(image_key) == image
        backend.close()


def test_a_store_without_checkpoints_holds_its_result_and_one_image(tmp_path):
    path = str(tmp_path / "plain.sqlite")
    spec = ExperimentSpec(
        name="plain", web=WEB_SPEC, crawler=CRAWLER_SPEC.replace(storage="sqlite"),
    )
    result = run(spec, store=path)
    conn = sqlite3.connect(path)
    try:
        keys = {key for (key,) in conn.execute("SELECT key FROM state")}
    finally:
        conn.close()
    assert keys == {RESULT_STATE_KEY, COLLECTION_STATE_KEY}
    assert tables_of(path) == {"state"}
    backend = SqliteBackend(path)
    try:
        assert len(final_image(backend)) == result.summary["collection_size"]
    finally:
        backend.close()


def test_runner_resume_without_checkpoint_errors(tmp_path):
    spec = ExperimentSpec(
        name="no-chk", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0),
    )
    with pytest.raises(ValueError, match="no checkpoint"):
        run(spec, store=str(tmp_path / "empty.sqlite"), resume=True)


@pytest.mark.parametrize(
    "engine", [{}, {"engine": "sharded", "shards": 2}], ids=["batched", "sharded"]
)
def test_runner_resume_without_a_store_path_fails_at_once(engine):
    # A store without a path is in memory: it can never hold a checkpoint.
    spec = ExperimentSpec(
        name="no-path", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0, **engine),
    )
    with pytest.raises(ValueError, match=r"pass store= \(--store PATH"):
        run(spec, resume=True)


def test_runner_store_requires_storage_in_spec():
    spec = ExperimentSpec(name="x", web=WEB_SPEC, crawler=CRAWLER_SPEC)
    with pytest.raises(ValueError, match="storage"):
        run(spec, store="/tmp/nope.sqlite")
    with pytest.raises(ValueError, match="storage"):
        run(spec, resume=True)


def test_storage_backends_registry_reachable_from_api():
    assert STORAGE_BACKENDS.names() == ["sqlite"]
