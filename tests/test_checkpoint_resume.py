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

import pytest

from repro.api.registry import STORAGE_BACKENDS
from repro.api.runner import run
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
from repro.ranking.sparse import LinkGraph
from repro.storage.backends import SqliteBackend
from repro.storage.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_PREV_STATE_KEY,
    CHECKPOINT_STATE_KEY,
    RESULT_STATE_KEY,
    CollectionJournal,
    CrawlCheckpointer,
    pack_floats,
)
from repro.storage.records import records_from_columns

from reference.crawl import ReferenceIncrementalCrawler

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

    # The backend mirrors the final working collection exactly.
    live = {r.url: r for r in journaled.collection.working_records()}
    stored = {r.url: r for r in backend.scan_records()}
    assert set(stored) == set(live)
    for url, record in live.items():
        assert stored[url].fetched_at == record.fetched_at
        assert stored[url].visit_count == record.visit_count
        assert stored[url].change_count == record.change_count
        assert stored[url].importance == record.importance
    assert backend.event_count() > 0


def test_journal_works_on_reference_engine(tiny_web):
    backend = SqliteBackend()
    crawler = ReferenceIncrementalCrawler(
        tiny_web, crawler_spec(track_quality=False, duration_days=10.0), PolicySpec()
    )
    crawler.run(journal=CollectionJournal(backend))
    assert backend.record_count() == len(crawler.collection.working_records())
    assert backend.event_count() > 0


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


#: A fault mix that makes the batched engine discard and re-admit pages,
#: and revisit a URL within one batch after a retry.
CHURN_FAULTS = FaultsSpec(
    models=(
        FaultModelSpec("transient", {"rate": 0.15}),
        FaultModelSpec("soft_404", {"rate": 0.05, "flap_period_days": 3.0}),
    ),
    seed=3,
)


class FlushProbe(CollectionJournal):
    """A journal that records the store and the collection after every flush."""

    def __init__(self, backend):
        super().__init__(backend)
        self.flushes = []

    def flush(self, collection):
        super().flush(collection)
        # Copies: the crawl keeps refreshing the live records in place.
        self.flushes.append(
            (self.backend.scan_records(), copy.deepcopy(collection.working_records()))
        )


@pytest.mark.parametrize("faults", [None, CHURN_FAULTS], ids=["plain", "churn"])
def test_every_journal_flush_leaves_the_store_equal_to_the_collection(tiny_web, faults):
    backend = SqliteBackend()
    journal = FlushProbe(backend)
    crawler = build_crawler(
        tiny_web, faults=faults,
        retry=RetrySpec(max_attempts=2) if faults is not None else None,
    )
    checkpointer = CrawlCheckpointer(backend, every_days=3.0)
    outcome = crawler.run(journal=journal, checkpointer=checkpointer)
    assert outcome.pages_replaced > 0
    # One flush per checkpoint, one at run end.
    assert len(journal.flushes) == checkpointer.saves + 1 >= 8
    for in_store, working in journal.flushes:
        # Field for field and in collection order, importance included.
        assert in_store == working
    assert backend.event_count() == journal.events_logged == outcome.pages_crawled \
        + outcome.pages_failed


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


class FirstBatchProbe(CollectionJournal):
    """A journal that records the store as the resumed run's first batch lands."""

    def __init__(self, backend):
        super().__init__(backend)
        self.first = None

    def on_batch(self, outcome, collection):
        if self.first is None:
            self.first = (self.backend.event_count(), self.backend.scan_records())
        super().on_batch(outcome, collection)


def test_a_fallback_resume_trims_events_and_resyncs_records_first(tiny_web):
    """The latest slot is corrupt, so the resume falls back one checkpoint.

    The store committed with the *latest* checkpoint, so it is ahead of the
    one resumed from: its events past that checkpoint's count are trimmed
    and its records rewritten before the first batch is journaled.
    """
    plain = build_crawler(tiny_web)
    expected = result_fingerprint(plain, plain.run())
    backend = SqliteBackend()
    first, second = _run_killed_after_second_save(tiny_web, backend)
    assert backend.event_count() == second["journal"]["events_logged"]
    text = backend.load_state_text(CHECKPOINT_STATE_KEY)
    flipped = "1" if text[-40] == "0" else "0"
    backend.save_state_text(CHECKPOINT_STATE_KEY, text[:-40] + flipped + text[-39:])
    backend.flush()

    loader = CrawlCheckpointer(backend, every_days=7.0)
    state = loader.load()
    assert not loader.loaded_latest
    assert state["checkpoint_at"] == first["checkpoint_at"]
    probe = FirstBatchProbe(backend)
    resumed = build_crawler(tiny_web)
    outcome = resumed.run(
        journal=probe, checkpointer=loader, resume_state=state
    )
    trimmed, records = probe.first
    assert trimmed == first["journal"]["events_logged"] < second["journal"]["events_logged"]
    assert records == records_from_columns(first["collection"])
    assert result_fingerprint(resumed, outcome) == expected
    assert backend.scan_records() == resumed.collection.working_records()


def test_a_normal_resume_writes_nothing_and_refuses_a_disagreeing_store(
    tiny_web, monkeypatch
):
    plain = build_crawler(tiny_web)
    expected = result_fingerprint(plain, plain.run())
    backend = SqliteBackend()
    _, second = _run_killed_after_second_save(tiny_web, backend)

    loader = CrawlCheckpointer(backend, every_days=7.0)
    state = loader.load()
    assert loader.loaded_latest

    def rewrite(*args):
        raise AssertionError("a normal resume rewrote the store")

    with monkeypatch.context() as patched:
        patched.setattr(SqliteBackend, "replace_records", rewrite)
        patched.setattr(SqliteBackend, "truncate_events", rewrite)
        probe = FirstBatchProbe(backend)
        resumed = build_crawler(tiny_web)
        outcome = resumed.run(
            journal=probe, checkpointer=loader, resume_state=state
        )
    assert probe.first == (
        second["journal"]["events_logged"], records_from_columns(second["collection"])
    )
    assert result_fingerprint(resumed, outcome) == expected

    backend = SqliteBackend()
    _run_killed_after_second_save(tiny_web, backend)
    backend.append_events([("stray", 1.0, False, True)])
    backend.flush()
    loader = CrawlCheckpointer(backend, every_days=7.0)
    with pytest.raises(ValueError, match=r"holds \d+ events but its checkpoint logged"):
        build_crawler(tiny_web).run(
            journal=CollectionJournal(backend), checkpointer=loader,
            resume_state=loader.load(),
        )


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


def test_a_checkpoint_with_the_retired_age_column_still_resumes(tiny_web):
    """Format-5 checkpoints written while the tracker kept an (always 0.0)
    age column carry ``freshness["age"]``; they resume bit-identically."""
    plain = build_crawler(tiny_web)
    expected = result_fingerprint(plain, plain.run())
    checkpointer = CrawlCheckpointer(SqliteBackend(), every_days=7.0)
    states = []
    checkpointer.on_save = lambda state: states.append(json.loads(json.dumps(state)))
    build_crawler(tiny_web).run(checkpointer=checkpointer)
    state = states[1]
    assert state["format"] == CHECKPOINT_FORMAT == 5
    assert "age" not in state["freshness"]
    state["freshness"]["age"] = [0.0] * len(state["freshness"]["times"])

    backend = SqliteBackend()
    CrawlCheckpointer(backend, every_days=7.0).save(state, state["checkpoint_at"])
    loader = CrawlCheckpointer(backend, every_days=7.0)
    resumed = build_crawler(tiny_web)
    outcome = resumed.run(checkpointer=loader, resume_state=loader.load())
    assert result_fingerprint(resumed, outcome) == expected


@pytest.mark.parametrize("use_importance", [False, True])
def test_a_checkpoint_with_the_retired_duplicate_tables_still_resumes(
    tiny_web, use_importance
):
    """Format-5 checkpoints written while the crawler kept some facts twice
    carry four more tables: AllUrls in-links, the crawl module's set of pages
    whose links were forwarded, the ranking scan's synced out-links (the
    graph's source edges again) and an importance table that only an
    importance-weighted policy reads. They resume bit-identically."""
    policy = PolicySpec(revisit_policy="optimal", use_importance=use_importance)
    plain = IncrementalCrawler(tiny_web, crawler_spec(), policy)
    expected = result_fingerprint(plain, plain.run())
    checkpointer = CrawlCheckpointer(SqliteBackend(), every_days=7.0)
    states = []
    checkpointer.on_save = lambda state: states.append(json.loads(json.dumps(state)))
    IncrementalCrawler(tiny_web, crawler_spec(), policy).run(checkpointer=checkpointer)
    state = states[1]
    assert state["format"] == CHECKPOINT_FORMAT == 5
    assert "inlinks" not in state["allurls"]
    assert set(state["crawl"]) == {"pages_fetched", "pages_failed"}
    assert "graph_outlinks" not in state["ranking"]
    kept = state["update"]["importance"]["urls"]
    assert bool(kept) == use_importance

    # The four tables as they were written.
    graph = LinkGraph()
    graph.restore_snapshot(state["ranking"]["graph"])
    outlinks = graph.outlinks_by_source()
    inlinks = {}
    for source, targets in outlinks.items():
        for target in targets:
            inlinks.setdefault(target, set()).add(source)
    state["allurls"]["inlinks"] = [
        sorted(inlinks.get(url, ())) for url in state["allurls"]["url"]
    ]
    state["crawl"]["links_recorded"] = sorted(state["collection"]["url"])
    state["ranking"]["graph_outlinks"] = {
        url: list(links) for url, links in outlinks.items()
    }
    if not use_importance:
        scored = graph.active_urls()
        state["update"]["importance"] = {
            "urls": scored, "values": pack_floats([1.0 / len(scored)] * len(scored))
        }

    backend = SqliteBackend()
    CrawlCheckpointer(backend, every_days=7.0).save(state, state["checkpoint_at"])
    loader = CrawlCheckpointer(backend, every_days=7.0)
    resumed = IncrementalCrawler(tiny_web, crawler_spec(), policy)
    outcome = resumed.run(checkpointer=loader, resume_state=loader.load())
    assert result_fingerprint(resumed, outcome) == expected


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
    writer.save({"format": 1}, at=0.0)
    reader = CrawlCheckpointer(backend, every_days=1.0, spec_hash="b" * 64)
    with pytest.raises(ValueError, match="different spec"):
        reader.load()
    same = CrawlCheckpointer(backend, every_days=1.0, spec_hash="a" * 64)
    assert same.load() is not None


def test_journal_truncates_event_tail_on_resume():
    backend = SqliteBackend()
    journal = CollectionJournal(backend)
    backend.append_events([("u", float(i), False, True) for i in range(5)])
    journal.events_logged = 5
    snapshot = journal.snapshot()
    # The "killed run" appends two more events after the checkpoint.
    backend.append_events([("u", 5.0, False, True), ("u", 6.0, False, True)])
    assert backend.event_count() == 7
    restored = CollectionJournal(backend)
    restored.restore_snapshot(snapshot)
    assert backend.event_count() == 5
    assert restored.events_logged == 5


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
        assert probe.record_count() == first.summary["collection_size"]
        assert probe.event_count() > 0
    finally:
        probe.close()

    resumed = run(spec, store=path, resume=True)  # completed → short-circuit
    assert resumed.series == first.series
    assert resumed.summary == first.summary
    assert resumed.spec_hash == first.spec_hash


def test_runner_resume_continues_interrupted_run(tmp_path):
    """Simulate a kill: run only long enough to checkpoint, then resume."""
    path = str(tmp_path / "killed.sqlite")
    spec = ExperimentSpec(
        name="kill", web=WEB_SPEC,
        crawler=CRAWLER_SPEC.replace(storage="sqlite", checkpoint_every=5.0),
    )
    uninterrupted = run(spec)

    # "Kill" the run by checkpointing manually mid-run, as the engine would
    # have at the moment of death: persist a mid-run state, not a result.
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

    resumed = run(spec, store=path, resume=True)
    assert resumed.series == uninterrupted.series
    assert resumed.summary == uninterrupted.summary


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
