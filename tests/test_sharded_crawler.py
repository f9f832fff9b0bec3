"""Sharded-crawler guarantees: single-shard bit-identity, N-shard determinism.

The determinism contract under test:

* ``shards=1`` (inline, no processes) is bit-identical to the plain
  batched :class:`~repro.core.incremental_crawler.IncrementalCrawler` —
  series, counters, estimator snapshot and per-record fetch timestamps.
* For fixed ``(web, spec, shards)`` the merged result and every shard
  store's final collection image and checkpoints are reproducible
  regardless of the worker count: worker scheduling must never leak into
  results.
* The same holds through the spec layer (``engine="sharded"``) and the
  parallel matrix runner (``run_matrix(workers=N)`` equals serial).
"""

import os

import pytest

from repro.api.runner import ScenarioMatrix, run, run_matrix
from repro.api.specs import CrawlerSpec, ExperimentSpec, PolicySpec, WebSpec
from repro.core import sharded_crawler
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.sharded_crawler import ShardedCrawler
from repro.core.worker_pool import run_jobs
from repro.simweb import web as web_module
from repro.simweb.generator import generate_web
from repro.storage.backends import SqliteBackend
from repro.storage.checkpoint import (
    CHECKPOINT_PREV_STATE_KEY,
    CHECKPOINT_STATE_KEY,
    COLLECTION_STATE_KEY,
    RESULT_STATE_KEY,
    namespaced_state_key,
)

from test_checkpoint_resume import snapshot_with_table


@pytest.fixture(scope="module")
def shard_web():
    return generate_web(
        WebSpec(
            site_counts={"com": 8, "edu": 4, "gov": 3},
            pages_per_site=12,
            horizon_days=30.0,
            seed=31,
        )
    )


def _spec(**overrides):
    defaults = dict(
        collection_capacity=120,
        crawl_budget_per_day=400.0,
        ranking_interval_days=2.0,
        reallocation_interval_days=1.0,
        measurement_interval_days=1.0,
        track_quality=True,
        use_politeness=True,
    )
    defaults.update(overrides)
    return CrawlerSpec(**defaults)


def _sharded(**overrides):
    return _spec(engine="sharded", **overrides)


def _fingerprint(result):
    """Everything the determinism contract covers, comparable with ==."""
    return {
        "times": list(result.freshness.times),
        "freshness": list(result.freshness.freshness),
        "quality": list(result.quality),
        "quality_times": list(result.quality_times),
        "pages_crawled": result.pages_crawled,
        "pages_failed": result.pages_failed,
        "changes_detected": result.changes_detected,
        "pages_replaced": result.pages_replaced,
        "collection_size": result.collection_size,
        "per_shard": result.per_shard,
    }


def _shard_store_texts(base, n_shards):
    """Each shard store's final collection image and both checkpoint
    slots, as their stored text."""
    texts = {}
    for index in range(n_shards):
        namespace = sharded_crawler.shard_namespace(index)
        backend = SqliteBackend(sharded_crawler.shard_store_path(base, index))
        try:
            for key in (COLLECTION_STATE_KEY, CHECKPOINT_STATE_KEY, CHECKPOINT_PREV_STATE_KEY):
                key = namespaced_state_key(namespace, key)
                texts[key] = backend.load_state_text(key)
                assert texts[key] is not None, key
        finally:
            backend.close()
    return texts


class TestSingleShardBitIdentity:
    def test_matches_plain_batched_crawler(self, shard_web, monkeypatch):
        plain = IncrementalCrawler(shard_web, _spec(duration_days=6.0), PolicySpec())
        plain_result = plain.run()

        # shards=1 runs inline: capture the shard's crawler to read its
        # collection and estimator state, which the result does not carry.
        inline = []

        def capturing(*args, **kwargs):
            inline.append(IncrementalCrawler(*args, **kwargs))
            return inline[-1]

        monkeypatch.setattr(sharded_crawler, "IncrementalCrawler", capturing)
        sharded = ShardedCrawler(
            shard_web, _sharded(shards=1, workers=1, duration_days=6.0), PolicySpec()
        )
        merged = sharded.run()
        (shard,) = inline

        assert list(merged.freshness.times) == list(plain_result.freshness.times)
        assert list(merged.freshness.freshness) == list(
            plain_result.freshness.freshness
        )
        assert merged.quality == plain_result.quality
        assert merged.quality_times == plain_result.quality_times
        assert merged.pages_crawled == plain_result.pages_crawled
        assert merged.pages_failed == plain_result.pages_failed
        assert merged.changes_detected == plain_result.changes_detected
        assert merged.pages_replaced == plain_result.pages_replaced
        # Per-record fetch timestamps (and every other stored field).
        assert shard.collection.working_records() == plain.collection.working_records()
        assert snapshot_with_table(shard.update_module) == snapshot_with_table(plain.update_module)
        assert merged.collection_size == len(plain.collection.working_records())
        assert merged.shards == 1


class TestMultiShardDeterminism:
    def test_worker_count_never_changes_results(self, shard_web, tmp_path):
        runs = {}
        for workers in (1, 2):
            store = str(tmp_path / f"w{workers}.sqlite")
            spec = _sharded(
                shards=2, workers=workers, duration_days=5.0,
                storage="sqlite", checkpoint_every=1.0,
            )
            result = ShardedCrawler(shard_web, spec, PolicySpec(), store_path=store).run()
            runs[workers] = (_fingerprint(result), _shard_store_texts(store, 2))
        assert runs[1] == runs[2]
        assert runs[1][0]["collection_size"] > 0

    def test_merge_shape(self, shard_web):
        result = ShardedCrawler(
            shard_web, _sharded(shards=2, workers=2, duration_days=5.0), PolicySpec()
        ).run()
        assert len(result.per_shard) == 2
        assert [row["shard"] for row in result.per_shard] == [0, 1]
        assert sum(row["capacity"] for row in result.per_shard) == 120
        assert result.pages_crawled == sum(
            row["pages_crawled"] for row in result.per_shard
        )
        assert all(0.0 <= f <= 1.0 for f in result.freshness.freshness)
        assert all(0.0 <= q <= 1.0 for q in result.quality)
        assert 0 < result.collection_size <= 120


def _payload(index, capacity, freshness, quality, attainable, failures=None, **counters):
    """A hand-made shard result: one row of what ``_run_shard`` returns."""
    return {
        "shard_index": index,
        "capacity": capacity,
        "budget_per_day": 10.0 * capacity,
        "freshness": {"times": [0.0, 1.0], "freshness": freshness},
        "quality": {"times": [1.0], "values": quality},
        "counters": {
            "pages_crawled": 0, "pages_failed": 0,
            "changes_detected": 0, "pages_replaced": 0, **counters,
        },
        "collection_size": capacity - 1,
        "attainable": attainable,
        "fetch_count": 2 * capacity,
        "failures": failures,
    }


class TestMergeFold:
    """``_merge`` folds shard results into one, by their counts and series
    alone: no shard's records or estimator state reach it."""

    @staticmethod
    def _merge(shard_web, payloads):
        crawler = ShardedCrawler(shard_web, _sharded(shards=2, workers=1), PolicySpec())
        return crawler._merge(payloads)

    def test_counters_sizes_and_failures_sum_in_shard_index_order(self, shard_web):
        a = _payload(0, 4, [1.0, 1.0], [1.0], 1.0, {"timeouts": 1, "retries": 2},
                     pages_crawled=3, pages_failed=1, changes_detected=2, pages_replaced=0)
        b = _payload(1, 6, [1.0, 1.0], [1.0], 1.0, {"timeouts": 0, "retries": 5},
                     pages_crawled=7, pages_failed=0, changes_detected=1, pages_replaced=4)
        merged = self._merge(shard_web, [b, a])
        assert [row["shard"] for row in merged.per_shard] == [0, 1]
        assert (merged.pages_crawled, merged.pages_failed) == (10, 1)
        assert (merged.changes_detected, merged.pages_replaced) == (3, 4)
        assert merged.collection_size == 3 + 5
        assert merged.failures == {"timeouts": 1, "retries": 7}
        assert merged.per_shard[1]["failures"] == {"timeouts": 0, "retries": 5}
        assert merged.per_shard[1]["fetch_count"] == 12
        assert merged.shards == 2

    def test_freshness_is_weighted_by_capacity_and_quality_by_attainable_mass(
        self, shard_web
    ):
        a = _payload(0, 1, [1.0, 0.5], [1.0], 3.0)
        b = _payload(1, 3, [0.0, 0.5], [0.0], 1.0)
        merged = self._merge(shard_web, [a, b])
        assert list(merged.freshness.times) == [0.0, 1.0]
        assert list(merged.freshness.freshness) == [0.25, 0.5]
        assert merged.quality_times == [1.0]
        assert merged.quality == [0.75]
        assert merged.failures is None

    def test_shards_sampled_at_different_instants_are_refused(self, shard_web):
        a = _payload(0, 2, [1.0, 1.0], [1.0], 1.0)
        b = _payload(1, 2, [1.0, 1.0], [1.0], 1.0)
        b["freshness"]["times"] = [0.0, 2.0]
        with pytest.raises(RuntimeError, match="freshness at different instants"):
            self._merge(shard_web, [a, b])
        b = _payload(1, 2, [1.0, 1.0], [1.0], 1.0)
        b["quality"]["times"] = [2.0]
        with pytest.raises(RuntimeError, match="quality at different instants"):
            self._merge(shard_web, [a, b])

    def test_quality_stays_empty_unless_every_shard_sampled_it(self, shard_web):
        a = _payload(0, 2, [1.0, 1.0], [1.0], 1.0)
        b = _payload(1, 2, [1.0, 1.0], [], None)
        b["quality"]["times"] = []
        merged = self._merge(shard_web, [a, b])
        assert merged.quality == [] and merged.quality_times == []
        assert merged.per_shard[1]["attainable"] is None


class TestGroundTruthBeforeFork:
    @staticmethod
    def _kernel_calls_at_fork(monkeypatch, spec):
        calls = []
        at_fork = []
        kernel = web_module.pagerank_scores

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        def spying(jobs, workers):
            at_fork.append(len(calls))
            return run_jobs(jobs, workers)

        monkeypatch.setattr(web_module, "pagerank_scores", counting)
        monkeypatch.setattr(sharded_crawler, "run_jobs", spying)
        web = generate_web(
            WebSpec(
                site_counts={"com": 3, "edu": 2}, pages_per_site=8,
                horizon_days=10.0, seed=5,
            )
        )
        ShardedCrawler(web, spec.replace(duration_days=2.0), PolicySpec()).run()
        return at_fork

    def test_quality_tracking_shards_inherit_the_ground_truth(self, monkeypatch):
        spec = _sharded(shards=2, workers=2, collection_capacity=30)
        assert self._kernel_calls_at_fork(monkeypatch, spec) == [1]

    def test_no_ground_truth_without_quality_tracking(self, monkeypatch):
        spec = _sharded(shards=2, workers=2, collection_capacity=30, track_quality=False)
        assert self._kernel_calls_at_fork(monkeypatch, spec) == [0]


class TestShardedSpecLayer:
    WEB = WebSpec(
        site_counts={"com": 8, "edu": 4, "gov": 3},
        pages_per_site=12,
        horizon_days=30.0,
        seed=31,
    )

    def _spec(self, engine="batched", **crawler_overrides):
        crawler = CrawlerSpec(
            kind="incremental",
            collection_capacity=120,
            crawl_budget_per_day=400.0,
            duration_days=5.0,
            use_politeness=True,
            engine=engine,
            **crawler_overrides,
        )
        return ExperimentSpec(
            name=f"sharded-spec/{engine}", kind="crawl", web=self.WEB,
            crawler=crawler,
        )

    def test_shards_1_matches_batched_spec(self, shard_web):
        plain = run(self._spec(engine="batched"), web=shard_web)
        sharded = run(
            self._spec(engine="sharded", shards=1, workers=1), web=shard_web
        )
        assert sharded.series == plain.series
        for key in ("pages_crawled", "mean_freshness", "final_quality",
                    "changes_detected", "collection_size"):
            assert sharded.summary[key] == plain.summary[key]
        assert sharded.summary["shards"] == 1
        assert sharded.summary["workers"] == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="sharded"):
            CrawlerSpec(kind="periodic", engine="sharded")
        with pytest.raises(ValueError, match="shards"):
            CrawlerSpec(kind="incremental", engine="batched", shards=2)
        with pytest.raises(ValueError, match="workers"):
            CrawlerSpec(kind="incremental", engine="sharded", workers=0)

    def test_shards_do_not_perturb_spec_hash_of_plain_specs(self):
        # shards/workers are omitted-when-None: pre-shard specs keep their
        # exact hashes, so stored results stay resumable.
        assert (
            self._spec(engine="batched").spec_hash()
            == ExperimentSpec(
                name="sharded-spec/batched", kind="crawl", web=self.WEB,
                crawler=CrawlerSpec(
                    kind="incremental", collection_capacity=120,
                    crawl_budget_per_day=400.0, duration_days=5.0,
                    use_politeness=True, engine="batched",
                ),
            ).spec_hash()
        )

    def test_base_store_is_closed_while_workers_run(
        self, shard_web, tmp_path, monkeypatch
    ):
        # Workers are forked, and SQLite forbids carrying an open
        # connection into a child: only the shard stores may be open then.
        store = os.path.realpath(tmp_path / "base.sqlite")
        spec = self._spec(engine="sharded", shards=2, workers=2, storage="sqlite")
        open_at_fork = []

        def recording_run_jobs(jobs, workers):
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:
                    continue  # the listing's own descriptor, now closed
                if target in (store, store + "-wal", store + "-shm"):
                    open_at_fork.append(target)
            return run_jobs(jobs, workers)

        monkeypatch.setattr(sharded_crawler, "run_jobs", recording_run_jobs)
        result = run(spec, web=shard_web, store=store)
        assert open_at_fork == []
        backend = SqliteBackend(store)
        try:
            assert backend.load_state(RESULT_STATE_KEY)["summary"] == result.summary
        finally:
            backend.close()


class TestShardedResume:
    def test_completed_run_short_circuits_per_shard(self, shard_web, tmp_path):
        store = str(tmp_path / "sharded.sqlite")
        spec = _sharded(
            shards=2, workers=2, storage="sqlite", checkpoint_every=1.0, duration_days=4.0
        )
        crawler_kwargs = dict(store_path=store, spec_hash="f" * 64)
        first = ShardedCrawler(shard_web, spec, PolicySpec(), **crawler_kwargs).run()
        stored = _shard_store_texts(store, 2)
        # Every shard persisted its result; a resume replays it from the
        # store without crawling (and without worker processes diverging),
        # at any worker count, and leaves the shard stores as they were.
        resumed = ShardedCrawler(
            shard_web, spec.replace(workers=1), PolicySpec(), **crawler_kwargs
        ).run(resume=True)
        assert _fingerprint(first) == _fingerprint(resumed)
        assert _shard_store_texts(store, 2) == stored

    def test_an_older_builds_shard_result_is_refused_by_name(self, shard_web, tmp_path):
        """A completed shard store from before shards returned counts held
        the shard's records and estimator state and no collection size."""
        store = str(tmp_path / "old.sqlite")
        backend = SqliteBackend(sharded_crawler.shard_store_path(store, 0))
        backend.save_state(namespaced_state_key("shard00", RESULT_STATE_KEY), {
            "shard_index": 0,
            "n_shards": 1,
            "spec_hash": "f" * 64,
            "capacity": 120,
            "budget_per_day": 400.0,
            "freshness": {"times": [0.0], "freshness": [1.0]},
            "quality": {"times": [], "values": []},
            "counters": {
                "pages_crawled": 1, "pages_failed": 0,
                "changes_detected": 0, "pages_replaced": 0,
            },
            "update": {"pages_processed": 1, "changes_detected": 0},
            "records": [{"url": "http://a.com/", "version": 0}],
            "attainable": None,
            "fetch_count": 1,
            "failures": None,
        })
        backend.flush()
        backend.close()
        spec = _sharded(shards=1, storage="sqlite", checkpoint_every=1.0, duration_days=4.0)
        crawler = ShardedCrawler(
            shard_web, spec, PolicySpec(), store_path=store, spec_hash="f" * 64
        )
        with pytest.raises(ValueError, match="shard 0 store holds a result written by an older build"):
            crawler.run(resume=True)

    def test_resume_requires_persistence(self, shard_web):
        with pytest.raises(ValueError, match="resume"):
            ShardedCrawler(
                shard_web, _sharded(shards=2, duration_days=3.0), PolicySpec()
            ).run(resume=True)


def _assert_same_cells(serial, parallel):
    assert len(serial.cells) == len(parallel.cells) == 2
    for ours, theirs in zip(serial.cells, parallel.cells):
        assert ours.series == theirs.series
        assert ours.summary == theirs.summary
        assert ours.tables == theirs.tables
        assert ours.spec_hash == theirs.spec_hash
        assert theirs.artifacts == {}


class TestParallelMatrix:
    def test_parallel_equals_serial(self):
        base = ExperimentSpec(
            name="matrix-parity",
            kind="crawl",
            web=WebSpec(
                site_counts={"com": 6, "edu": 3},
                pages_per_site=10,
                horizon_days=20.0,
                seed=13,
            ),
            crawler=CrawlerSpec(
                kind="incremental",
                collection_capacity=50,
                crawl_budget_per_day=150.0,
                duration_days=3.0,
            ),
        )
        matrix = ScenarioMatrix(
            base=base,
            axes={"crawler.crawl_budget_per_day": [100.0, 200.0]},
        )
        serial = run_matrix(matrix)
        parallel = run_matrix(matrix, workers=2)
        # Cells come back in cell-index order, whichever worker finished first.
        assert [cell.name for cell in parallel.cells] == [
            spec.name for _, spec in matrix.cells()
        ]
        _assert_same_cells(serial, parallel)

    def test_parallel_matrix_over_sharded_cells(self):
        """Matrix workers spawn the shard workers of their cells."""
        base = ExperimentSpec(
            name="nested-pools",
            kind="crawl",
            web=WebSpec(
                site_counts={"com": 6, "edu": 3},
                pages_per_site=10,
                horizon_days=20.0,
                seed=13,
            ),
            crawler=CrawlerSpec(
                kind="incremental",
                engine="sharded",
                shards=2,
                workers=2,
                collection_capacity=50,
                crawl_budget_per_day=150.0,
                duration_days=3.0,
            ),
        )
        matrix = ScenarioMatrix(
            base=base,
            axes={"crawler.crawl_budget_per_day": [100.0, 200.0]},
        )
        _assert_same_cells(run_matrix(matrix), run_matrix(matrix, workers=2))

    def test_rejects_zero_workers(self):
        matrix = ScenarioMatrix(
            base=ExperimentSpec(
                name="x", kind="scenario", scenario="table2",
                params={"simulate": False},
            ),
            axes={"params.n_pages": [50]},
        )
        with pytest.raises(ValueError, match="workers"):
            run_matrix(matrix, workers=0)
