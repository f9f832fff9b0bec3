"""Sparse incremental link-graph ranking: properties and parity.

The sparse path makes two promises the dense implementations never had to:

* **Graph-state equivalence** — however a :class:`LinkGraph` reached its
  current shape (incremental deltas, removals, re-statements, compaction,
  bulk loads, snapshot round-trips), ranking over it must agree with a
  graph rebuilt from scratch from the final adjacency: exactly on node
  sets, to tolerance on scores.
* **Decision parity** — refinement decisions driven by the sparse
  incremental path must be identical to the pinned dense reference path,
  all the way up through a full crawler run.

Hypothesis sweeps random graphs and delta sequences for the first promise;
seeded end-to-end runs pin the second.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse as scipy_sparse

from repro.api.specs import CrawlerSpec, PolicySpec, WebSpec
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.ranking_module import RankingModule
from repro.ranking.pagerank import pagerank
from repro.ranking.sparse import LinkGraph, hits_scores, pagerank_scores
from repro.simweb.generator import generate_web
from repro.storage.checkpoint import decode

from reference.kernels import (
    compute_importance_reference,
    hits_reference,
    pagerank_reference,
)
from test_checkpoint_resume import snapshot_with_table

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
# Small URL universes force collisions: self-links, duplicate links,
# ghost targets (never stated as sources), re-statements of the same page.
urls_strategy = st.integers(min_value=1, max_value=12).map(
    lambda n: [f"http://u{i}/" for i in range(n)]
)


@st.composite
def adjacency_strategy(draw):
    """A random dense adjacency: url -> target list (duplicates allowed)."""
    urls = draw(urls_strategy)
    n_sources = draw(st.integers(min_value=0, max_value=len(urls)))
    graph = {}
    for url in urls[:n_sources]:
        k = draw(st.integers(min_value=0, max_value=6))
        graph[url] = [
            urls[draw(st.integers(min_value=0, max_value=len(urls) - 1))]
            for _ in range(k)
        ]
    return graph


@st.composite
def delta_sequence_strategy(draw):
    """A random edit script: set-outlinks and remove-page operations."""
    urls = draw(urls_strategy)
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n_ops):
        url = urls[draw(st.integers(min_value=0, max_value=len(urls) - 1))]
        if draw(st.booleans()):
            k = draw(st.integers(min_value=0, max_value=5))
            targets = [
                urls[draw(st.integers(min_value=0, max_value=len(urls) - 1))]
                for _ in range(k)
            ]
            ops.append(("set", url, targets))
        else:
            ops.append(("remove", url, None))
    return ops


@st.composite
def batch_script_strategy(draw):
    """Batches of distinct pages; pages recur across batches."""
    urls = draw(urls_strategy)
    targets = st.lists(st.sampled_from(urls), max_size=12)
    return [
        [(url, draw(targets)) for url in pages]
        for pages in draw(
            st.lists(
                st.lists(st.sampled_from(urls), unique=True),
                min_size=1,
                max_size=8,
            )
        )
    ]


# Thirty pages of six links restated four times: the stale edges outgrow
# the live ones mid-script, so both paths compact (at different points).
_CHURN_SCRIPT = [
    [
        (f"http://p{i}/", [f"http://p{(i * 7 + r + round_index) % 30}/" for r in range(6)])
        for i in range(30)
    ]
    for round_index in range(4)
]


def _pagerank_by_url(graph: LinkGraph) -> dict:
    ids, scores = pagerank_scores(graph)
    return {graph.url_of(int(i)): s for i, s in zip(ids, scores)}


def _hits_by_url(graph: LinkGraph) -> tuple:
    ids, hubs, authorities = hits_scores(graph)
    urls = [graph.url_of(int(i)) for i in ids]
    return dict(zip(urls, hubs)), dict(zip(urls, authorities))


# ---------------------------------------------------------------------- #
# LinkGraph properties
# ---------------------------------------------------------------------- #
class TestLinkGraphProperties:
    @given(urls=urls_strategy)
    @settings(max_examples=50, deadline=None)
    def test_interning_is_stable(self, urls):
        graph = LinkGraph()
        first = [graph.intern(url) for url in urls]
        # Re-interning (scalar or bulk) never moves a URL to a new id.
        assert [graph.intern(url) for url in urls] == first
        assert list(graph.intern_many(urls)) == first
        assert [graph.url_of(i) for i in first] == urls
        assert graph.node_count == len(urls)

    @given(ops=delta_sequence_strategy())
    @settings(max_examples=120, deadline=None)
    def test_delta_apply_equals_rebuild(self, ops):
        """Any edit script ends at the same ranking as a from-scratch build."""
        incremental = LinkGraph()
        final = {}
        for op, url, targets in ops:
            if op == "set":
                incremental.set_outlinks(url, targets)
                final[url] = list(targets)
            else:
                incremental.remove_page(url)
                final.pop(url, None)
        rebuilt = LinkGraph.from_graph(final)

        assert set(incremental.active_urls()) == set(rebuilt.active_urls())
        inc_pr = _pagerank_by_url(incremental)
        reb_pr = _pagerank_by_url(rebuilt)
        assert set(inc_pr) == set(reb_pr)
        for url in inc_pr:
            assert inc_pr[url] == pytest.approx(reb_pr[url], abs=1e-9)
        inc_hits = _hits_by_url(incremental)
        reb_hits = _hits_by_url(rebuilt)
        for inc_side, reb_side in zip(inc_hits, reb_hits):
            assert set(inc_side) == set(reb_side)
            for url in inc_side:
                assert inc_side[url] == pytest.approx(reb_side[url], abs=1e-8)

    @given(graph=adjacency_strategy())
    @settings(max_examples=120, deadline=None)
    def test_scores_match_dense_reference(self, graph):
        """Sparse kernels agree with the pinned dense implementations."""
        sparse_pr = pagerank(graph)
        dense_pr = pagerank_reference(graph)
        assert set(sparse_pr) == set(dense_pr)
        for url in dense_pr:
            assert sparse_pr[url] == pytest.approx(dense_pr[url], abs=1e-9)

        sparse_hubs, sparse_auth = _hits_by_url(LinkGraph.from_graph(graph))
        dense_hubs, dense_auth = hits_reference(graph)
        assert set(sparse_hubs) == set(dense_hubs)
        assert set(sparse_auth) == set(dense_auth)
        for url in dense_hubs:
            assert sparse_hubs[url] == pytest.approx(dense_hubs[url], abs=1e-7)
            assert sparse_auth[url] == pytest.approx(dense_auth[url], abs=1e-7)

    @given(ops=delta_sequence_strategy())
    @settings(max_examples=120, deadline=None)
    def test_direct_transpose_equals_transposing_the_adjacency(self, ops):
        """The CSR view builds its transpose straight from the COO arrays;
        it must be the canonical ``matrix.T.tocsr()`` of the adjacency,
        duplicate edges summed, array for array."""
        graph = LinkGraph()
        final = {}
        for op, url, targets in ops:
            if op == "set":
                graph.set_outlinks(url, targets)
                final[url] = list(targets)
            else:
                graph.remove_page(url)
                final.pop(url, None)
        view = graph.csr()
        index = {url: i for i, url in enumerate(graph.active_urls())}
        edges = [(index[src], index[dst]) for src, targets in final.items()
                 for dst in targets]
        rows = np.array([row for row, _ in edges], dtype=np.int64)
        cols = np.array([col for _, col in edges], dtype=np.int64)
        adjacency = scipy_sparse.csr_matrix(
            (np.ones(len(edges)), (rows, cols)), shape=(view.n, view.n)
        )
        for ours, expected in ((view.matrix_t, adjacency.T.tocsr()),
                               (view.matrix, adjacency)):
            for name in ("indptr", "indices", "data"):
                got, want = getattr(ours, name), getattr(expected, name)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @given(graph=adjacency_strategy())
    @settings(max_examples=60, deadline=None)
    def test_snapshot_roundtrip_is_bit_identical(self, graph):
        original = LinkGraph.from_graph(graph)
        restored = LinkGraph()
        stored, table = snapshot_with_table(original)
        restored.restore_snapshot(decode(*stored), table)
        ids_a, scores_a = pagerank_scores(original)
        ids_b, scores_b = pagerank_scores(restored)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(scores_a, scores_b)
        assert original.active_urls() == restored.active_urls()

    @given(graph=adjacency_strategy())
    @settings(max_examples=60, deadline=None)
    def test_warm_start_reaches_the_same_fixed_point(self, graph):
        sparse = LinkGraph.from_graph(graph)
        ids, cold = pagerank_scores(sparse)
        if len(ids) == 0:
            return
        # Warm-starting from the previous fixed point, from a perturbed
        # vector, or from a vector with NaN (never-scored) holes must all
        # land on the same answer as the cold run.
        for x0 in (
            cold,
            cold * 1.5 + 1e-3,
            np.where(np.arange(len(cold)) % 2 == 0, np.nan, cold),
        ):
            _, warm = pagerank_scores(sparse, x0=x0.copy())
            assert np.max(np.abs(warm - cold)) < 1e-8

    def test_dangling_disconnected_and_self_links(self):
        graph = LinkGraph()
        graph.set_outlinks("http://dangling/", [])
        graph.set_outlinks("http://selfish/", ["http://selfish/", "http://selfish/"])
        graph.set_outlinks("http://island/", ["http://ghost/"])
        scores = _pagerank_by_url(graph)
        # Ghost target is active (it is linked) even though never a source.
        assert set(scores) == {
            "http://dangling/",
            "http://selfish/",
            "http://island/",
            "http://ghost/",
        }
        assert sum(scores.values()) == pytest.approx(1.0)
        dense = pagerank_reference(
            {
                "http://dangling/": [],
                "http://selfish/": ["http://selfish/", "http://selfish/"],
                "http://island/": ["http://ghost/"],
            }
        )
        for url, score in dense.items():
            assert scores[url] == pytest.approx(score, abs=1e-10)

    def test_duplicate_links_carry_extra_weight(self):
        # Two parallel edges a->b must weigh twice one edge — the dense
        # reference gives duplicate targets multiple shares.
        duplicated = pagerank({"a": ["b", "b", "c"]})
        single = pagerank({"a": ["b", "c"]})
        assert duplicated["b"] > single["b"]

    def test_removal_deactivates_unreferenced_targets(self):
        graph = LinkGraph()
        graph.set_outlinks("a", ["b", "c"])
        graph.set_outlinks("b", ["c"])
        graph.remove_page("a")
        # b stays (it is a source); c stays (b links it); b's in-link is gone.
        assert set(graph.active_urls()) == {"b", "c"}
        graph.remove_page("b")
        assert graph.active_urls() == []
        # Re-adding a removed page revives it cleanly.
        graph.set_outlinks("a", ["b"])
        assert set(graph.active_urls()) == {"a", "b"}

    def test_compaction_preserves_scores_bitwise(self):
        urls = [f"http://p{i}/" for i in range(30)]
        stable = LinkGraph()
        churned = LinkGraph()
        # Identical interning order in both graphs: with the same ids, the
        # only difference left is how often stale edges were compacted.
        stable.intern_many(urls)
        churned.intern_many(urls)
        rng = np.random.default_rng(17)
        final = {}
        for url in urls:
            targets = [urls[j] for j in rng.integers(0, len(urls), size=4)]
            final[url] = targets
        # The churned graph re-states every page many times over, forcing
        # stale-edge garbage collection; the stable graph states each once.
        for round_index in range(40):
            for url in urls:
                targets = [urls[j] for j in rng.integers(0, len(urls), size=4)]
                churned.set_outlinks(url, targets)
        for url, targets in final.items():
            stable.set_outlinks(url, targets)
            churned.set_outlinks(url, targets)
        ids_a, scores_a = pagerank_scores(stable)
        ids_b, scores_b = pagerank_scores(churned)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(scores_a, scores_b)

    @given(batches=batch_script_strategy())
    @example(batches=_CHURN_SCRIPT)
    @settings(max_examples=150, deadline=None)
    def test_bulk_restatement_equals_sequential(self, batches):
        """``set_outlinks_many`` ≡ one ``set_outlinks`` per page, bit for bit."""
        bulk, sequential = LinkGraph(), LinkGraph()
        for batch in batches:
            bulk.set_outlinks_many(batch)
            for url, targets in batch:
                sequential.set_outlinks(url, targets)
        assert snapshot_with_table(bulk) == snapshot_with_table(sequential)
        for kernel in (pagerank_scores, hits_scores):
            for bulk_array, sequential_array in zip(kernel(bulk), kernel(sequential)):
                assert np.array_equal(bulk_array, sequential_array)

    def test_bulk_restatement_rejects_a_repeated_page(self):
        graph = LinkGraph()
        with pytest.raises(ValueError):
            graph.set_outlinks_many([("a", ["b"]), ("a", ["c"])])
        assert graph.edge_count == 0

    def test_from_arrays_matches_per_page_statement(self):
        rng = np.random.default_rng(23)
        n = 40
        urls = [f"http://p{i}/" for i in range(n)]
        src = rng.integers(0, n, size=150)
        dst = rng.integers(0, n, size=150)
        bulk = LinkGraph.from_arrays(
            urls, src, dst, sources=np.arange(n, dtype=np.int64)
        )
        stated = LinkGraph()
        per_node = {i: [] for i in range(n)}
        for s, d in zip(src.tolist(), dst.tolist()):
            per_node[s].append(urls[d])
        for i in range(n):
            stated.set_outlinks(urls[i], per_node[i])
        bulk_pr = _pagerank_by_url(bulk)
        stated_pr = _pagerank_by_url(stated)
        assert set(bulk_pr) == set(stated_pr)
        for url in bulk_pr:
            assert bulk_pr[url] == pytest.approx(stated_pr[url], abs=1e-10)

    def test_from_arrays_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            LinkGraph.from_arrays(["a"], np.array([0]), np.array([0, 1]))
        with pytest.raises(ValueError):
            LinkGraph.from_arrays(["a"], np.array([0]), np.array([5]))

    def test_empty_graph(self):
        graph = LinkGraph()
        ids, scores = pagerank_scores(graph)
        assert len(ids) == 0 and len(scores) == 0
        ids, hubs, authorities = hits_scores(graph)
        assert len(ids) == 0


# ---------------------------------------------------------------------- #
# Crawler-level decision parity
# ---------------------------------------------------------------------- #
WEB_SPEC = WebSpec(
    site_scale=0.04,
    pages_per_site=12,
    horizon_days=50.0,
    new_page_fraction=0.25,
    seed=31,
)


def _run_crawl(metric: str):
    """One incremental crawl with frequent ranking scans, decisions spied."""
    decisions = []
    original_refine = RankingModule.refine

    def recording_refine(self, at):
        result = original_refine(self, at)
        decisions.append((result.replacements, result.admitted))
        return result

    RankingModule.refine = recording_refine
    try:
        web = generate_web(WEB_SPEC)
        crawler = IncrementalCrawler(
            web,
            CrawlerSpec(
                collection_capacity=80,
                crawl_budget_per_day=300.0,
                duration_days=25.0,
                ranking_interval_days=3.0,
                measurement_interval_days=1.0,
                track_quality=False,
            ),
            PolicySpec(
                revisit_policy="optimal", estimator="ep", importance_metric=metric
            ),
        )
        result = crawler.run()
    finally:
        RankingModule.refine = original_refine
    collected = sorted(r.url for r in crawler.collection.current_records())
    return result, decisions, collected


class TestRefinementDecisionParity:
    @pytest.mark.parametrize("metric", ["pagerank", "hits"])
    def test_sparse_and_reference_paths_decide_identically(
        self, metric, monkeypatch
    ):
        """Refinement decisions are bit-identical across importance paths.

        The sparse incremental scores differ from the dense reference at
        the ulp level, but every admission and every replacement — and
        with them the final collection — must be exactly the same.
        """
        sparse_result, sparse_decisions, sparse_collected = _run_crawl(metric)
        reference_scans = []

        def reference(module):
            reference_scans.append(module)
            return compute_importance_reference(module)

        monkeypatch.setattr(RankingModule, "_compute_importance", reference)
        ref_result, ref_decisions, ref_collected = _run_crawl(metric)

        # Every scan ranked through the oracle, or the comparison is vacuous.
        assert len(reference_scans) == len(ref_decisions)
        assert len(sparse_decisions) == len(ref_decisions) > 0
        assert sparse_decisions == ref_decisions
        assert sparse_result.pages_replaced == ref_result.pages_replaced
        assert sparse_collected == ref_collected
