"""Sparse incremental link graph and vectorized ranking kernels.

The RankingModule "constantly scans" AllUrls and the Collection (Section
5.3), which means PageRank/HITS run over the collection's link structure on
every refinement scan. The dense loops this module replaced (kept as test
oracles in ``tests/reference/kernels.py``) walk a dict adjacency list one
node at a time and restart power iteration from the uniform prior on every
scan — fine for toy graphs, hopeless at the million-page collections the
rest of the engine now handles.

This module supplies the scale path:

* :class:`LinkGraph` — a url↔int interning table over capacity-doubling COO
  edge buffers that lazily compact into the ``scipy.sparse`` CSR transpose
  PageRank multiplies by (the forward matrix is built only for HITS).
  Graph *operations* are layered over flat arrays rather than a
  materialized per-node object: edits append ``(src, dst, revision)``
  triples, a re-set of a page's out-links bumps the page's revision so its
  old edges become invisible, and the CSR view is rebuilt only when a
  ranking kernel asks for it.
* :func:`pagerank_scores` / :func:`hits_scores` — fully vectorized power
  iteration over the CSR view: one sparse matrix-vector product per
  iteration, dangling mass folded in as a single masked sum, the same
  teleport/normalisation conventions as the dense reference (the paper's
  parameterisation ``PR = d + (1 - d) * sum`` is ``damping = 1 - d``).
* Warm starts — both kernels accept the previous score vector as ``x0``, so
  a refinement scan that only perturbed a small fraction of the edges saves
  iterations against a cold run. It still runs 77–99 of them: the warm
  start's L1 error is ~1e-3 and damping 0.85 shrinks it ~15 % per step
  towards the 1e-10 tolerance. A looser stopping rule moves floats, so it
  waits for a regeneration of ``benchmarks/e2e/golden.json``.

SciPy is a hard dependency: every matrix-vector product is a
``scipy.sparse`` CSR product. The dict-adjacency entry point
:func:`repro.ranking.pagerank.pagerank` interns its input into a
:class:`LinkGraph` and calls :func:`pagerank_scores`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse as _scipy_sparse

from repro.storage.checkpoint import pack_ints, pack_urls, unpack_array, unpack_urls

Graph = Mapping[str, Sequence[str]]

_INT = np.int64


@dataclass
class _CsrView:
    """Compacted, ranking-ready view of the live edge buffers.

    Attributes:
        active_ids: Interned node ids that participate in ranking (pages
            with a stored record plus every current link target), ascending.
        out_degree: Out-edge count per active node, duplicates included —
            the ``len(targets)`` the dense reference divides by.
        matrix_t: ``scipy.sparse`` CSR of the transposed adjacency
            (duplicate edges summed into integer weights), built straight
            from the swapped COO arrays: PageRank multiplies only by it.
    """

    active_ids: np.ndarray
    out_degree: np.ndarray
    matrix_t: object

    @property
    def n(self) -> int:
        return int(len(self.active_ids))

    @cached_property
    def matrix(self) -> object:
        """CSR adjacency, built on first use (only HITS multiplies by it)."""
        return self.matrix_t.T.tocsr()


class LinkGraph:
    """Incrementally-updatable sparse link graph with URL interning.

    URLs are interned to dense integer ids on first sight and never
    forgotten; edges live in flat append-only COO buffers. Re-stating a
    page's out-links (:meth:`set_outlinks`) bumps the page's revision
    counter, which logically deletes the previously appended edges; the
    buffers are physically compacted once stale edges outnumber live ones.
    A node is *active* — visible to the ranking kernels — while it is a
    source (a page whose out-links are currently stated) or the target of a
    live edge; this reproduces exactly the node set of the dense reference
    (graph keys plus link targets).
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._urls: List[str] = []
        self._is_source = np.zeros(0, dtype=bool)
        self._node_rev = np.zeros(0, dtype=_INT)
        self._out_count = np.zeros(0, dtype=_INT)
        self._edge_src = np.empty(16, dtype=_INT)
        self._edge_dst = np.empty(16, dtype=_INT)
        self._edge_rev = np.empty(16, dtype=_INT)
        self._n_edges = 0
        self._n_stale = 0
        self._view: Optional[_CsrView] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph: Graph) -> "LinkGraph":
        """Build a graph from a dense adjacency mapping (sources first)."""
        instance = cls()
        instance.set_outlinks_many(graph.items())
        return instance

    @classmethod
    def from_arrays(
        cls,
        urls: Sequence[str],
        src: np.ndarray,
        dst: np.ndarray,
        sources: Optional[np.ndarray] = None,
    ) -> "LinkGraph":
        """Bulk-load a graph from pre-interned id arrays.

        The array-level twin of :meth:`from_graph` for million-page graphs:
        ``urls[i]`` is interned as id ``i`` and the ``(src[j], dst[j])``
        pairs become the edges, without a per-edge Python loop.

        Args:
            urls: URL per node id, in id order.
            src, dst: Aligned edge endpoint ids (duplicates allowed).
            sources: Node ids to mark as sources (pages whose out-links are
                being stated, dangling ones included); defaults to the
                distinct values of ``src``.
        """
        instance = cls()
        instance._urls = list(urls)
        instance._ids = {url: i for i, url in enumerate(instance._urls)}
        n_nodes = len(instance._urls)
        instance._grow_nodes(max(n_nodes, 1))
        src = np.asarray(src, dtype=_INT)
        dst = np.asarray(dst, dtype=_INT)
        if len(src) != len(dst):
            raise ValueError("src and dst must be aligned")
        if len(src) and (
            src.min() < 0 or src.max() >= n_nodes or dst.min() < 0 or dst.max() >= n_nodes
        ):
            raise ValueError("edge endpoints must be interned node ids")
        source_ids = np.unique(src) if sources is None else np.asarray(sources, dtype=_INT)
        instance._is_source[source_ids] = True
        instance._node_rev[source_ids] = 1
        instance._out_count[: n_nodes] = np.bincount(src, minlength=n_nodes)
        instance._edge_src = src.copy()
        instance._edge_dst = dst.copy()
        instance._edge_rev = instance._node_rev[src].copy() if len(src) else np.empty(0, dtype=_INT)
        instance._n_edges = len(src)
        return instance

    # ------------------------------------------------------------------ #
    # Interning
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._urls)

    def __contains__(self, url: str) -> bool:
        return url in self._ids

    @property
    def node_count(self) -> int:
        """Number of interned URLs (active or not)."""
        return len(self._urls)

    @property
    def edge_count(self) -> int:
        """Number of live (non-stale) edges, duplicates included."""
        return self._n_edges - self._n_stale

    def intern(self, url: str) -> int:
        """Intern ``url``; returns its stable integer id."""
        node = self._ids.get(url)
        if node is None:
            node = len(self._urls)
            self._ids[url] = node
            self._urls.append(url)
            if node >= len(self._is_source):
                self._grow_nodes(node + 1)
        return node

    def intern_many(self, urls: Iterable[str]) -> np.ndarray:
        """Intern every URL; returns the aligned id array."""
        intern = self.intern
        return np.fromiter((intern(url) for url in urls), dtype=_INT)

    def url_of(self, node: int) -> str:
        """The URL interned as ``node``."""
        return self._urls[node]

    def ids_of(self, urls: Iterable[str]) -> np.ndarray:
        """The id of each URL, ``-1`` for a URL never interned."""
        return np.fromiter(map(self._ids.get, urls, repeat(-1)), dtype=_INT)

    def urls(self) -> List[str]:
        """Every interned URL in id order."""
        return list(self._urls)

    def outlinks_by_source(self) -> Dict[str, Tuple[str, ...]]:
        """Each source page's out-links as :meth:`set_outlinks` last took
        them (its live edges in order, duplicates included; ``()`` if none)."""
        urls, n, live = self._urls, self._n_edges, self._live_edge_mask()
        sources = np.flatnonzero(self._is_source[: len(urls)]).tolist()
        targets: Dict[int, List[str]] = {node: [] for node in sources}
        for node, target in zip(self._edge_src[:n][live].tolist(),
                                self._edge_dst[:n][live].tolist()):
            targets[node].append(urls[target])
        return {urls[node]: tuple(links) for node, links in targets.items()}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def set_outlinks(self, url: str, targets: Iterable[str]) -> int:
        """Declare the current out-links of ``url`` (replacing earlier ones).

        Marks ``url`` as a source node (a page in the collection) even when
        ``targets`` is empty, matching the dense reference's treatment of
        graph keys with no out-links (they dangle but are still ranked).

        Returns:
            The interned id of ``url``.
        """
        target_ids = self.intern_many(targets)
        node = self.intern(url)
        self.set_outlinks_ids(node, target_ids)
        return node

    def set_outlinks_ids(self, node: int, target_ids: np.ndarray) -> None:
        """Array-level :meth:`set_outlinks` for pre-interned ids."""
        if node < 0 or node >= len(self._urls):
            raise IndexError(f"unknown node id {node}")
        targets = np.asarray(target_ids, dtype=_INT)
        self._append_outlinks(np.array([node]), np.array([len(targets)]), targets)

    def set_outlinks_many(self, pages: Iterable[Tuple[str, Iterable[str]]]) -> None:
        """:meth:`set_outlinks` for many distinct ``(url, targets)`` pages.

        Interns, and leaves live edges, ids and revisions, exactly as one
        :meth:`set_outlinks` per page would, with one edge-buffer append.
        A URL given twice raises ``ValueError`` (after interning).
        """
        ids, urls, known = self._ids, self._urls, len(self._urls)
        nodes, counts, targets = [], [], []
        for url, page_targets in pages:
            before = len(targets)
            targets.extend([ids.setdefault(target, len(ids)) for target in page_targets])
            counts.append(len(targets) - before)
            nodes.append(ids.setdefault(url, len(ids)))
        if len(ids) > known:  # the new URLs are the last keys interned
            urls.extend(reversed(list(islice(reversed(ids), len(ids) - known))))
            if len(ids) > len(self._is_source):
                self._grow_nodes(len(ids))
        node_ids = np.array(nodes, dtype=_INT)
        if len(np.unique(node_ids)) != len(node_ids):
            raise ValueError("set_outlinks_many takes each page at most once")
        if nodes:
            self._append_outlinks(
                node_ids, np.array(counts, dtype=_INT), np.array(targets, dtype=_INT)
            )

    def remove_page(self, url: str) -> None:
        """Drop ``url`` from the source set and delete its out-links.

        The URL stays interned (ids are stable); it remains active only
        while other live pages still link to it — exactly how a page
        discarded by the refinement decision keeps being rankable as a
        candidate through its in-links (footnote 2).
        """
        node = self._ids.get(url)
        if node is None or not self._is_source[node]:
            return
        self._n_stale += int(self._out_count[node])
        self._out_count[node] = 0
        self._node_rev[node] += 1
        self._is_source[node] = False
        self._view = None

    # ------------------------------------------------------------------ #
    # CSR view
    # ------------------------------------------------------------------ #
    def csr(self) -> _CsrView:
        """The compacted CSR view, rebuilt lazily after mutations."""
        if self._view is None:
            self._view = self._build_view()
        return self._view

    def active_ids(self) -> np.ndarray:
        """Interned ids of the nodes the ranking kernels see."""
        return self.csr().active_ids

    def active_urls(self) -> List[str]:
        """URLs of the active nodes, in id order."""
        urls = self._urls
        return [urls[node] for node in self.csr().active_ids.tolist()]

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self, ids: Dict[str, int]) -> dict:
        """JSON-serializable graph state (interning order preserved).

        The edge buffers are physically compacted first, so the snapshot
        carries only live edges — but the interning table (an index column
        through ``ids``, :func:`~repro.storage.checkpoint.pack_urls`),
        revision counters and edge order travel verbatim (the arrays packed
        straight from their buffers), keeping the CSR the restored graph
        builds (and therefore every float the kernels sum) bit-identical.
        """
        self._compact()
        n_nodes = len(self._urls)
        n_edges = self._n_edges
        return {
            "urls": pack_urls(self._urls, ids),
            "sources": pack_ints(np.flatnonzero(self._is_source[:n_nodes])),
            "node_rev": pack_ints(self._node_rev[:n_nodes]),
            "out_count": pack_ints(self._out_count[:n_nodes]),
            "edge_src": pack_ints(self._edge_src[:n_edges]),
            "edge_dst": pack_ints(self._edge_dst[:n_edges]),
            "edge_rev": pack_ints(self._edge_rev[:n_edges]),
        }

    def restore_snapshot(self, state: dict, table: Sequence[str]) -> None:
        """Rebuild the graph exactly as captured by :meth:`snapshot`, its
        URLs looked up in ``table``."""
        self._urls = urls = unpack_urls(state["urls"], table)
        self._ids = {url: i for i, url in enumerate(urls)}
        n_nodes = len(urls)
        self._is_source = np.zeros(max(n_nodes, 1), dtype=bool)
        self._is_source[unpack_array(state["sources"])] = True
        for name in ("node_rev", "out_count", "edge_src", "edge_dst", "edge_rev"):
            setattr(self, "_" + name, unpack_array(state[name]).astype(_INT))
        self._n_edges = len(self._edge_src)
        self._n_stale = 0
        self._view = None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _grow_nodes(self, needed: int) -> None:
        capacity = max(16, needed, 2 * len(self._is_source))
        for name in ("_is_source", "_node_rev", "_out_count"):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _grow_edges(self, needed: int) -> None:
        capacity = max(16, needed, 2 * len(self._edge_src))
        for name in ("_edge_src", "_edge_dst", "_edge_rev"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=_INT)
            grown[: self._n_edges] = old[: self._n_edges]
            setattr(self, name, grown)

    def _append_outlinks(
        self, nodes: np.ndarray, counts: np.ndarray, targets: np.ndarray
    ) -> None:
        """Restate distinct ``nodes``; ``targets`` holds their ids back to back."""
        self._n_stale += int(self._out_count[nodes].sum())
        self._node_rev[nodes] += 1
        self._is_source[nodes] = True
        self._out_count[nodes] = counts
        start = self._n_edges
        end = start + len(targets)
        if end > len(self._edge_src):
            self._grow_edges(end)
        self._edge_src[start:end] = np.repeat(nodes, counts)
        self._edge_dst[start:end] = targets
        self._edge_rev[start:end] = np.repeat(self._node_rev[nodes], counts)
        self._n_edges = end
        self._view = None
        # Garbage-collect once stale edges dominate, so the buffers stay
        # proportional to the live graph no matter how much churn happens.
        # Checked per append, not per page: this moves only when stale edges go.
        if self._n_stale > 64 and self._n_stale > (self._n_edges - self._n_stale):
            self._compact()

    def _live_edge_mask(self) -> np.ndarray:
        n = self._n_edges
        return self._edge_rev[:n] == self._node_rev[self._edge_src[:n]]

    def _compact(self) -> None:
        if self._n_stale == 0:
            return
        live = self._live_edge_mask()
        self._edge_src = self._edge_src[: self._n_edges][live].copy()
        self._edge_dst = self._edge_dst[: self._n_edges][live].copy()
        self._edge_rev = self._edge_rev[: self._n_edges][live].copy()
        self._n_edges = len(self._edge_src)
        self._n_stale = 0

    def _build_view(self) -> _CsrView:
        if self._n_stale:
            self._compact()
        n_nodes = len(self._urls)
        src = self._edge_src[: self._n_edges]
        dst = self._edge_dst[: self._n_edges]
        active = self._is_source[:n_nodes].copy()
        active[dst] = True
        active_ids = np.flatnonzero(active)
        remap = np.full(n_nodes, -1, dtype=_INT)
        remap[active_ids] = np.arange(len(active_ids), dtype=_INT)
        csrc = remap[src]
        cdst = remap[dst]
        m = len(active_ids)
        out_degree = np.bincount(csrc, minlength=m).astype(np.float64)
        matrix_t = _scipy_sparse.csr_matrix(
            (np.ones(len(csrc)), (cdst, csrc)), shape=(m, m)
        )
        return _CsrView(active_ids, out_degree, matrix_t)


# ---------------------------------------------------------------------- #
# Vectorized kernels
# ---------------------------------------------------------------------- #
def pagerank_scores(
    graph: LinkGraph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    x0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """PageRank over the active nodes of ``graph`` by sparse power iteration.

    One spmv per iteration; dangling-node mass is redistributed uniformly
    through a single masked sum, matching the dense reference's conventions
    (L1 stopping rule, final sum-to-1 normalisation).

    Args:
        graph: The link graph.
        damping: Link-following probability (standard ``alpha``; the
            paper's ``d`` maps through ``damping = 1 - d``).
        tolerance: L1 convergence threshold.
        max_iterations: Iteration cap.
        x0: Optional warm-start vector aligned with the active nodes
            (``len == len(active_ids)``); entries that are NaN are seeded
            with the uniform prior. Normalised before iterating.

    Returns:
        ``(active_ids, scores)`` — interned node ids and their scores
        (non-negative, summing to 1).
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError("damping must be within [0, 1]")
    view = graph.csr()
    n = view.n
    if n == 0:
        return view.active_ids, np.zeros(0)
    scores = _seed_vector(x0, n)
    out = view.out_degree
    has_links = out > 0.0
    inverse_out = np.zeros(n)
    inverse_out[has_links] = 1.0 / out[has_links]
    dangling = np.flatnonzero(~has_links)
    teleport = (1.0 - damping) / n
    shares, delta = np.empty(n), np.empty(n)
    for _ in range(max_iterations):
        np.multiply(scores, inverse_out, out=shares)
        new_scores = _spmv_t(view, shares)
        new_scores *= damping
        new_scores += teleport + damping * float(scores[dangling].sum()) / n
        np.subtract(new_scores, scores, out=delta)
        if float(np.abs(delta, out=delta).sum()) < tolerance:
            scores = new_scores
            break
        scores = new_scores
    total = float(scores.sum())
    if total > 0:
        scores = scores / total
    return view.active_ids, scores


def hits_scores(
    graph: LinkGraph,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    hubs0: Optional[np.ndarray] = None,
    authorities0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hub/authority scores over the active nodes by sparse power iteration.

    Args:
        graph: The link graph.
        tolerance: L1 convergence threshold on both vectors combined.
        max_iterations: Iteration cap.
        hubs0, authorities0: Optional warm-start vectors aligned with the
            active nodes (NaN entries seeded uniformly).

    Returns:
        ``(active_ids, hubs, authorities)``; each score vector is L1
        normalised (all zeros for an edgeless graph), matching the dense
        reference.
    """
    view = graph.csr()
    n = view.n
    if n == 0:
        empty = np.zeros(0)
        return view.active_ids, empty, empty
    if view.matrix_t.nnz == 0:
        return view.active_ids, np.zeros(n), np.zeros(n)
    hubs = _seed_vector(hubs0, n)
    authorities = _seed_vector(authorities0, n)
    for _ in range(max_iterations):
        new_authorities = _spmv_t(view, hubs)
        new_hubs = _spmv(view, new_authorities)
        new_authorities = _normalise(new_authorities)
        new_hubs = _normalise(new_hubs)
        delta = float(
            np.abs(new_hubs - hubs).sum() + np.abs(new_authorities - authorities).sum()
        )
        hubs, authorities = new_hubs, new_authorities
        if delta < tolerance:
            break
    return view.active_ids, hubs, authorities


# ---------------------------------------------------------------------- #
# Kernel internals
# ---------------------------------------------------------------------- #
def _seed_vector(x0: Optional[np.ndarray], n: int) -> np.ndarray:
    """Warm-start vector: NaNs → uniform prior, then L1-normalised."""
    if x0 is None:
        return np.full(n, 1.0 / n)
    seeded = np.asarray(x0, dtype=np.float64).copy()
    if len(seeded) != n:
        raise ValueError(f"warm-start vector has length {len(seeded)}, expected {n}")
    missing = ~np.isfinite(seeded)
    seeded[missing] = 1.0 / n
    total = float(seeded.sum())
    if total <= 0.0:
        return np.full(n, 1.0 / n)
    return seeded / total


def _spmv(view: _CsrView, vector: np.ndarray) -> np.ndarray:
    """``A @ vector`` over the live edges."""
    return view.matrix.dot(vector)


def _spmv_t(view: _CsrView, vector: np.ndarray) -> np.ndarray:
    """``A.T @ vector`` over the live edges."""
    return view.matrix_t.dot(vector)


def _normalise(vector: np.ndarray) -> np.ndarray:
    total = float(vector.sum())
    if total == 0.0:
        return vector
    return vector / total
