"""RankingModule: keep the collection high-quality (the refinement decision).

Figure 12: "The RankingModule constantly scans through AllUrls and the
Collection to make the refinement decision. ... When a page not in CollUrls
turns out to be more important than a page within CollUrls, the
RankingModule schedules for replacement of the less-important page in
CollUrls with the more-important page. The URL for this new page is placed
on the top of CollUrls, so that the UpdateModule can crawl the page
immediately. Also, the RankingModule discards the less-important page from
the Collection to make space for the new page."

Importance is measured with PageRank over the link structure captured in the
collection (or HITS authority scores), as the :class:`PolicySpec`'s
``importance_metric`` names; candidate URLs that are not yet collected are
ranked through the links pointing at them (footnote 2). A scan fills the
collection up to its capacity, then replaces at most
:data:`MAX_REPLACEMENTS_PER_SCAN` pages, each only by a candidate
:data:`REPLACEMENT_MARGIN` more important.

Ranking is *incremental*: the module keeps one
:class:`repro.ranking.sparse.LinkGraph` alive across refinement scans,
applies only the out-link deltas the crawler produced since the previous
scan (new pages, changed pages, refinement discards), and warm-starts the
sparse power iteration from the previous score vector. That saves
iterations against a cold run, but a steady-state scan still runs 77–99 spmv
iterations to the 1e-10 L1 tolerance; a looser stopping rule moves floats, so
it waits for a regeneration of ``benchmarks/e2e/golden.json``. The scan then
stays in node-id space: scores remain the kernel's ``(ids, scores)``
arrays, records and candidates read theirs through one id gather,
``np.partition`` picks the few candidates and victims a scan can use, and
the admissions are queued in one call. The retired dense
path is kept as a test oracle in ``tests/reference/kernels.py``; the parity
suite holds the refinement decisions of both paths identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.specs import PolicySpec
from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.crawl_module import CrawlModule
from repro.ranking.sparse import LinkGraph, hits_scores, pagerank_scores
from repro.storage.checkpoint import pack_floats, unpack_array
from repro.storage.collection import Collection
from repro.storage.records import PageRecord


#: Cap on how many collection pages one refinement scan may replace; keeps
#: a scan's effect incremental.
MAX_REPLACEMENTS_PER_SCAN = 10
#: A candidate must beat the least important collected page's importance
#: by this relative margin to replace it; avoids thrashing between
#: near-equal pages.
REPLACEMENT_MARGIN = 0.10


@dataclass(frozen=True, eq=False)
class RefinementResult:
    """Outcome of one refinement scan.

    Attributes:
        replacements: ``(discarded_url, admitted_url)`` pairs applied.
        admitted: URLs newly admitted without displacing anything (possible
            while the collection is below capacity).
        ids, scores: Every ranked URL (collected pages and the candidates
            they link to) as its node id in ``graph``, and its score.
    """

    replacements: Tuple[Tuple[str, str], ...]
    admitted: Tuple[str, ...]
    ids: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    graph: LinkGraph = field(repr=False)

    @cached_property
    def importance(self) -> Dict[str, float]:
        """``url -> score`` of every ranked URL, built on first request."""
        urls = map(self.graph.url_of, self.ids.tolist())
        return dict(zip(urls, self.scores.tolist()))


class RankingModule:
    """Scans AllUrls and the Collection and applies the refinement decision.

    Args:
        allurls: Registry of discovered URLs.
        collurls: The collection URL priority queue.
        collection: The collection being refined.
        crawl_module: Used to discard replaced pages from the collection.
        policy: Its ``importance_metric`` ranks the pages.
    """

    def __init__(
        self,
        allurls: AllUrls,
        collurls: CollUrls,
        collection: Collection,
        crawl_module: CrawlModule,
        policy: PolicySpec,
    ) -> None:
        self._allurls = allurls
        self._collurls = collurls
        self._collection = collection
        self._crawl_module = crawl_module
        self._metric = policy.importance_metric
        self._capacity = collection.capacity
        self.scans_completed = 0
        self.pages_replaced = 0
        self.pages_admitted = 0
        # The live link graph and its sync state: ``_graph_outlinks`` holds
        # the out-link tuple last pushed into the graph per collected URL,
        # so a scan only touches pages whose links actually changed.
        self._graph = LinkGraph()
        self._graph_outlinks: Dict[str, Tuple[str, ...]] = {}
        # Warm-start vectors, indexed by interned node id (grown lazily;
        # NaN marks nodes never scored). Feeding the previous fixed point
        # back into power iteration is what makes steady-state scans cheap.
        self._warm_pagerank: Optional[np.ndarray] = None
        self._warm_hubs: Optional[np.ndarray] = None
        self._warm_authorities: Optional[np.ndarray] = None

    @property
    def graph(self) -> LinkGraph:
        """The live link graph (kept in sync with the collection)."""
        return self._graph

    # ------------------------------------------------------------------ #
    # Refinement scan
    # ------------------------------------------------------------------ #
    def refine(self, at: float) -> RefinementResult:
        """Run one refinement scan at virtual time ``at``.

        Computes importance over the collection's link structure, updates
        the stored importance of collected pages, admits candidate URLs
        while capacity remains, and replaces the least important collected
        pages with clearly more important candidates.
        """
        ids, scores = self._compute_importance()
        if len(scores):
            # HITS leaves decay dust (1e-38 and below) on nodes of zero exact
            # authority: implementation noise, so it ranks as zero (PageRank's
            # teleport term floors every score far above the epsilon).
            scores = np.where(scores < scores.max() * 1e-12, 0.0, scores)
        graph = self._graph
        # Id-indexed; the extra last slot is the 0.0 an unknown URL (-1) reads.
        dense = np.zeros(graph.node_count + 1)
        dense[ids] = scores
        working = self._collection.working_records()
        urls = [record.url for record in working]
        stored = dense[graph.ids_of(urls)]
        for record, importance in zip(working, stored.tolist()):
            # In place: every score moves each scan, so a copy-on-write
            # store would rebuild every record.
            record.importance = importance
        # Queued and collected URLs both count against capacity. Each
        # collected page is queued in a crawl, but a store without a queue
        # (unit tests, a seeded collection) is not, hence the union.
        tracked = set(self._collurls.urls())
        tracked.update(urls)
        candidates = self._allurls.candidates(exclude=tracked)

        # Select, do not sort: admit at most ``capacity - tracked``, pair each
        # replacement with one victim, read one candidate past the last
        # decision; with no replacement budget a scan decides nothing.
        max_replacements = MAX_REPLACEMENTS_PER_SCAN
        admissible = len(candidates) if max_replacements else 0
        consumable = len(candidates)
        if self._capacity is not None:
            admissible = min(admissible, max(self._capacity - len(tracked), 0))
            consumable = admissible + max_replacements + 1
        ranked = _select(dense[graph.ids_of(candidates)], candidates, consumable, True)
        admitted = [url for _, url in ranked[:admissible]]
        self._collurls.schedule_front_many(admitted, at)
        self.pages_admitted += len(admitted)

        replacements: List[Tuple[str, str]] = []
        victims = _select(stored, urls, max_replacements, False)
        for (score, url), (victim_score, victim_url) in zip(ranked[admissible:], victims):
            if score <= victim_score * (1.0 + REPLACEMENT_MARGIN):
                break
            self._replace(victim_url, url, at)
            replacements.append((victim_url, url))
        self.pages_replaced += len(replacements)

        self.scans_completed += 1
        return RefinementResult(tuple(replacements), tuple(admitted), ids, scores, graph)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self, ids: Dict[str, int]) -> dict:
        """JSON-serializable module state, its URLs index columns through
        ``ids`` (:func:`~repro.storage.checkpoint.pack_urls`).

        Beyond the counters this carries the live link graph (interning
        order, edge buffers) and the warm-start vectors: a resumed run must
        feed power iteration the exact same starting vector over the exact
        same CSR as the uninterrupted run, or the converged floats — and
        with them the stored importance values — would drift at the ulp
        level and break bit-identical resume. The out-links last synced per
        page are the graph's source edges, so :meth:`restore_snapshot`
        rebuilds them from the graph instead of reading a second copy.
        """
        return {
            "scans_completed": self.scans_completed,
            "pages_replaced": self.pages_replaced,
            "pages_admitted": self.pages_admitted,
            "graph": self._graph.snapshot(ids),
            "warm": {
                name: None if vector is None else pack_floats(vector)
                for name, vector in (
                    ("pagerank", self._warm_pagerank),
                    ("hubs", self._warm_hubs),
                    ("authorities", self._warm_authorities),
                )
            },
        }

    def restore_snapshot(self, state: dict, table: Sequence[str]) -> None:
        """Restore the state captured by :meth:`snapshot`, its URLs looked up
        in ``table``."""
        self.scans_completed = int(state["scans_completed"])
        self.pages_replaced = int(state["pages_replaced"])
        self.pages_admitted = int(state["pages_admitted"])
        self._graph = LinkGraph()
        self._graph.restore_snapshot(state["graph"], table)
        self._graph_outlinks = self._graph.outlinks_by_source()
        warm = {
            name: None if packed is None else unpack_array(packed, "<f8").copy()
            for name, packed in state["warm"].items()
        }
        self._warm_pagerank = warm["pagerank"]
        self._warm_hubs = warm["hubs"]
        self._warm_authorities = warm["authorities"]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _sync_graph(self, records: Sequence[PageRecord]) -> None:
        """Apply the collection's out-link deltas to the live graph.

        One pass over the working records: pages whose out-links changed
        since the last scan (new pages, changed re-fetches) restate their
        edges in one bulk append; pages that left the collection drop
        theirs. An unchanged page costs a dict lookup and, unless it still
        holds the very tuple last synced, a tuple compare.
        """
        synced = self._graph_outlinks
        get = synced.get
        changed = []
        moved = [record for record in records if get(record.url) is not record.outlinks]
        for record in moved:
            url, outlinks = record.url, tuple(record.outlinks)
            if get(url) != outlinks:
                changed.append((url, outlinks))
            synced[url] = outlinks
        self._graph.set_outlinks_many(changed)
        if len(records) != len(synced):
            present = {record.url for record in records}
            for url in [url for url in synced if url not in present]:
                self._graph.remove_page(url)
                del synced[url]

    def _compute_importance(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sync the graph, then ``(ids, scores)`` of its active nodes."""
        self._sync_graph(self._collection.working_records())
        graph = self._graph
        active_ids = graph.active_ids()
        if len(active_ids) == 0:
            return active_ids, np.zeros(0)
        if self._metric == "hits":
            ids, hubs, authorities = hits_scores(
                graph,
                hubs0=_project_warm(self._warm_hubs, active_ids),
                authorities0=_project_warm(self._warm_authorities, active_ids),
            )
            self._warm_hubs = _absorb_warm(
                self._warm_hubs, ids, hubs, graph.node_count
            )
            self._warm_authorities = _absorb_warm(
                self._warm_authorities, ids, authorities, graph.node_count
            )
            scores = authorities
        else:
            ids, scores = pagerank_scores(
                graph, x0=_project_warm(self._warm_pagerank, active_ids)
            )
            self._warm_pagerank = _absorb_warm(
                self._warm_pagerank, ids, scores, graph.node_count
            )
        return ids, scores

    def _replace(self, victim_url: str, new_url: str, at: float) -> None:
        self._crawl_module.discard(victim_url)
        self._collurls.remove(victim_url)
        self._collurls.schedule_front(new_url, at)


def _select(
    scores: np.ndarray, urls: Sequence[str], k: int, largest: bool
) -> List[Tuple[float, str]]:
    """``heapq.nlargest(k, pairs)`` (``nsmallest`` unless ``largest``) over
    the ``(score, url)`` pairs, sorting only the entries that can make it:
    those on their side of the k-th score (``np.partition``), ties included,
    so ties break by URL as in a full sort. Ties are common: pages without
    in-links share a score.
    """
    n = len(urls)
    if k <= 0:
        return []
    if k < n:
        kth = n - k if largest else k - 1
        threshold = np.partition(scores, kth)[kth]
        keep = np.flatnonzero(scores >= threshold if largest else scores <= threshold)
        scores, urls = scores[keep], [urls[i] for i in keep.tolist()]
    return sorted(zip(scores.tolist(), urls), reverse=largest)[:k]


# ---------------------------------------------------------------------- #
# Warm-start plumbing
# ---------------------------------------------------------------------- #
def _project_warm(
    warm: Optional[np.ndarray], active_ids: np.ndarray
) -> Optional[np.ndarray]:
    """Previous scores for the active nodes (NaN where never scored)."""
    if warm is None:
        return None
    x0 = np.full(len(active_ids), np.nan)
    known = active_ids < len(warm)
    x0[known] = warm[active_ids[known]]
    return x0


def _absorb_warm(
    warm: Optional[np.ndarray],
    active_ids: np.ndarray,
    scores: np.ndarray,
    node_count: int,
) -> np.ndarray:
    """Scatter fresh scores back into the node-id-indexed warm vector."""
    if warm is None or len(warm) < node_count:
        grown = np.full(max(node_count, 1), np.nan)
        if warm is not None:
            grown[: len(warm)] = warm
        warm = grown
    warm[active_ids] = scores
    return warm
