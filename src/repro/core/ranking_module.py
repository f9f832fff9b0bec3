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
sparse power iteration from the previous score vector — so the steady-state
cost of a scan is a delta sync plus a handful of spmv iterations, not a
from-scratch recompute. The retired dense path is kept as a test oracle in
``tests/reference/kernels.py``; the parity suite holds the refinement
decisions of both paths identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.specs import PolicySpec
from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.crawl_module import CrawlModule
from repro.ranking.sparse import LinkGraph, hits_scores, pagerank_scores
from repro.storage.checkpoint import pack_floats, unpack_floats
from repro.storage.collection import Collection
from repro.storage.records import PageRecord


#: Cap on how many collection pages one refinement scan may replace; keeps
#: a scan's effect incremental.
MAX_REPLACEMENTS_PER_SCAN = 10
#: A candidate must beat the least important collected page's importance
#: by this relative margin to replace it; avoids thrashing between
#: near-equal pages.
REPLACEMENT_MARGIN = 0.10


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of one refinement scan.

    Attributes:
        importance: Importance score of every ranked URL (collected pages
            and candidates).
        replacements: ``(discarded_url, admitted_url)`` pairs applied.
        admitted: URLs newly admitted without displacing anything (possible
            while the collection is below capacity).
    """

    importance: Dict[str, float]
    replacements: Tuple[Tuple[str, str], ...]
    admitted: Tuple[str, ...]


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
        importance = _clamp_residue(self._compute_importance())
        working = self._collection.working_records()
        collected_or_queued = set(self._collurls.urls())
        for record in working:
            # In place: every score moves each scan, so a copy-on-write
            # store would rebuild every record.
            record.importance = importance.get(record.url, 0.0)
            collected_or_queued.add(record.url)
        candidates = self._allurls.candidates(exclude=collected_or_queued)

        # Hoisted capacity state: the collected-or-queued set is built once
        # and its cardinality maintained across admissions/replacements
        # (an admission adds one tracked URL; a replacement removes the
        # victim and adds the newcomer, net zero).
        tracked = len(collected_or_queued)
        at_capacity = self._capacity is not None
        max_replacements = MAX_REPLACEMENTS_PER_SCAN

        # Select, do not sort: the loop below admits at most ``capacity -
        # tracked`` candidates, takes one victim per replacement and reads
        # one candidate past its last decision. ``heapq.nlargest``/``nsmallest``
        # equal ``sorted(...)[:k]``: the loop sees a full sort's prefixes.
        consumable = len(candidates)
        if at_capacity:
            consumable = max(self._capacity - tracked, 0) + max_replacements + 1
        candidate_scores = heapq.nlargest(
            consumable,
            ((importance.get(info.url, 0.0), info.url) for info in candidates),
        )
        victims = heapq.nsmallest(
            max_replacements, ((record.importance, record.url) for record in working)
        )
        victim_cursor = 0

        admitted: List[str] = []
        replacements: List[Tuple[str, str]] = []
        for score, url in candidate_scores:
            if len(replacements) >= max_replacements:
                break
            if not (at_capacity and tracked >= self._capacity):
                self._collurls.schedule_front(url, at)
                tracked += 1
                admitted.append(url)
                self.pages_admitted += 1
                continue
            if victim_cursor >= len(victims):
                break
            victim_score, victim_url = victims[victim_cursor]
            if score <= victim_score * (1.0 + REPLACEMENT_MARGIN):
                break
            victim_cursor += 1
            self._replace(victim_url, url, at)
            replacements.append((victim_url, url))
            self.pages_replaced += 1

        self.scans_completed += 1
        return RefinementResult(
            importance=importance,
            replacements=tuple(replacements),
            admitted=tuple(admitted),
        )

    def importance_of_collection(self) -> Dict[str, float]:
        """Latest stored importance of the collected pages."""
        return {
            record.url: record.importance
            for record in self._collection.working_records()
        }

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-serializable module state.

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
            "graph": self._graph.snapshot(),
            "warm": {
                name: None if vector is None else pack_floats(vector)
                for name, vector in (
                    ("pagerank", self._warm_pagerank),
                    ("hubs", self._warm_hubs),
                    ("authorities", self._warm_authorities),
                )
            },
        }

    def restore_snapshot(self, state: dict) -> None:
        """Restore the state captured by :meth:`snapshot`.

        A ``"graph_outlinks"`` table, which older checkpoints carry, is
        ignored: the graph's source edges are the same table.
        """
        self.scans_completed = int(state["scans_completed"])
        self.pages_replaced = int(state["pages_replaced"])
        self.pages_admitted = int(state["pages_admitted"])
        graph_state = state.get("graph")
        self._graph = LinkGraph()
        if graph_state is not None:
            self._graph.restore_snapshot(graph_state)
        self._graph_outlinks = self._graph.outlinks_by_source()
        warm = {
            name: None if packed is None else np.array(unpack_floats(packed))
            for name, packed in state.get("warm", {}).items()
        }
        self._warm_pagerank = warm.get("pagerank")
        self._warm_hubs = warm.get("hubs")
        self._warm_authorities = warm.get("authorities")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _sync_graph(self, records: Sequence[PageRecord]) -> None:
        """Apply the collection's out-link deltas to the live graph.

        One pass over the working records: pages whose out-links changed
        since the last scan (new pages, changed re-fetches) restate their
        edges in one bulk append; pages that left the collection drop
        theirs. Unchanged pages cost a dict lookup and a tuple compare.
        """
        synced = self._graph_outlinks
        graph = self._graph
        present = set()
        changed = []
        for record in records:
            url = record.url
            present.add(url)
            outlinks = tuple(record.outlinks)
            if synced.get(url) != outlinks:
                changed.append((url, outlinks))
                synced[url] = outlinks
        graph.set_outlinks_many(changed)
        if len(present) != len(synced):
            for url in [url for url in synced if url not in present]:
                graph.remove_page(url)
                del synced[url]

    def _compute_importance(self) -> Dict[str, float]:
        records = self._collection.working_records()
        self._sync_graph(records)
        graph = self._graph
        active_ids = graph.active_ids()
        if len(active_ids) == 0:
            return {}
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
        url_of = graph.url_of
        return {
            url_of(node): score
            for node, score in zip(ids.tolist(), scores.tolist())
        }

    def _replace(self, victim_url: str, new_url: str, at: float) -> None:
        self._crawl_module.discard(victim_url)
        self._collurls.remove(victim_url)
        self._collurls.schedule_front(new_url, at)


def _clamp_residue(importance: Dict[str, float]) -> Dict[str, float]:
    """Zero out sub-epsilon numerical residue before ranking decisions.

    HITS power iteration leaves geometric-decay dust (1e-38 and below) on
    nodes whose exact authority is zero; its magnitude depends on iteration
    count and summation order, so ordering candidates by it is ordering by
    implementation noise. Scores below a relative epsilon of the maximum
    are exactly zero for decision purposes, which makes the refinement
    decisions insensitive to which importance path produced the scores
    (PageRank's teleport term floors every score far above the epsilon, so
    this is a no-op there).
    """
    if not importance:
        return importance
    floor = max(importance.values()) * 1e-12
    return {
        url: (0.0 if score < floor else score)
        for url, score in importance.items()
    }


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
