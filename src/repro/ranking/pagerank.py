"""PageRank.

The paper quotes the PageRank equation as

    PR(P) = d + (1 - d) [ PR(P1)/c1 + ... + PR(Pn)/cn ]

with a "damping factor" of 0.9. In the more common normalisation
(Page & Brin, 1998) the link-following weight is called the damping factor
``alpha`` and the equation reads ``PR(P) = (1 - alpha) + alpha * sum(...)``;
the paper's ``d`` therefore corresponds to ``1 - alpha``. We implement the
standard form (:func:`pagerank`, default ``damping=0.85``) and a thin
wrapper (:func:`cho_pagerank`) that accepts the paper's parameterisation so
experiments can quote the paper exactly as written.

:func:`pagerank` computes by sparse power iteration — the dict adjacency is
interned into a :class:`repro.ranking.sparse.LinkGraph` and solved with one
CSR spmv per iteration (uniform redistribution of dangling-node mass,
scores normalised to sum to 1). The original dense per-node loop is kept
as a test oracle in ``tests/reference/kernels.py``, pinned against the
sparse path by ``tests/test_ranking_sparse.py``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.ranking.sparse import LinkGraph, pagerank_scores

Graph = Mapping[str, Sequence[str]]


def pagerank(
    graph: Graph,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> Dict[str, float]:
    """Compute PageRank scores for every node of ``graph``.

    Args:
        graph: Mapping from node to the nodes it links to. Nodes that appear
            only as link targets are included automatically. Links to
            unknown nodes are kept (the target node is created), since the
            RankingModule estimates the rank of pages it has not collected
            yet from the links pointing at them (Section 5.3, footnote 2).
        damping: Probability of following a link (the standard ``alpha``).
        tolerance: L1 convergence threshold.
        max_iterations: Iteration cap.

    Returns:
        Mapping from node to score; scores are non-negative and sum to 1.
    """
    link_graph = LinkGraph.from_graph(graph)
    ids, scores = pagerank_scores(
        link_graph,
        damping=damping,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    urls = link_graph.urls()
    return {urls[node]: score for node, score in zip(ids.tolist(), scores.tolist())}


def cho_pagerank(
    graph: Graph,
    d: float = 0.9,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> Dict[str, float]:
    """PageRank with the paper's parameterisation ``PR = d + (1-d) * sum``.

    Args:
        graph: Adjacency mapping (see :func:`pagerank`).
        d: The paper's "damping factor" (0.9 in the experiment); the
            link-following weight is ``1 - d``.

    Returns:
        Scores normalised to sum to 1.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("d must be within [0, 1]")
    return pagerank(
        graph,
        damping=1.0 - d,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )

