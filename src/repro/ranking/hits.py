"""Hubs and authorities (HITS).

Section 5.2 lists "Hub and Authority [Kle98]" as an alternative importance
metric for the refinement decision. This is Kleinberg's algorithm: iterate

    authority(p) = sum of hub(q) over q linking to p
    hub(p)       = sum of authority(q) over q linked from p

normalising after each step, until the scores converge.

:func:`hits` computes on the sparse path — two CSR spmvs per iteration over
an interned :class:`repro.ranking.sparse.LinkGraph`. The original
edge-list ``np.add.at`` loop is kept as a test oracle in
``tests/reference/kernels.py``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.ranking.sparse import LinkGraph, hits_scores

Graph = Mapping[str, Sequence[str]]


def hits(
    graph: Graph,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Compute hub and authority scores for every node of ``graph``.

    Args:
        graph: Mapping from node to the nodes it links to; nodes appearing
            only as targets are included automatically.
        tolerance: L1 convergence threshold on both score vectors.
        max_iterations: Iteration cap.

    Returns:
        A pair ``(hubs, authorities)`` of mappings from node to score; each
        score vector is normalised to sum to 1 (all zeros for an empty or
        edgeless graph).
    """
    link_graph = LinkGraph.from_graph(graph)
    ids, hubs, authorities = hits_scores(
        link_graph, tolerance=tolerance, max_iterations=max_iterations
    )
    urls = link_graph.urls()
    id_list = ids.tolist()
    return (
        {urls[node]: score for node, score in zip(id_list, hubs.tolist())},
        {urls[node]: score for node, score in zip(id_list, authorities.tolist())},
    )
