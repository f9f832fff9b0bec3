"""Importance metrics used for the refinement decision.

Section 5.2: "To measure importance, the crawler can use a number of
metrics, including PageRank and Hub and Authority." Section 2.2 additionally
defines a *site-level* PageRank over a hypergraph of sites, which the paper
used to select the 400 candidate "popular" sites.

This package implements all three:

* :func:`pagerank` — page-level PageRank by sparse power iteration;
* :func:`site_pagerank` — PageRank over the site hypergraph built by
  collapsing page-level links;
* :func:`hits_scores` — Kleinberg's hubs-and-authorities scores.

All three ride the sparse kernels in :mod:`repro.ranking.sparse`: a
:class:`~repro.ranking.sparse.LinkGraph` interns URLs to dense integer ids
over flat COO edge buffers, compacts into a CSR matrix, and solves with one
spmv per power-iteration step. The RankingModule keeps one ``LinkGraph``
alive across refinement scans and warm-starts iteration from the previous
score vector. The retired dense loops are kept as test oracles in
``tests/reference/kernels.py``.
"""

from repro.ranking.pagerank import pagerank
from repro.ranking.site_rank import build_site_graph, site_pagerank
from repro.ranking.sparse import (
    LinkGraph,
    hits_scores,
    pagerank_scores,
)

__all__ = [
    "pagerank",
    "site_pagerank",
    "build_site_graph",
    "LinkGraph",
    "pagerank_scores",
    "hits_scores",
]
