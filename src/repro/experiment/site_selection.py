"""Site selection for the monitoring experiment (Section 2.2, Table 1).

The paper identified the 400 most "popular" sites in the WebBase snapshot
using a site-level PageRank over the hypergraph of sites, asked the
webmasters for permission, and ended up with 270 consenting sites: 132 com,
78 edu, 30 netorg and 30 gov (Table 1).

:func:`select_sites` reproduces that pipeline against a synthetic web:
compute site-level PageRank, take the top ``n_candidates`` sites, and apply
a per-site consent draw so that roughly ``consent_rate`` of them remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.ranking.site_rank import site_pagerank, top_sites
from repro.simweb.web import SimulatedWeb

#: The paper's Table 1, for paper-vs-measured comparisons.
PAPER_TABLE1_SITE_COUNTS: Dict[str, int] = {
    "com": 132,
    "edu": 78,
    "netorg": 30,
    "gov": 30,
}


@dataclass(frozen=True)
class SiteSelection:
    """Outcome of the site-selection step.

    Attributes:
        candidate_site_ids: The popular candidate sites, most popular first.
        selected_site_ids: Candidates whose webmasters consented.
        domain_counts: Number of selected sites per domain (the Table 1
            quantity).
        popularity: Site-level PageRank score of every site in the web.
    """

    candidate_site_ids: Sequence[str]
    selected_site_ids: Sequence[str]
    domain_counts: Dict[str, int]
    popularity: Dict[str, float]

    @property
    def n_selected(self) -> int:
        """Number of sites that will be monitored."""
        return len(self.selected_site_ids)


def select_sites(
    web: SimulatedWeb,
    n_candidates: int = 400,
    consent_rate: float = 270.0 / 400.0,
    seed: int = 0,
) -> SiteSelection:
    """Select the sites to monitor, following the paper's procedure.

    Args:
        web: The synthetic web (its full link graph stands in for the
            25-million-page WebBase snapshot the paper used).
        n_candidates: Number of most-popular candidate sites to contact
            (400 in the paper). Capped at the number of sites in the web.
        consent_rate: Probability that a candidate site's webmaster grants
            permission (270/400 in the paper).
        seed: Seed of the consent draw.

    Returns:
        A :class:`SiteSelection` with the candidates, the consenting sites
        and the per-domain counts.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be at least 1")
    if not 0.0 < consent_rate <= 1.0:
        raise ValueError("consent_rate must be within (0, 1]")
    graph = dict(web.links_within())
    popularity = site_pagerank(graph, site_of=lambda url: web.page(url).site_id)
    n_candidates = min(n_candidates, web.n_sites)
    candidates = top_sites(popularity, n_candidates)

    rng = np.random.default_rng(seed)
    selected: List[str] = [
        site_id for site_id in candidates if rng.random() < consent_rate
    ]
    if not selected:
        # Degenerate tiny webs with an unlucky draw: keep the most popular
        # candidate so downstream analyses always have something to monitor.
        selected = [candidates[0]]

    domain_counts: Dict[str, int] = {}
    for site_id in selected:
        domain = web.site(site_id).domain
        domain_counts[domain] = domain_counts.get(domain, 0) + 1

    return SiteSelection(
        candidate_site_ids=tuple(candidates),
        selected_site_ids=tuple(selected),
        domain_counts=domain_counts,
        popularity=popularity,
    )


def domain_share(domain_counts: Dict[str, int]) -> Dict[str, float]:
    """Fraction of selected sites per domain (for shape comparisons)."""
    total = sum(domain_counts.values())
    if total == 0:
        return {domain: 0.0 for domain in domain_counts}
    return {domain: count / total for domain, count in domain_counts.items()}
