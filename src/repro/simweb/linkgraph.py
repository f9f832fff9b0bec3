"""Link-graph generation for the synthetic web.

Two levels of structure are generated:

* **Intra-site links** — each site is a shallow tree rooted at the site's
  root page (this is what makes the breadth-first "page window" of
  Section 2.1 meaningful), plus a few random shortcut links.
* **Cross-site links** — sites link to each other with preferential
  attachment, so that a small number of sites accumulate most of the
  in-links. This skew is what makes the site-level PageRank used for site
  selection (Section 2.2) produce a meaningful "popular sites" ranking, and
  what gives the page-level PageRank of the RankingModule a realistic,
  heavy-tailed importance distribution.

The shape is fixed by three module constants, not by a spec: no experiment
varies it, and every seeded web depends on it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.simweb.page import SimulatedPage
from repro.simweb.site import SimulatedSite

#: Average number of extra random intra-site links per page (beyond the
#: tree edges).
SHORTCUT_LINKS_PER_PAGE = 1.0
#: Average number of links from a site to root pages of other sites.
CROSS_LINKS_PER_SITE = 10
#: Strength of the rich-get-richer effect when choosing cross-link targets
#: (0 would make them uniform).
PREFERENTIAL_ATTACHMENT_BIAS = 1.0


def generate_site_links(
    pages: Sequence[SimulatedPage], rng: np.random.Generator
) -> None:
    """Wire the pages of one site into a tree plus random shortcuts.

    ``pages`` must be ordered by creation: the first page is treated as the
    root (depth 0) and every later page is attached under an earlier page,
    which guarantees that every page is reachable from the root when all
    pages are alive.

    Args:
        pages: Pages of a single site, root first.
        rng: Random generator.
    """
    if not pages:
        return
    for index, page in enumerate(pages):
        if index == 0:
            continue
        # Attach under a page with a smaller index, preferring shallow pages
        # so the tree stays wide (large breadth-first window).
        max_parent = index
        parent_index = int(rng.integers(0, max_parent))
        # Bias toward earlier (shallower) pages.
        parent_index = min(parent_index, int(rng.integers(0, max_parent)))
        parent = pages[parent_index]
        parent.add_outlink(page.url)
        page.depth = parent.depth + 1
    # Random shortcuts within the site.
    n_pages = len(pages)
    if n_pages > 2:
        n_shortcuts = rng.poisson(SHORTCUT_LINKS_PER_PAGE * n_pages)
        for _ in range(int(n_shortcuts)):
            source = pages[int(rng.integers(0, n_pages))]
            target = pages[int(rng.integers(0, n_pages))]
            if source.url != target.url:
                source.add_outlink(target.url)


def generate_cross_links(
    sites: Sequence[SimulatedSite], rng: np.random.Generator
) -> Dict[str, int]:
    """Add links between sites with preferential attachment.

    Each site emits :data:`CROSS_LINKS_PER_SITE` links (on average) from
    randomly chosen pages of the site to the *root pages* of other sites.
    Targets are chosen proportionally to ``1 + PREFERENTIAL_ATTACHMENT_BIAS
    * in_degree``, which concentrates links on a few "popular" sites.

    Args:
        sites: All sites of the synthetic web.
        rng: Random generator.

    Returns:
        Mapping from site id to the number of cross-site in-links it
        received (useful for tests and for sanity-checking popularity skew).
    """
    if len(sites) < 2:
        return {site.site_id: 0 for site in sites}
    in_degree = {site.site_id: 0 for site in sites}
    site_list = list(sites)
    for site in site_list:
        source_pages = [page for page in site.all_pages]
        if not source_pages:
            continue
        n_links = rng.poisson(CROSS_LINKS_PER_SITE)
        for _ in range(int(n_links)):
            target = _choose_target(site, site_list, in_degree, rng)
            if target is None:
                continue
            source = source_pages[int(rng.integers(0, len(source_pages)))]
            source.add_outlink(target.root_url)
            in_degree[target.site_id] += 1
    return in_degree


def _choose_target(
    source: SimulatedSite,
    sites: List[SimulatedSite],
    in_degree: Dict[str, int],
    rng: np.random.Generator,
) -> SimulatedSite:
    """Pick a cross-link target site (never the source) by popularity."""
    candidates = [site for site in sites if site.site_id != source.site_id]
    if not candidates:
        return None
    weights = np.array(
        [1.0 + PREFERENTIAL_ATTACHMENT_BIAS * in_degree[site.site_id]
         for site in candidates],
        dtype=float,
    )
    weights /= weights.sum()
    index = int(rng.choice(len(candidates), p=weights))
    return candidates[index]

