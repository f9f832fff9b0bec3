"""Synthetic evolving web substrate.

The paper's measurements were taken against the live 1999 web. We cannot
re-run that experiment, so this package provides a *simulated* web whose
statistical behaviour is calibrated to the paper's reported measurements:

* each page changes according to a Poisson process, as the paper itself
  verifies in Section 3.4 (Figure 6);
* per-domain distributions of change rates are calibrated to Figure 2(b);
* page lifespans (creation and deletion) are calibrated to Figure 4(b);
* pages are organised into sites with a root page and a breadth-first
  "page window", mirroring the monitoring technique of Section 2.1;
* sites link to each other through a preferential-attachment link graph so
  that PageRank-based "popularity" is meaningful (Section 2.2).

The simulated web exposes an oracle interface (`SimulatedWeb`) that the
fetch substrate queries: which content version a URL has at virtual time
``t``, which pages exist, what are the out-links. The crawlers under test
never see the oracle directly; they only observe fetch results.
"""

from repro.simweb.change_models import (
    ChangeProcess,
    NeverChanges,
    PeriodicChangeProcess,
    PoissonChangeProcess,
    BurstyChangeProcess,
)
from repro.simweb.domains import (
    DOMAIN_PROFILES,
    DomainProfile,
    profile_for,
)
from repro.simweb.lifespan import LifespanModel, sample_lifespan
from repro.simweb.page import SimulatedPage
from repro.simweb.site import SimulatedSite
from repro.simweb.web import OracleArrays, SimulatedWeb
from repro.simweb.generator import generate_web
from repro.simweb.linkgraph import generate_site_links, generate_cross_links

__all__ = [
    "ChangeProcess",
    "PoissonChangeProcess",
    "PeriodicChangeProcess",
    "BurstyChangeProcess",
    "NeverChanges",
    "DomainProfile",
    "DOMAIN_PROFILES",
    "profile_for",
    "LifespanModel",
    "sample_lifespan",
    "SimulatedPage",
    "SimulatedSite",
    "SimulatedWeb",
    "OracleArrays",
    "generate_web",
    "generate_site_links",
    "generate_cross_links",
]
