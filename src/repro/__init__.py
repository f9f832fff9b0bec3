"""Reproduction of Cho & Garcia-Molina, "The Evolution of the Web and
Implications for an Incremental Crawler" (VLDB 2000).

The package is organised as a set of substrates plus the paper's primary
contribution:

``repro.simweb``
    Synthetic evolving web: pages with Poisson change processes, sites with
    BFS page windows, per-domain calibration to the paper's measurements.
``repro.fetch``
    Simulated crawl substrate: fetcher and politeness.
``repro.storage``
    The crawler's local collection: page records, in-place and shadowing
    collections and pluggable persistent backends with resumable
    checkpoints.
``repro.ranking``
    Importance metrics: PageRank, site-level PageRank, HITS.
``repro.estimation``
    Change-frequency estimators EP (Poisson) and EB (Bayesian).
``repro.freshness``
    Analytic freshness/age models and revisit policies (Figures 7-9, Table 2).
``repro.simulation``
    Vectorized Monte-Carlo policy simulator that cross-checks the analytic
    models, plus the event-stream scheduler and freshness tracker the
    crawlers run on.
``repro.experiment``
    The Sections 2-3 web-evolution experiment (Figures 2, 4, 5, 6, Table 1).
``repro.core``
    The incremental-crawler architecture of Section 5 (Algorithm 5.1 and
    Figure 12) plus the periodic-crawler baseline. Both crawlers take their
    settings from the ``repro.api`` specs (:class:`CrawlerSpec`,
    :class:`PolicySpec`).
``repro.analysis``
    Histograms, statistics and plain-text report rendering.
``repro.api``
    Declarative experiment layer: JSON-round-trippable specs, plugin
    registries (revisit policies, estimators, change models, scenarios)
    and the unified ``run(spec) -> ExperimentResult`` runner.
"""

from repro.api.specs import CrawlerSpec, PolicySpec
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.periodic_crawler import PeriodicCrawler
from repro.simweb.generator import WebGeneratorConfig, generate_web
from repro.simweb.web import SimulatedWeb

__version__ = "1.0.0"

__all__ = [
    "CrawlerSpec",
    "IncrementalCrawler",
    "PeriodicCrawler",
    "PolicySpec",
    "SimulatedWeb",
    "WebGeneratorConfig",
    "generate_web",
    "__version__",
]
