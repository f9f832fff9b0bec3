"""Reproduction of Cho & Garcia-Molina, "The Evolution of the Web and
Implications for an Incremental Crawler" (VLDB 2000).

The package is organised as a set of substrates plus the paper's primary
contribution:

``repro.simweb``
    Synthetic evolving web: pages with Poisson change processes, sites with
    BFS page windows, per-domain calibration to the paper's measurements.
``repro.fetch``
    Simulated crawl substrate: fetcher, politeness, checksums.
``repro.storage``
    Repository substrate: page records, in-place and shadowing collections,
    a small inverted index.
``repro.ranking``
    Importance metrics: PageRank, site-level PageRank, HITS.
``repro.estimation``
    Change-frequency estimators EP (Poisson) and EB (Bayesian).
``repro.freshness``
    Analytic freshness/age models and revisit policies (Figures 7-9, Table 2).
``repro.simulation``
    Discrete-event crawl simulator used to cross-check the analytic models.
``repro.experiment``
    The Sections 2-3 web-evolution experiment (Figures 2, 4, 5, 6, Table 1).
``repro.core``
    The incremental-crawler architecture of Section 5 (Algorithm 5.1 and
    Figure 12) plus the periodic-crawler baseline.
``repro.analysis``
    Histograms, statistics and report rendering shared by the benchmarks.
``repro.api``
    Declarative experiment layer: JSON-round-trippable specs, plugin
    registries (revisit policies, estimators, change models, scenarios)
    and the unified ``run(spec) -> ExperimentResult`` runner.
"""

from repro.core.incremental_crawler import IncrementalCrawler, IncrementalCrawlerConfig
from repro.core.periodic_crawler import PeriodicCrawler, PeriodicCrawlerConfig
from repro.simweb.generator import WebGeneratorConfig, generate_web
from repro.simweb.web import SimulatedWeb

__version__ = "1.0.0"

__all__ = [
    "IncrementalCrawler",
    "IncrementalCrawlerConfig",
    "PeriodicCrawler",
    "PeriodicCrawlerConfig",
    "SimulatedWeb",
    "WebGeneratorConfig",
    "generate_web",
    "__version__",
]
