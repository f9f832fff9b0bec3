"""The incremental-crawler architecture (Section 5, Figures 11 and 12).

The architecture has three modules and three data structures:

* :class:`~repro.core.allurls.AllUrls` — every URL the crawler has ever
  discovered, the candidates of the refinement decision (their importance
  comes from the in-links of the RankingModule's link graph);
* :class:`~repro.core.collurls.CollUrls` — the URLs that are (or will be) in
  the collection, kept in a priority queue ordered by scheduled visit time;
* the ``Collection`` (from :mod:`repro.storage`) — the stored page copies;
* :class:`~repro.core.crawl_module.CrawlModule` — fetches a page, stores it
  in the collection and forwards extracted URLs to AllUrls;
* :class:`~repro.core.update_module.UpdateModule` — keeps the collection
  fresh: pops the next URL from CollUrls, requests a crawl, detects changes
  by comparing the fetched content version with the stored one (the
  version plays the paper's checksum), re-estimates the page's change
  frequency (EP or EB) and pushes the URL back with its next visit time;
* :class:`~repro.core.ranking_module.RankingModule` — keeps the collection
  high-quality: recomputes importance (PageRank / HITS), and replaces the
  least important collected page with a more important uncollected one (the
  refinement decision).

:class:`~repro.core.incremental_crawler.IncrementalCrawler` wires everything
together on a virtual clock; :class:`~repro.core.periodic_crawler.PeriodicCrawler`
is the baseline the paper contrasts it with (batch crawls into a shadow
collection, swapped at the end of each cycle).
"""

from repro.core.allurls import AllUrls, UrlInfo
from repro.core.collurls import CollUrls
from repro.core.crawl_module import CrawlModule
from repro.core.update_module import UpdateModule
from repro.core.ranking_module import RankingModule
from repro.core.incremental_crawler import CrawlRunResult, IncrementalCrawler
from repro.core.periodic_crawler import PeriodicCrawler

__all__ = [
    "AllUrls",
    "UrlInfo",
    "CollUrls",
    "CrawlModule",
    "UpdateModule",
    "RankingModule",
    "IncrementalCrawler",
    "CrawlRunResult",
    "PeriodicCrawler",
]
