"""Simulated crawl substrate: fetching and politeness.

The paper's WebBase crawler fetched pages over HTTP subject to strict
politeness constraints (night-only crawling, at least ten seconds between
requests to one site — Section 2.3). This package provides the equivalent
behaviour against the synthetic web: a :class:`SimulatedFetcher` that
resolves URLs through the :class:`~repro.simweb.web.SimulatedWeb` oracle,
charges virtual time for each request, honours per-site politeness delays
and optional night-crawl windows, and reports each fetched page's content
version. The version plays the paper's checksum — the signal the
UpdateModule compares across visits to detect changes (Section 5.3).
"""

from repro.fetch.fetcher import FetchResult, FetchStatus, SimulatedFetcher
from repro.fetch.politeness import NightWindow, PolitenessPolicy

__all__ = [
    "FetchResult",
    "FetchStatus",
    "SimulatedFetcher",
    "PolitenessPolicy",
    "NightWindow",
]
