"""Simulated crawl substrate: fetching, politeness, checksums.

The paper's WebBase crawler fetched pages over HTTP subject to strict
politeness constraints (night-only crawling, at least ten seconds between
requests to one site — Section 2.3). This package provides the equivalent
behaviour against the synthetic web: a :class:`SimulatedFetcher` that
resolves URLs through the :class:`~repro.simweb.web.SimulatedWeb` oracle,
charges virtual time for each request, honours per-site politeness delays
and optional night-crawl windows, and computes content checksums — the
signal the UpdateModule uses to detect changes (Section 5.3).
"""

from repro.fetch.checksum import page_checksum
from repro.fetch.fetcher import FetchResult, FetchStatus, SimulatedFetcher
from repro.fetch.politeness import NightWindow, PolitenessPolicy

__all__ = [
    "page_checksum",
    "FetchResult",
    "FetchStatus",
    "SimulatedFetcher",
    "PolitenessPolicy",
    "NightWindow",
]
