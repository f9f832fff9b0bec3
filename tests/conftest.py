"""Shared fixtures for the test suite.

Expensive artefacts (a generated synthetic web and a completed monitoring
run) are session-scoped so the many analysis tests that only read them do
not regenerate them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.specs import WebSpec
from repro.core.ranking_module import RankingModule
from repro.experiment.monitor import ActiveMonitor, ObservationLog
from repro.simweb.generator import generate_web
from repro.simweb.web import SimulatedWeb


@pytest.fixture(scope="session")
def small_web() -> SimulatedWeb:
    """A small but fully featured synthetic web (session scoped, read only)."""
    return generate_web(WebSpec(
        site_scale=0.08,
        pages_per_site=30,
        horizon_days=127.0,
        new_page_fraction=0.25,
        seed=42,
    ))


@pytest.fixture(scope="session")
def tiny_web() -> SimulatedWeb:
    """A very small synthetic web for crawler end-to-end tests."""
    return generate_web(WebSpec(
        site_scale=0.04,
        pages_per_site=15,
        horizon_days=60.0,
        new_page_fraction=0.2,
        seed=7,
    ))


@pytest.fixture(scope="session")
def observation_log(small_web: SimulatedWeb) -> ObservationLog:
    """A completed monitoring run over the small web (session scoped)."""
    monitor = ActiveMonitor(small_web)
    return monitor.run(start_day=0, end_day=int(small_web.horizon_days) - 1)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A seeded random generator for per-test sampling."""
    return np.random.default_rng(12345)


@pytest.fixture()
def collection_stays_queued(monkeypatch):
    """Check after every ranking scan that each working page is queued.

    A collected page is crawled again, so it must sit in CollUrls; a scan
    that admitted or replaced without queueing would strand it.
    """
    refine = RankingModule.refine

    def checked(module, at):
        result = refine(module, at)
        stranded = [
            record.url
            for record in module._collection.working_records()
            if record.url not in module._collurls
        ]
        assert stranded == [], f"scan at {at} left pages unqueued"
        return result

    monkeypatch.setattr(RankingModule, "refine", checked)
