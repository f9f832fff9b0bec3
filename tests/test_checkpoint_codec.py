"""The checkpoint float codec and the packed snapshots built on it.

Every per-URL float column of a checkpoint is written by ``pack_floats``
(base64 of little-endian float64 bytes) and read back by ``unpack_floats``.
These tests hold the round trip bytes-exact for every 64-bit pattern, hold
snapshots carrying non-finite or missing values ``==`` after a JSON round
trip, and check without a stopwatch that no per-URL float is left in a
checkpoint as JSON text.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.api.specs import CrawlerSpec, PolicySpec
from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.update_module import UpdateModule
from repro.estimation.change_history import ChangeHistory
from repro.storage.backends import SqliteBackend
from repro.storage.checkpoint import (
    CHECKPOINT_STATE_KEY,
    CrawlCheckpointer,
    pack_floats,
    unpack_floats,
)

#: Quiet and signalling NaNs with payloads, a negative NaN, ±0.0, ±inf, the
#: smallest and largest subnormals, and the largest finite double.
EDGE_PATTERNS = [
    0x7FF8000000000001, 0x7FF0000000000001, 0xFFF4000000000000,
    0x0000000000000000, 0x8000000000000000,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
    0x7FEFFFFFFFFFFFFF,
]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
@example([])
@example(EDGE_PATTERNS)
def test_round_trip_is_bytes_exact(patterns):
    raw = struct.pack(f"<{len(patterns)}Q", *patterns)
    values = list(struct.unpack(f"<{len(patterns)}d", raw))
    restored = unpack_floats(pack_floats(values))
    assert struct.pack(f"<{len(restored)}d", *restored) == raw
    assert pack_floats(np.frombuffer(raw, dtype="<f8")) == pack_floats(values)


def _update_module() -> UpdateModule:
    return UpdateModule(CollUrls(), None, CrawlerSpec(), PolicySpec())


def test_update_snapshot_with_an_infinite_interval_restores_equal():
    module = _update_module()
    history = ChangeHistory(first_visit=0.0, window_days=180.0)
    history.record_visit(2.5, changed=True)
    history.record_visit(4.0, changed=False)
    module._histories = {"http://a.com/": history, "http://b.com/": ChangeHistory(1.0)}
    module._rate_estimates = {"http://a.com/": 0.4}
    module._intervals = {"http://a.com/": math.inf, "http://b.com/": -0.0}
    module.set_importance({"http://b.com/": 5e-324})
    snapshot = module.snapshot()

    restored = _update_module()
    restored.restore_snapshot(json.loads(json.dumps(snapshot)))
    assert restored.snapshot() == snapshot
    assert restored._intervals == module._intervals
    assert restored.history("http://a.com/").observations == history.observations
    assert restored.history("http://b.com/").window_days is None


def test_allurls_snapshot_with_a_never_failed_url_restores_equal():
    registry = AllUrls()
    registry.add("http://a.com/", discovered_at=0.5)
    registry.record_links("http://a.com/", ["http://b.com/"], discovered_at=1.25)
    registry.record_failure("http://b.com/", at=3.0)
    snapshot = registry.snapshot()

    restored = AllUrls()
    restored.restore_snapshot(json.loads(json.dumps(snapshot)))
    assert restored.snapshot() == snapshot
    assert restored.info("http://a.com/") == registry.info("http://a.com/")
    assert restored.info("http://a.com/").last_failed_at is None
    assert restored.info("http://b.com/") == registry.info("http://b.com/")


def _float_tokens_and_size(web, capacity):
    backend = SqliteBackend()
    crawler = IncrementalCrawler(
        web,
        CrawlerSpec(
            collection_capacity=capacity,
            crawl_budget_per_day=200.0,
            duration_days=30.0,
            ranking_interval_days=5.0,
            measurement_interval_days=1.0,
        ),
        PolicySpec(estimator="ep"),
    )
    crawler.run(checkpointer=CrawlCheckpointer(backend, every_days=7.0))
    tokens = []
    state = json.loads(
        backend.load_state_text(CHECKPOINT_STATE_KEY),
        parse_float=lambda token: tokens.append(token) or float(token),
    )
    return len(tokens), len(state["collection"]["url"])


def test_no_per_url_float_is_left_as_json_text(tiny_web):
    """Untimed guard: a checkpoint's JSON float count does not grow with the collection.

    The crawls differ only in capacity, so every float still written as
    JSON text (run bounds, scheduler heads, the freshness and quality
    series) occurs equally often in both. The EB posteriors and the
    failure tracker's state are still JSON and out of scope here: the
    crawls use EP and inject no faults.
    """
    small_floats, small_size = _float_tokens_and_size(tiny_web, 20)
    large_floats, large_size = _float_tokens_and_size(tiny_web, 60)
    assert small_size < large_size
    assert small_floats == large_floats
