"""The checkpoint codec and the packed snapshots built on it.

Every per-URL float column of a checkpoint is written by ``pack_floats``
(base64 of little-endian float64 bytes), every int and bool column by
``pack_ints``, and every URL column but ``allurls.url`` as an index column
into that one URL table (``index_urls``). These tests hold the float round
trip bytes-exact for every 64-bit pattern, refuse an int that does not fit,
hold snapshots carrying non-finite or missing values ``==`` after a JSON
round trip, rebuild windowed histories' intervals and last visits bit for
bit, resume shard checkpoints whose URL table holds strays, and check
without a stopwatch that no JSON token but ``allurls.url``'s grows with the
collection.
"""

from __future__ import annotations

import json
import math
import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.api.specs import CrawlerSpec, PolicySpec
from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core.sharding import ShardView
from repro.core.update_module import HISTORY_WINDOW_DAYS, UpdateModule
from repro.estimation.change_history import (
    ChangeHistory,
    histories_from_columns,
    histories_to_columns,
)
from repro.storage.backends import SqliteBackend
from repro.storage.checkpoint import (
    CHECKPOINT_STATE_KEY,
    CrawlCheckpointer,
    pack_floats,
    pack_ints,
    resolve_urls,
    unpack_array,
    unpack_floats,
)

from test_checkpoint_resume import result_fingerprint

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
    history = ChangeHistory(first_visit=0.0, window_days=HISTORY_WINDOW_DAYS)
    history.record_visit(2.5, changed=True)
    history.record_visit(4.0, changed=False)
    unvisited = ChangeHistory(1.0, window_days=HISTORY_WINDOW_DAYS)
    module._histories = {"http://a.com/": history, "http://b.com/": unvisited}
    module._rate_estimates = {"http://a.com/": 0.4}
    module._intervals = {"http://a.com/": math.inf, "http://b.com/": -0.0}
    module.set_importance({"http://b.com/": 5e-324})
    snapshot = module.snapshot()

    restored = _update_module()
    restored.restore_snapshot(json.loads(json.dumps(snapshot)))
    assert restored.snapshot() == snapshot
    assert restored._intervals == module._intervals
    assert restored.history("http://a.com/").observations == history.observations
    assert restored.history("http://a.com/").last_visit == 4.0
    assert restored.history("http://b.com/").last_visit == 1.0
    assert restored.history("http://b.com/").window_days == HISTORY_WINDOW_DAYS


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


@pytest.mark.parametrize("values, dtype", [
    ([2**31], "<i4"), ([-(2**31) - 1], "<i4"), ([2], "?"), ([-1], "|u1"),
])
def test_an_int_that_does_not_fit_is_refused_not_wrapped(values, dtype):
    with pytest.raises(ValueError, match=f"does not fit {dtype}"):
        pack_ints(values, dtype)


def test_ints_and_bools_round_trip():
    ints = [0, -1, 2**31 - 1, -(2**31), 7]
    assert unpack_array(pack_ints(ints)).tolist() == ints
    assert unpack_array(pack_ints(np.array(ints, dtype=np.int64))).tolist() == ints
    assert unpack_array(pack_ints([True, False], "?"), "?").tolist() == [True, False]
    assert unpack_array(pack_ints([])).tolist() == []


def _bits(value):
    """A history slot with every float as its 64 bits."""
    if isinstance(value, deque):
        return [_bits(item) for item in value]
    return struct.pack("<d", value) if isinstance(value, float) else value


@given(
    first_visit=st.floats(0.0, 1e4),
    window_days=st.none() | st.floats(0.25, 40.0),
    pages=st.lists(
        st.lists(st.tuples(st.floats(0.0, 30.0), st.booleans()), max_size=24),
        min_size=1, max_size=5,
    ),
)
@example(first_visit=1.0 / 3.0, window_days=1.0, pages=[[(0.1, True)] * 20, []])
def test_windowed_histories_restore_bit_identically(first_visit, window_days, pages):
    """Only each page's first interval is stored; the rest are rebuilt from
    the visit times by the crawler's own subtraction, trimmed or not, and
    the last visit and the window without being stored at all."""
    histories = {}
    for index, visits in enumerate(pages):
        history = ChangeHistory(first_visit, window_days)
        time = first_visit
        for step, changed in visits:
            time += step
            history.record_visit(time, changed)
        histories[f"http://p{index}.com/"] = history
    columns = histories_to_columns(histories)
    assert "window_days" not in columns and "last_visit" not in columns
    restored = histories_from_columns(json.loads(json.dumps(columns)), window_days)
    assert list(restored) == list(histories)
    for url, history in histories.items():
        for slot in ChangeHistory.__slots__:
            assert _bits(getattr(restored[url], slot)) == _bits(getattr(history, slot)), slot


def test_a_two_shard_checkpoint_with_stray_urls_resumes_bit_identically(tiny_web):
    """A shard's graph and out-links hold foreign-site URLs its AllUrls never
    registers; they join the URL table as strays. Every shard resumes from
    every checkpoint to the uninterrupted run and writes the same checkpoints."""
    views = ShardView.split(tiny_web, 2, capacity=60, budget_per_day=200.0)
    assert len(views) == 2
    for view in views:
        spec = CrawlerSpec(
            collection_capacity=view.capacity,
            crawl_budget_per_day=view.budget_per_day,
            duration_days=30.0,
            ranking_interval_days=5.0,
            measurement_interval_days=1.0,
            track_quality=True,
        )

        def crawl(resume_state=None):
            crawler = IncrementalCrawler(tiny_web, spec, PolicySpec(), shard_view=view)
            checkpointer = CrawlCheckpointer(SqliteBackend(), every_days=7.0)
            states = []
            checkpointer.on_save = lambda state: states.append(json.loads(json.dumps(state)))
            outcome = crawler.run(checkpointer=checkpointer, resume_state=resume_state)
            return result_fingerprint(crawler, outcome), states

        expected, states = crawl()
        assert len(states) >= 3
        seen = {"graph": set(), "outlinks": set()}
        for index, state in enumerate(states):
            resolved = resolve_urls(state)
            registered = set(resolved["allurls"]["url"])
            strays = state["allurls"]["url"][len(registered):]
            assert len(strays) == state["allurls"]["strays"]
            graph = set(resolved["ranking"]["graph"]["urls"]) - registered
            outlinks = {url for links in resolved["collection"]["outlinks"] for url in links}
            outlinks -= registered
            assert set(strays) == graph | outlinks
            seen["graph"] |= graph
            seen["outlinks"] |= outlinks
            assert crawl(resume_state=state) == (expected, states[index + 1:])
        assert seen["graph"] and seen["outlinks"]


def _json_tokens(web, capacity):
    """``(numbers, strings, collection size)`` of a crawl's last checkpoint:
    every JSON number or constant token, and every string (object keys
    included) outside ``allurls.url``."""
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
    numbers = []
    state = json.loads(
        backend.load_state_text(CHECKPOINT_STATE_KEY),
        parse_float=lambda token: numbers.append(token) or float(token),
        parse_int=lambda token: numbers.append(token) or int(token),
        parse_constant=lambda token: numbers.append(token) or float(token),
    )
    size = len(resolve_urls(state)["collection"]["url"])
    state["allurls"]["url"] = []
    return len(numbers), _strings(state), size


def _strings(node):
    if isinstance(node, str):
        return 1
    if isinstance(node, dict):
        return sum(1 + _strings(value) for value in node.values())
    if isinstance(node, list):
        return sum(_strings(item) for item in node)
    return 0


def test_no_json_token_but_the_url_table_grows_with_the_collection(tiny_web):
    """Untimed guard: a checkpoint's JSON number and string counts do not
    grow with the collection; only ``allurls.url``, the URL table, does.

    The crawls differ only in capacity, so every token still written as
    JSON text (run bounds, scheduler heads, counters, the freshness and
    quality series, the packed columns themselves) occurs equally often in
    both. The EB posteriors and the failure tracker's state are still JSON
    and out of scope here: the crawls use EP and inject no faults.
    """
    small_numbers, small_strings, small_size = _json_tokens(tiny_web, 20)
    large_numbers, large_strings, large_size = _json_tokens(tiny_web, 60)
    assert small_size < large_size
    assert small_numbers == large_numbers
    assert small_strings == large_strings
