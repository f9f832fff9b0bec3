"""The checkpoint codec and the packed snapshots built on it.

Every per-URL float column of a checkpoint is built by ``pack_floats``
(a little-endian float64 ndarray), every int and bool column by
``pack_ints``, and every URL column but ``allurls.url`` as an index column
into that one URL table (``pack_urls``); ``encode`` stores the columns as
raw bytes beside a JSON header and ``decode`` reads them back as views.
These tests hold the float round trip through the codec bytes-exact for
every 64-bit pattern, refuse an int that does not fit, hold snapshots
carrying non-finite or missing values ``==`` after a codec round trip,
rebuild windowed histories' intervals and last visits bit for bit, resume
shard checkpoints whose URL table holds strays, check without a stopwatch
that no JSON token but ``allurls.url``'s grows with the collection, and
that a checkpoint's and a final image's headers spell each URL once.
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

from repro.api.specs import CrawlerSpec, FaultModelSpec, FaultsSpec, PolicySpec, RetrySpec
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
    COLLECTION_STATE_KEY,
    CollectionJournal,
    CrawlCheckpointer,
    columns_key,
    decode,
    encode,
    pack_floats,
    pack_ints,
    unpack_urls,
)

from test_checkpoint_resume import result_fingerprint, snapshot_with_table

#: Quiet and signalling NaNs with payloads, a negative NaN, ±0.0, ±inf, the
#: smallest and largest subnormals, and the largest finite double.
EDGE_PATTERNS = [
    0x7FF8000000000001, 0x7FF0000000000001, 0xFFF4000000000000,
    0x0000000000000000, 0x8000000000000000,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
    0x7FEFFFFFFFFFFFFF,
]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=64), st.integers(0, 7))
@example([], 0)
@example(EDGE_PATTERNS, 3)
def test_round_trip_is_bytes_exact(patterns, flags):
    """Through ``encode``/``decode``, behind a bool column that leaves the
    float column unaligned unless the codec pads it, and an empty column."""
    raw = struct.pack(f"<{len(patterns)}Q", *patterns)
    values = list(struct.unpack(f"<{len(patterns)}d", raw))
    document = {
        "flags": pack_ints([True] * flags, "?"),
        "values": pack_floats(values),
        "empty": pack_floats([]),
    }
    restored = decode(*encode(document))
    column = restored["values"]
    assert column.tobytes() == raw
    assert struct.pack(f"<{len(column)}d", *column.tolist()) == raw
    assert column.dtype == "<f8" and column.flags.aligned and not column.flags.writeable
    assert restored["flags"].tolist() == [True] * flags
    assert restored["empty"].dtype == "<f8" and restored["empty"].size == 0
    assert pack_floats(np.frombuffer(raw, dtype="<f8")).tobytes() == raw


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
    snapshot, table = snapshot_with_table(module)

    restored = _update_module()
    restored.restore_snapshot(decode(*snapshot), table)
    assert snapshot_with_table(restored) == (snapshot, table)
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
    snapshot = encode(registry.snapshot())

    restored = AllUrls()
    restored.restore_snapshot(decode(*snapshot))
    assert encode(restored.snapshot()) == snapshot
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
    restored = decode(*encode({
        "ints": pack_ints(ints),
        "from_array": pack_ints(np.array(ints, dtype=np.int64)),
        "bools": pack_ints([True, False], "?"),
        "versions": pack_ints([2**40, -3], "<i8"),
        "empty": pack_ints([]),
    }))
    assert restored["ints"].tolist() == restored["from_array"].tolist() == ints
    assert restored["bools"].tolist() == [True, False]
    assert restored["versions"].dtype == "<i8" and restored["versions"].flags.aligned
    assert restored["versions"].tolist() == [2**40, -3]
    assert restored["empty"].tolist() == []


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
    ids = {}
    columns = histories_to_columns(histories, ids)
    assert "window_days" not in columns and "last_visit" not in columns
    restored = histories_from_columns(decode(*encode(columns)), list(ids), window_days)
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
            checkpointer.on_save = lambda state: states.append(encode(state))
            outcome = crawler.run(checkpointer=checkpointer, resume_state=resume_state)
            return result_fingerprint(crawler, outcome), states

        expected, states = crawl()
        assert len(states) >= 3
        seen = {"graph": set(), "outlinks": set()}
        for index, stored in enumerate(states):
            state = decode(*stored)
            table = state["allurls"]["url"]
            registered = set(table[: len(table) - state["allurls"]["strays"]])
            strays = table[len(registered):]
            assert len(registered) == len(state["allurls"]["discovered_at"])
            graph = set(unpack_urls(state["ranking"]["graph"]["urls"], table)) - registered
            outlinks = set(unpack_urls(state["collection"]["outlinks"], table)) - registered
            assert set(strays) == graph | outlinks
            seen["graph"] |= graph
            seen["outlinks"] |= outlinks
            assert crawl(resume_state=state) == (expected, states[index + 1:])
        assert seen["graph"] and seen["outlinks"]


def _json_tokens(web, capacity):
    """``(numbers, strings, collection size)`` of a crawl's last checkpoint:
    every JSON number or constant token of its header (the columns' dtypes,
    offsets and lengths among them), and every string (object keys
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
        PolicySpec(estimator="eb"),
    )
    crawler.run(checkpointer=CrawlCheckpointer(backend, every_days=7.0))
    numbers = []
    state = json.loads(
        backend.load_state_text(CHECKPOINT_STATE_KEY),
        parse_float=lambda token: numbers.append(token) or float(token),
        parse_int=lambda token: numbers.append(token) or int(token),
        parse_constant=lambda token: numbers.append(token) or float(token),
    )
    size = state["collection"]["url"]["column"][2]
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
    quality series, the packed columns themselves, the EB posteriors among
    them, by their dtype, offset and length) occurs equally often in both.
    The failure tracker's site-keyed
    state is JSON and grows with the sites a crawl reaches, so these crawls
    inject no faults; the test below holds a faulty crawl's URLs to one
    spelling each.
    """
    small_numbers, small_strings, small_size = _json_tokens(tiny_web, 20)
    large_numbers, large_strings, large_size = _json_tokens(tiny_web, 60)
    assert small_size < large_size
    assert small_numbers == large_numbers
    assert small_strings == large_strings


def test_a_checkpoint_and_the_final_image_spell_each_url_once(tiny_web):
    """On an EB crawl with faults, retries and politeness, every web URL is
    written exactly once in the stored checkpoint header (in
    ``allurls.url``) and once in the final image's header (in its
    ``table``), and neither document keys a JSON object by URL: every other
    URL column is an index column."""
    backend = SqliteBackend()
    spec = CrawlerSpec(
        collection_capacity=60,
        crawl_budget_per_day=200.0,
        duration_days=30.0,
        ranking_interval_days=5.0,
        measurement_interval_days=1.0,
        track_quality=True,
        use_politeness=True,
        politeness_night_window=True,
        faults=FaultsSpec(seed=5, models=(
            FaultModelSpec("transient", {"rate": 0.1}),
            FaultModelSpec("site_outage", {"rate": 0.2, "period_days": 7.0, "duration_days": 0.5}),
            FaultModelSpec("rate_limit", {"rate": 0.05, "retry_after_days": 0.25}),
            FaultModelSpec("soft_404", {"rate": 0.05}),
        )),
        retry=RetrySpec(max_attempts=3, breaker_threshold=4),
    )
    crawler = IncrementalCrawler(tiny_web, spec, PolicySpec(estimator="eb"))
    crawler.run(journal=CollectionJournal(backend), checkpointer=CrawlCheckpointer(backend, 7.0))
    failures = crawler.failure_counters()
    assert failures["retries"] > 0

    checkpoint = backend.load_state_text(CHECKPOINT_STATE_KEY)
    image = backend.load_state_text(COLLECTION_STATE_KEY)
    state = decode(checkpoint, backend.load_state_text(columns_key(CHECKPOINT_STATE_KEY)))
    stored_image = decode(image, backend.load_state_text(columns_key(COLLECTION_STATE_KEY)))
    for text, document, table in (
        (checkpoint, state, state["allurls"]["url"]),
        (image, stored_image, stored_image["table"]),
    ):
        assert len(set(table)) == len(table)
        for url in tiny_web.urls():
            assert text.count(json.dumps(url)) == (url in table)
        assert _url_strings(document, table) == 0
    assert len(state["allurls"]["url"]) > spec.collection_capacity
    assert state["update"]["failures"]["attempts"]["urls"].size
    assert state["update"]["estimator"]["urls"].size


def _url_strings(node, table):
    """Strings of ``node`` that look like URLs, outside the list ``table``."""
    if isinstance(node, str):
        return node.startswith("http")
    if isinstance(node, dict):
        return sum(_url_strings(key, table) + _url_strings(value, table)
                   for key, value in node.items())
    if isinstance(node, list) and node is not table:
        return sum(_url_strings(item, table) for item in node)
    return 0
