"""The refinement scan's decisions and the work it does per scan.

A scan keeps its scores in node-id arrays, picks its victims and candidates
with ``np.partition`` plus an exact tie-break instead of sorting every one,
writes importance onto the stored records in place, restates changed
out-links with one bulk edge append and queues its admissions in one call.
The decision tests hold every decision to a full-sort oracle (on a crawled
web and on random tie-heavy graphs) and the selection to ``heapq``; the
guard counts, without a stopwatch, that no per-record copy, per-page
append, per-admission push or per-node URL lookup comes back.
"""

from __future__ import annotations

import heapq
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.specs import CrawlerSpec, PolicySpec, WebSpec
from repro.core.allurls import AllUrls
from repro.core.collurls import CollUrls
from repro.core.crawl_module import CrawlModule
from repro.core.incremental_crawler import IncrementalCrawler
from repro.core import ranking_module
from repro.core.ranking_module import REPLACEMENT_MARGIN, RankingModule, _select
from repro.fetch.fetcher import SimulatedFetcher
from repro.ranking.sparse import LinkGraph
from repro.simweb.generator import generate_web
from repro.storage.collection import InPlaceCollection
from repro.storage.records import PageRecord

from reference.crawl import crawl, pop, schedule
from test_checkpoint_resume import snapshot_with_table


def _full_sort_decision(
    tracked, collected, candidates, importance, capacity, max_replacements
):
    """The refinement decision taken over full sorts of both sides."""
    candidate_scores = sorted(
        ((importance.get(url, 0.0), url) for url in candidates), reverse=True
    )
    victims = sorted((importance.get(url, 0.0), url) for url in collected)
    admitted, replacements = [], []
    for score, url in candidate_scores:
        if len(replacements) >= max_replacements:
            break
        if capacity is None or tracked < capacity:
            tracked += 1
            admitted.append(url)
            continue
        if len(replacements) >= len(victims):
            break
        victim_score, victim_url = victims[len(replacements)]
        if score <= victim_score * (1.0 + REPLACEMENT_MARGIN):
            break
        replacements.append((victim_url, url))
    return tuple(replacements), tuple(admitted)


@pytest.mark.parametrize("metric", ["pagerank", "hits"])
@pytest.mark.parametrize("max_replacements", [0, 1, 10, 10_000])
@pytest.mark.parametrize("capacity", [None, 60, 12])
def test_scan_decisions_equal_full_sort_oracle(
    tiny_web, capacity, max_replacements, metric, monkeypatch
):
    monkeypatch.setattr(ranking_module, "MAX_REPLACEMENTS_PER_SCAN", max_replacements)
    collection = InPlaceCollection(capacity=capacity)
    allurls = AllUrls()
    crawl_module = CrawlModule(
        SimulatedFetcher(tiny_web, latency_days=0.0), collection, allurls
    )
    collurls = CollUrls()
    ranking = RankingModule(
        allurls, collurls, collection, crawl_module, PolicySpec(importance_metric=metric)
    )
    for url in tiny_web.seed_urls()[:4]:
        crawl(crawl_module, url, at=0.5)
    decisions = 0
    for scan in range(8):
        at = 1.0 + scan
        collected = [record.url for record in collection.working_records()]
        tracked = set(collurls.urls()).union(collected)
        candidates = allurls.candidates(exclude=tracked)
        result = ranking.refine(at)
        assert (result.replacements, result.admitted) == _full_sort_decision(
            len(tracked), collected, candidates, result.importance, capacity,
            max_replacements,
        )
        decisions += len(result.replacements) + len(result.admitted)
        # Crawl what the scan queued, so the next scan ranks a grown graph.
        while (entry := pop(collurls)) is not None:
            if collection.get_working(entry[0]) is None:
                crawl(crawl_module, entry[0], at=at + 0.5)
    assert decisions > 0 or max_replacements == 0


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 30)),
        max_size=25,
        unique_by=lambda pair: pair[1],
    ),
    extra=st.integers(0, 2),
    largest=st.booleans(),
)
def test_select_equals_heapq(pairs, extra, largest):
    """A tiny score pool forces ties; k runs from 0 to n + 2."""
    urls = [f"http://p{index:02d}/" for _, index in pairs]
    scores = np.array([score for score, _ in pairs])
    pick = heapq.nlargest if largest else heapq.nsmallest
    for k in range(len(pairs) + 1 + extra):
        assert _select(scores, urls, k, largest) == pick(k, zip(scores.tolist(), urls))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scan_decisions_on_tie_heavy_graphs_equal_full_sort_oracle(data):
    """Random small graphs: most pages lack in-links and share a score."""
    draw = data.draw
    pool = [f"http://n{index:02d}.com/" for index in range(draw(st.integers(2, 20)))]
    links = st.lists(st.sampled_from(pool), max_size=4)
    outlinks = draw(st.dictionaries(st.sampled_from(pool), links, min_size=1))
    queued = draw(st.sets(st.sampled_from(pool)))
    # Room for up to 8 admissions in the first scan, or no cap at all.
    room = draw(st.one_of(st.none(), st.integers(0, 8)))
    capacity = None if room is None else len(queued.union(outlinks)) + room
    failed = draw(st.sets(st.sampled_from(pool)))
    max_replacements = draw(st.sampled_from([0, 1, 2, 10]))
    metric = draw(st.sampled_from(["pagerank", "hits"]))

    collection = InPlaceCollection(capacity=capacity)
    allurls = AllUrls()
    allurls.add_many(pool, 0.0)
    for url in failed:
        allurls.record_failure(url, 0.5)
    collurls = CollUrls()
    for url in sorted(queued):
        schedule(collurls, url, 2.0)
    for url, links_of in outlinks.items():
        collection.store(_record(url, links_of))
    ranking = RankingModule(
        allurls, collurls, collection, CrawlModule(None, collection, allurls),
        PolicySpec(importance_metric=metric),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranking_module, "MAX_REPLACEMENTS_PER_SCAN", max_replacements)
        for at in (1.0, 2.0):
            collected = [record.url for record in collection.working_records()]
            tracked = set(collurls.urls()).union(collected)
            candidates = allurls.candidates(exclude=tracked)
            result = ranking.refine(at)
            assert (result.replacements, result.admitted) == _full_sort_decision(
                len(tracked), collected, candidates, result.importance, capacity,
                max_replacements,
            )
            for record in collection.working_records():
                assert record.importance == result.importance.get(record.url, 0.0)


def test_scan_copies_no_record_and_appends_edges_once(monkeypatch):
    """Inside ``refine``: no PageRecord is built, at most one edge append,
    one bulk admission, a scalar front push per replacement only and no
    id-to-URL lookup per ranked node."""
    counts = {
        "records": 0, "appends": 0, "front_many": 0, "front": 0, "url_of": 0,
    }
    per_scan = []
    scanning = []

    post_init = PageRecord.__post_init__
    append = LinkGraph._append_outlinks
    url_of = LinkGraph.url_of
    schedule_front = CollUrls.schedule_front
    schedule_front_many = CollUrls.schedule_front_many
    refine = RankingModule.refine

    def counting(key, method):
        def counted(*args, **kwargs):
            if scanning:
                counts[key] += 1
            return method(*args, **kwargs)
        return counted

    def counting_refine(module, at):
        before = dict(counts)
        scanning.append(True)
        try:
            return refine(module, at)
        finally:
            scanning.pop()
            per_scan.append({key: counts[key] - before[key] for key in counts})

    monkeypatch.setattr(PageRecord, "__post_init__", counting("records", post_init))
    monkeypatch.setattr(LinkGraph, "_append_outlinks", counting("appends", append))
    monkeypatch.setattr(LinkGraph, "url_of", counting("url_of", url_of))
    monkeypatch.setattr(CollUrls, "schedule_front", counting("front", schedule_front))
    monkeypatch.setattr(
        CollUrls, "schedule_front_many", counting("front_many", schedule_front_many)
    )
    monkeypatch.setattr(RankingModule, "refine", counting_refine)
    web = generate_web(
        WebSpec(
            site_scale=0.04,
            pages_per_site=12,
            horizon_days=50.0,
            new_page_fraction=0.25,
            seed=31,
        )
    )
    result = IncrementalCrawler(
        web,
        CrawlerSpec(
            collection_capacity=80,
            crawl_budget_per_day=300.0,
            duration_days=25.0,
            ranking_interval_days=3.0,
            measurement_interval_days=1.0,
            track_quality=False,
        ),
        PolicySpec(),
    ).run()

    assert len(per_scan) > 3 and result.pages_replaced > 0
    assert [scan["records"] for scan in per_scan] == [0] * len(per_scan)
    assert max(scan["appends"] for scan in per_scan) == 1
    assert max(scan["front_many"] for scan in per_scan) == 1
    assert max(scan["front"] for scan in per_scan) <= ranking_module.MAX_REPLACEMENTS_PER_SCAN
    assert sum(scan["front"] for scan in per_scan) == result.pages_replaced
    assert [scan["url_of"] for scan in per_scan] == [0] * len(per_scan)


def _record(url, outlinks):
    return PageRecord(
        url=url, version=0, fetched_at=0.0, first_fetched_at=0.0,
        outlinks=tuple(outlinks),
    )


def test_restore_rebuilds_the_synced_outlinks_from_the_graph():
    """A checkpoint no longer carries the out-links last synced per page:
    they are the graph's source edges, and the restore reads them back."""
    a, b, c, d, e, f = (f"http://{name}.com/" for name in "abcdef")
    collection = InPlaceCollection()
    crawl_module = CrawlModule(None, collection, AllUrls())

    def ranking():
        return RankingModule(
            AllUrls(), CollUrls(), collection, crawl_module, PolicySpec()
        )

    live = ranking()
    # A duplicated out-link, a page without out-links, and a restated page
    # whose old edges stay in the buffers as stale ones.
    for url, links in ((a, (b, c, b)), (d, ()), (e, (a,)), (f, (a, d))):
        collection.store(_record(url, links))
    live.refine(1.0)
    collection.store(_record(f, (e,)))
    live.refine(2.0)
    # Discarded since the last scan: a source until the next sync.
    crawl_module.discard(e)
    synced = dict(live._graph_outlinks)
    assert synced == {a: (b, c, b), d: (), e: (a,), f: (e,)}
    assert live.graph.outlinks_by_source() == synced

    restored = ranking()
    snapshot, table = snapshot_with_table(live)
    restored.restore_snapshot(json.loads(json.dumps(snapshot)), table)
    assert restored._graph_outlinks == synced
    assert restored.refine(3.0).importance == live.refine(3.0).importance
    assert restored._graph_outlinks == live._graph_outlinks == {
        a: (b, c, b), d: (), f: (e,)
    }
