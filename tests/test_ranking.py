"""Tests for repro.ranking: PageRank, site-level PageRank and HITS."""

import pytest

from repro.ranking.pagerank import pagerank
from repro.ranking.site_rank import build_site_graph, site_pagerank, top_sites
from repro.ranking.sparse import LinkGraph, hits_scores, pagerank_scores

GRAPH = {"a": ["b", "c"], "b": ["c"], "c": ["a"], "d": ["c", "ghost"]}


class TestPageRank:
    def test_scores_sum_to_one(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a"]}
        scores = pagerank(graph)
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_symmetric_cycle_is_uniform(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a"]}
        scores = pagerank(graph)
        assert scores["a"] == pytest.approx(scores["b"], abs=1e-8)
        assert scores["b"] == pytest.approx(scores["c"], abs=1e-8)

    def test_popular_node_scores_higher(self):
        graph = {
            "hub": ["popular"],
            "a": ["popular"],
            "b": ["popular"],
            "popular": ["hub"],
        }
        scores = pagerank(graph)
        assert scores["popular"] > scores["a"]
        assert scores["popular"] == max(scores.values())

    def test_dangling_nodes_handled(self):
        graph = {"a": ["b"], "b": []}
        scores = pagerank(graph)
        assert sum(scores.values()) == pytest.approx(1.0)
        assert scores["b"] > scores["a"]

    def test_link_targets_outside_key_set_included(self):
        graph = {"a": ["ghost"]}
        scores = pagerank(graph)
        assert "ghost" in scores

    def test_empty_graph(self):
        assert pagerank({}) == {}

    def test_damping_bounds(self):
        with pytest.raises(ValueError):
            pagerank({"a": []}, damping=1.5)

    def test_damping_zero_gives_uniform(self):
        graph = {"a": ["b"], "b": ["a"], "c": ["a"]}
        scores = pagerank(graph, damping=0.0)
        assert scores["a"] == pytest.approx(1 / 3, abs=1e-9)

    def test_edgeless_graph_is_uniform(self):
        scores = pagerank({"a": [], "b": []})
        assert scores == pytest.approx({"a": 0.5, "b": 0.5})

    def test_dict_entry_point_equals_the_kernel(self):
        graph = LinkGraph.from_graph(GRAPH)
        ids, scores = pagerank_scores(graph, damping=0.7)
        expected = {graph.url_of(i): s for i, s in zip(ids.tolist(), scores.tolist())}
        assert pagerank(GRAPH, damping=0.7) == expected


class TestSiteRank:
    def _page_graph(self):
        return {
            "http://a.com/1": ["http://a.com/2", "http://b.com/1"],
            "http://a.com/2": ["http://b.com/1"],
            "http://b.com/1": ["http://c.com/1"],
            "http://c.com/1": ["http://b.com/1"],
        }

    @staticmethod
    def _site_of(url):
        return url.split("/")[2]

    def test_build_site_graph_drops_intra_site_links(self):
        site_graph = build_site_graph(self._page_graph(), self._site_of)
        assert "a.com" in site_graph
        assert "a.com" not in site_graph["a.com"]
        assert site_graph["a.com"] == ["b.com"]

    def test_site_pagerank_sums_to_one(self):
        scores = site_pagerank(self._page_graph(), self._site_of)
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_most_linked_site_wins(self):
        scores = site_pagerank(self._page_graph(), self._site_of)
        assert max(scores, key=scores.get) == "b.com"

    def test_top_sites_ordering(self):
        scores = {"a": 0.5, "b": 0.3, "c": 0.2}
        assert top_sites(scores, 2) == ["a", "b"]

    def test_top_sites_bounds(self):
        assert top_sites({"a": 1.0}, 5) == ["a"]
        with pytest.raises(ValueError):
            top_sites({"a": 1.0}, -1)


def hits(graph):
    """``(hubs, authorities)`` by node of a dict adjacency, from
    :func:`hits_scores` over its interned :class:`LinkGraph`."""
    link_graph = LinkGraph.from_graph(graph)
    ids, hubs, authorities = hits_scores(link_graph)
    urls = link_graph.urls()
    nodes = [urls[i] for i in ids.tolist()]
    return dict(zip(nodes, hubs.tolist())), dict(zip(nodes, authorities.tolist()))


class TestHits:
    def test_authority_goes_to_linked_node(self):
        graph = {"h1": ["auth"], "h2": ["auth"], "auth": []}
        hubs, authorities = hits(graph)
        assert authorities["auth"] == max(authorities.values())
        assert hubs["h1"] > hubs["auth"]

    def test_scores_normalised(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a"]}
        hubs, authorities = hits(graph)
        assert sum(hubs.values()) == pytest.approx(1.0)
        assert sum(authorities.values()) == pytest.approx(1.0)

    def test_empty_graph(self):
        assert hits({}) == ({}, {})

    def test_edgeless_graph(self):
        hubs, authorities = hits({"a": [], "b": []})
        assert all(v == 0.0 for v in hubs.values())
        assert all(v == 0.0 for v in authorities.values())

    def test_targets_outside_key_set_included(self):
        hubs, authorities = hits({"a": ["ghost"]})
        assert "ghost" in authorities
