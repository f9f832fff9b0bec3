"""Tests for repro.simweb.web, repro.simweb.linkgraph and repro.simweb.generator."""

import hashlib

import numpy as np
import pytest

from repro.api.specs import WebSpec
from repro.simweb.generator import generate_web
from repro.simweb.linkgraph import generate_cross_links, generate_site_links
from repro.simweb.page import SimulatedPage
from repro.simweb.site import SimulatedSite
from repro.simweb.web import SimulatedWeb
from tests.test_simweb_page_site import make_page

from reference.kernels import true_importance_reference
from reference.oracle import page_version_at, snapshot


class TestGenerateSiteLinks:
    def test_all_pages_reachable_from_root(self, rng):
        pages = [make_page(url=f"http://s.com/p{i}", depth=0 if i == 0 else 1, seed=i)
                 for i in range(20)]
        generate_site_links(pages, rng)
        reachable = {pages[0].url}
        frontier = [pages[0]]
        by_url = {p.url: p for p in pages}
        while frontier:
            page = frontier.pop()
            for link in page.outlinks:
                if link in by_url and link not in reachable:
                    reachable.add(link)
                    frontier.append(by_url[link])
        assert reachable == {p.url for p in pages}

    def test_depths_assigned(self, rng):
        pages = [make_page(url=f"http://s.com/p{i}", seed=i) for i in range(10)]
        generate_site_links(pages, rng)
        assert pages[0].depth == 1  # unchanged root depth from make_page default
        assert all(p.depth >= 1 for p in pages[1:])

    def test_empty_page_list_is_noop(self, rng):
        generate_site_links([], rng)


class TestGenerateCrossLinks:
    def _make_sites(self, n_sites=6, pages_per_site=5):
        sites = []
        for s in range(n_sites):
            site_id = f"site{s}.com"
            site = SimulatedSite(site_id, "com", window_size=pages_per_site)
            root = make_page(url=f"http://{site_id}/", depth=0, site_id=site_id, seed=s)
            site.add_page(root, is_root=True)
            for i in range(pages_per_site - 1):
                page = make_page(
                    url=f"http://{site_id}/p{i}", site_id=site_id, seed=100 * s + i
                )
                root.add_outlink(page.url)
                site.add_page(page)
            sites.append(site)
        return sites

    def test_cross_links_created(self, rng):
        sites = self._make_sites()
        in_degree = generate_cross_links(sites, rng)
        assert sum(in_degree.values()) > 0

    def test_links_point_to_root_pages(self, rng):
        sites = self._make_sites()
        generate_cross_links(sites, rng)
        roots = {site.root_url for site in sites}
        for site in sites:
            for page in site.all_pages:
                for link in page.outlinks:
                    if site.site_id not in link:
                        assert link in roots

    def test_single_site_no_links(self, rng):
        sites = self._make_sites(n_sites=1)
        in_degree = generate_cross_links(sites, rng)
        assert in_degree == {sites[0].site_id: 0}



def _hand_built_web():
    """Two pages of one site; ``a`` also links off the web."""
    site = SimulatedSite("s.com", "com", window_size=5)
    a = make_page(url="http://s.com/a", depth=0, seed=1)
    b = make_page(url="http://s.com/b", seed=2)
    a.set_outlinks([b.url, "http://elsewhere.com/"])
    site.add_page(a, is_root=True)
    site.add_page(b)
    web = SimulatedWeb(horizon_days=100.0)
    web.add_site(site)
    return web, a, b


class TestWholeWebLinkGraph:
    def test_restricts_to_the_web(self):
        web, a, b = _hand_built_web()
        graph = dict(web.links_within())
        assert graph[a.url] == (b.url,)
        assert graph[b.url] == ()

    def test_true_importance_equals_the_dict_path(self, small_web):
        assert small_web.true_importance() == true_importance_reference(small_web)

    def test_true_importance_follows_pages_added_after_first_use(self):
        web, a, b = _hand_built_web()
        before = web.true_importance()
        assert before == true_importance_reference(web)
        assert set(before) == {a.url, b.url}
        c = make_page(url="http://s.com/c", seed=3)
        c.set_outlinks([a.url])
        b.set_outlinks([c.url])
        web.add_page(c)
        after = web.true_importance()
        assert after == true_importance_reference(web)
        assert set(after) == {a.url, b.url, c.url}

    def test_adding_a_site_drops_the_ground_truth(self):
        web, a, _ = _hand_built_web()
        first = web.true_importance()
        other = SimulatedSite("t.com", "com", window_size=5)
        d = make_page(url="http://t.com/d", depth=0, site_id="t.com", seed=4)
        d.set_outlinks([a.url])
        other.add_page(d, is_root=True)
        web.add_site(other)
        after = web.true_importance()
        assert after is not first
        assert after == true_importance_reference(web)
        assert d.url in after

    def test_true_importance_is_cached_until_invalidated(self):
        web, _, _ = _hand_built_web()
        first = web.true_importance()
        assert web.true_importance() is first
        web.invalidate_oracle_cache()
        assert web.true_importance() is not first
        assert web.true_importance() == first


class TestSimulatedWeb:
    def test_lookup_and_membership(self, small_web):
        url = next(iter(small_web.urls()))
        assert url in small_web
        assert small_web.page(url).url == url

    def test_seed_urls_are_roots(self, small_web):
        seeds = small_web.seed_urls()
        assert len(seeds) == small_web.n_sites
        assert all(small_web.page(url).depth == 0 for url in seeds)

    def test_snapshot_of_live_page(self, small_web):
        url = small_web.seed_urls()[0]
        seen = snapshot(small_web, url, 1.0)
        assert seen is not None
        assert seen.url == url

    def test_snapshot_of_unknown_url(self, small_web):
        assert snapshot(small_web, "http://unknown/", 1.0) is None

    def test_oracle_arrays_match_the_page(self, small_web):
        url = small_web.seed_urls()[0]
        arrays = small_web.oracle_arrays()
        ids, known = arrays.lookup([url])
        assert known.tolist() == [True]
        assert arrays.exists(ids, 1.0).tolist() == [small_web.page(url).exists_at(1.0)]
        assert arrays.versions(ids, 1.0).tolist() == [page_version_at(small_web.page(url), 1.0)]

    def test_stale_version_not_up_to_date(self, small_web):
        # Find a page that changes at least once.
        arrays = small_web.oracle_arrays()
        for page in small_web.pages():
            times = page.change_process.change_times()
            if times and page.created_at == 0.0 and page.exists_at(times[0] + 1.0):
                t_before = times[0] - 1e-6 + page.created_at
                t_after = times[0] + 1e-6 + page.created_at
                ids, _ = arrays.lookup([page.url])
                version_before = int(arrays.versions(ids, t_before)[0])
                assert version_before == page_version_at(page, t_before)
                assert arrays.exists(ids, t_after).all()
                assert arrays.versions(ids, t_after)[0] != version_before
                return
        pytest.skip("no changing page found in the small web")

    def test_time_bounds_enforced(self, small_web):
        url = small_web.seed_urls()[0]
        with pytest.raises(ValueError):
            snapshot(small_web, url, -1.0)
        with pytest.raises(ValueError):
            snapshot(small_web, url, small_web.horizon_days + 10.0)

    def test_duplicate_site_rejected(self, small_web):
        with pytest.raises(ValueError):
            small_web.add_site(small_web.sites[0])

    def test_live_urls_match_the_pages(self, small_web):
        urls = list(small_web.urls())
        arrays = small_web.oracle_arrays()
        ids, _ = arrays.lookup(urls)
        live = {url for url, alive in zip(urls, arrays.exists(ids, 1.0)) if alive}
        assert live == {page.url for page in small_web.pages() if page.exists_at(1.0)}
        assert 0 < len(live) < len(urls)

    def test_mean_change_rate_positive(self, small_web):
        assert small_web.mean_change_rate() > 0.0

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            SimulatedWeb(horizon_days=0.0)


class TestWebSpecShapesTheWeb:
    def test_defaults_valid(self):
        WebSpec()

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            WebSpec(site_scale=0.0)
        with pytest.raises(ValueError):
            WebSpec(pages_per_site=0)
        with pytest.raises(ValueError):
            WebSpec(horizon_days=0.0)
        with pytest.raises(ValueError):
            WebSpec(new_page_fraction=-0.1)
        with pytest.raises(ValueError):
            WebSpec(window_size=0)

    def test_window_defaults_to_pages_per_site(self):
        web = generate_web(WebSpec(site_scale=0.03, pages_per_site=10, seed=5))
        assert {site.window_size for site in web.sites} == {10}

    def test_explicit_site_counts(self):
        web = generate_web(WebSpec(site_counts={"com": 3, "edu": 1}, pages_per_site=4))
        assert len(web.sites_in_domain("com")) == 3
        assert len(web.sites_in_domain("gov")) == 0

    def test_scaled_site_counts(self):
        web = generate_web(WebSpec(site_scale=0.1, pages_per_site=2))
        assert len(web.sites_in_domain("com")) == round(132 * 0.1)


class TestGenerateWeb:
    def test_deterministic_given_seed(self):
        spec = WebSpec(site_scale=0.03, pages_per_site=10, seed=5)
        first = generate_web(spec)
        second = generate_web(spec)
        assert sorted(first.urls()) == sorted(second.urls())

    def test_fixed_seed_web_is_pinned(self):
        # Every page's identity, lifetime, change times and links, in build
        # order, against the digest recorded when pages still carried a
        # keyword RNG. Dropping the generator's per-page draw that seeded it
        # shifts the shared stream and moves this digest.
        spec = WebSpec(
            site_scale=0.03, pages_per_site=10, new_page_fraction=0.25, seed=5
        )
        digest = hashlib.sha256()
        for page in generate_web(spec).pages():
            digest.update(repr((
                page.url, page.created_at, page.lifespan,
                page.change_times_array().tolist(), tuple(page.outlinks),
            )).encode("utf-8"))
        assert digest.hexdigest() == (
            "f53a4c2884547c60ae8e8a273401015259b2053e3a86e205ecfb49453c336e8c"
        )

    def test_domain_mix_follows_table1_proportions(self, small_web):
        counts = {
            domain: len(small_web.sites_in_domain(domain))
            for domain in ("com", "edu", "netorg", "gov")
        }
        assert counts["com"] > counts["edu"] > counts["gov"] >= 1
        assert counts["netorg"] >= 1

    def test_every_site_has_a_root(self, small_web):
        for site in small_web.sites:
            assert site.root_url in site

    def test_pages_created_during_horizon_exist(self, small_web):
        late = [p for p in small_web.pages() if p.created_at > 0]
        assert late, "the generator should create pages during the experiment"

    def test_change_processes_materialised(self, small_web):
        assert all(p.change_process.is_materialised for p in small_web.pages())

    def test_com_pages_change_faster_than_gov(self, small_web):
        def mean_rate(domain):
            pages = [
                p for p in small_web.pages() if p.domain == domain
            ]
            return np.mean([p.change_process.mean_rate for p in pages])

        assert mean_rate("com") > 3 * mean_rate("gov")

    def test_cross_site_links_exist(self, small_web):
        roots = set(small_web.seed_urls())
        cross = 0
        for page in small_web.pages():
            for link in page.outlinks:
                if link in roots and not link.startswith(f"http://{page.site_id}"):
                    cross += 1
        assert cross > 0
