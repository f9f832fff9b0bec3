"""Tests for repro.simweb.page, repro.simweb.site and repro.simweb.lifespan."""

import numpy as np
import pytest

from repro.simweb.change_models import NeverChanges, PoissonChangeProcess
from repro.simweb.lifespan import LifespanModel, sample_lifespan
from repro.simweb.page import SimulatedPage
from repro.simweb.site import SimulatedSite


def make_page(url="http://s.com/p", rate=1.0, created_at=0.0, lifespan=None,
              depth=1, site_id="s.com", domain="com", horizon=100.0, seed=0):
    process = PoissonChangeProcess(rate) if rate > 0 else NeverChanges()
    process.materialise(horizon, np.random.default_rng(seed))
    return SimulatedPage(
        url=url,
        site_id=site_id,
        domain=domain,
        depth=depth,
        created_at=created_at,
        lifespan=lifespan,
        change_process=process,
    )


class TestLifespanModel:
    def test_permanent_pages(self, rng):
        model = LifespanModel(permanent_fraction=1.0, mean_lifespan_days=10.0)
        assert all(model.sample(rng) is None for _ in range(50))

    def test_mortal_pages(self, rng):
        model = LifespanModel(permanent_fraction=0.0, mean_lifespan_days=10.0)
        samples = [model.sample(rng) for _ in range(2000)]
        assert all(s is not None and s >= 1.0 for s in samples)
        assert np.mean(samples) == pytest.approx(10.0, rel=0.2)

    def test_minimum_lifespan_enforced(self, rng):
        model = LifespanModel(0.0, mean_lifespan_days=0.5, minimum_lifespan_days=2.0)
        assert all(model.sample(rng) >= 2.0 for _ in range(100))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LifespanModel(-0.1, 10.0)
        with pytest.raises(ValueError):
            LifespanModel(0.5, 0.0)
        with pytest.raises(ValueError):
            LifespanModel(0.5, 10.0, minimum_lifespan_days=-1.0)

    def test_convenience_wrapper(self, rng):
        value = sample_lifespan(0.0, 20.0, rng)
        assert value is None or value >= 1.0


class TestSimulatedPage:
    def test_existence_window(self):
        page = make_page(created_at=10.0, lifespan=20.0)
        assert not page.exists_at(5.0)
        assert page.exists_at(10.0)
        assert page.exists_at(29.9)
        assert not page.exists_at(30.0)

    def test_permanent_page_always_exists(self):
        page = make_page(created_at=0.0, lifespan=None)
        assert page.exists_at(0.0)
        assert page.exists_at(1e6)
        assert page.deleted_at is None

    def test_visible_lifespan_truncated_by_horizon(self):
        page = make_page(created_at=10.0, lifespan=200.0)
        assert page.visible_lifespan(horizon=100.0) == pytest.approx(90.0)

    def test_visible_lifespan_of_short_lived_page(self):
        page = make_page(created_at=10.0, lifespan=5.0)
        assert page.visible_lifespan(horizon=100.0) == pytest.approx(5.0)

    def test_version_changes_with_process(self):
        page = make_page(rate=1.0)
        assert page.version_at(0.0) == 0
        assert page.version_at(100.0) > 0

    def test_version_relative_to_creation(self):
        page = make_page(rate=1.0, created_at=50.0, horizon=50.0)
        # Before creation, no changes have happened.
        assert page.version_at(10.0) == 0

    def test_version_steps_at_the_first_change(self):
        page = make_page(rate=2.0)
        first_change = page.change_process.change_times()[0]
        assert page.version_at(first_change - 1e-6) == 0
        assert page.version_at(first_change + 1e-6) == 1

    def test_version_stable_without_changes(self):
        page = make_page(rate=0.0)
        assert page.version_at(1.0) == page.version_at(50.0) == 0

    def test_snapshot_fields(self):
        page = make_page()
        page.set_outlinks(["http://s.com/a", "http://s.com/b"])
        snapshot = page.snapshot_at(3.0)
        assert snapshot.url == page.url
        assert snapshot.fetched_at == 3.0
        assert snapshot.outlinks == ("http://s.com/a", "http://s.com/b")
        assert snapshot.version == page.version_at(3.0)

    def test_snapshot_of_missing_page_raises(self):
        page = make_page(created_at=10.0, lifespan=5.0)
        with pytest.raises(LookupError):
            page.snapshot_at(50.0)

    def test_outlinks_deduplicated(self):
        page = make_page()
        page.set_outlinks(["a", "a", "b"])
        assert page.outlinks == ("a", "b")

    def test_add_outlink_idempotent(self):
        page = make_page()
        page.add_outlink("x")
        page.add_outlink("x")
        assert page.outlinks == ("x",)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            make_page(depth=-1)
        with pytest.raises(ValueError):
            make_page(created_at=-1.0)
        with pytest.raises(ValueError):
            make_page(lifespan=0.0)


class TestSimulatedSite:
    def _build_site(self, n_pages=10, window_size=5):
        site = SimulatedSite("s.com", "com", window_size=window_size)
        root = make_page(url="http://s.com/", depth=0, seed=1)
        site.add_page(root, is_root=True)
        pages = [root]
        for i in range(n_pages - 1):
            page = make_page(url=f"http://s.com/p{i}", depth=1, seed=i + 2)
            root.add_outlink(page.url)
            site.add_page(page)
            pages.append(page)
        return site, pages

    def test_root_registration(self):
        site, pages = self._build_site()
        assert site.root_url == "http://s.com/"

    def test_root_must_be_permanent(self):
        site = SimulatedSite("s.com", "com", window_size=5)
        mortal_root = make_page(url="http://s.com/", depth=0, lifespan=5.0)
        with pytest.raises(ValueError):
            site.add_page(mortal_root, is_root=True)

    def test_missing_root_raises(self):
        site = SimulatedSite("s.com", "com", window_size=5)
        with pytest.raises(RuntimeError):
            _ = site.root_url

    def test_duplicate_page_rejected(self):
        site, pages = self._build_site()
        with pytest.raises(ValueError):
            site.add_page(make_page(url="http://s.com/"))

    def test_foreign_page_rejected(self):
        site, _ = self._build_site()
        foreign = make_page(url="http://other.com/x", site_id="other.com")
        with pytest.raises(ValueError):
            site.add_page(foreign)

    def test_window_respects_size(self):
        site, pages = self._build_site(n_pages=10, window_size=5)
        window = site.window_at(1.0)
        assert len(window) == 5

    def test_window_starts_at_root(self):
        site, pages = self._build_site()
        window = site.window_at(1.0)
        assert window[0].url == site.root_url

    def test_window_excludes_dead_pages(self):
        site = SimulatedSite("s.com", "com", window_size=10)
        root = make_page(url="http://s.com/", depth=0)
        site.add_page(root, is_root=True)
        dead = make_page(url="http://s.com/dead", created_at=0.0, lifespan=5.0)
        root.add_outlink(dead.url)
        site.add_page(dead)
        assert any(p.url == dead.url for p in site.window_at(1.0))
        assert not any(p.url == dead.url for p in site.window_at(10.0))

    def test_window_includes_new_pages_when_created(self):
        site = SimulatedSite("s.com", "com", window_size=10)
        root = make_page(url="http://s.com/", depth=0)
        site.add_page(root, is_root=True)
        newborn = make_page(url="http://s.com/new", created_at=20.0, lifespan=None)
        root.add_outlink(newborn.url)
        site.add_page(newborn)
        assert not any(p.url == newborn.url for p in site.window_at(10.0))
        assert any(p.url == newborn.url for p in site.window_at(25.0))

    def test_window_contains_orphans_when_space_remains(self):
        site = SimulatedSite("s.com", "com", window_size=10)
        root = make_page(url="http://s.com/", depth=0)
        site.add_page(root, is_root=True)
        orphan = make_page(url="http://s.com/orphan", depth=3)
        site.add_page(orphan)  # no link from the root
        urls = site.window_urls_at(1.0)
        assert orphan.url in urls

    def test_live_pages_at(self):
        site, pages = self._build_site()
        assert len(site.live_pages_at(1.0)) == len(pages)

    def test_mean_change_rate_nonnegative(self):
        site, _ = self._build_site()
        assert site.mean_change_rate() >= 0.0

    def test_contains_and_len(self):
        site, pages = self._build_site(n_pages=4)
        assert len(site) == 4
        assert pages[0].url in site
        assert "http://nowhere/" not in site

    def test_invalid_window_size(self):
        with pytest.raises(ValueError):
            SimulatedSite("s.com", "com", window_size=0)
