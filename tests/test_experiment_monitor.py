"""Tests for the monitoring experiment machinery (Sections 2-3 pipeline)."""

import hashlib
import json

import pytest

from repro.experiment.monitor import (
    VISIT_HOUR_FRACTION,
    ActiveMonitor,
    ObservationLog,
    PageObservationHistory,
)
from repro.experiment.site_selection import (
    PAPER_TABLE1_SITE_COUNTS,
    domain_share,
    select_sites,
)

from reference.oracle import page_version_at


class TestSiteSelection:
    def test_selects_requested_number_of_candidates(self, small_web):
        selection = select_sites(small_web, n_candidates=10, consent_rate=1.0)
        assert len(selection.candidate_site_ids) == 10
        assert selection.n_selected == 10

    def test_consent_rate_shrinks_selection(self, small_web):
        selection = select_sites(small_web, n_candidates=small_web.n_sites,
                                 consent_rate=0.5, seed=3)
        assert 0 < selection.n_selected < small_web.n_sites

    def test_candidates_are_most_popular(self, small_web):
        selection = select_sites(small_web, n_candidates=5, consent_rate=1.0)
        popularity = selection.popularity
        chosen = set(selection.candidate_site_ids)
        not_chosen = [s for s in popularity if s not in chosen]
        if not_chosen:
            min_chosen = min(popularity[s] for s in chosen)
            max_not_chosen = max(popularity[s] for s in not_chosen)
            assert min_chosen >= max_not_chosen - 1e-12

    def test_domain_counts_sum_to_selection(self, small_web):
        selection = select_sites(small_web, consent_rate=0.8, seed=1)
        assert sum(selection.domain_counts.values()) == selection.n_selected

    def test_com_dominates_selection(self, small_web):
        """Table 1: roughly half of the monitored sites are commercial."""
        selection = select_sites(small_web, consent_rate=1.0)
        shares = domain_share(selection.domain_counts)
        assert shares.get("com", 0.0) == max(shares.values())

    def test_paper_table1_reference_values(self):
        assert PAPER_TABLE1_SITE_COUNTS["com"] == 132
        assert sum(PAPER_TABLE1_SITE_COUNTS.values()) == 270

    def test_invalid_arguments(self, small_web):
        with pytest.raises(ValueError):
            select_sites(small_web, n_candidates=0)
        with pytest.raises(ValueError):
            select_sites(small_web, consent_rate=0.0)

    def test_empty_share(self):
        assert domain_share({}) == {}


class TestActiveMonitor:
    def test_observation_log_structure(self, observation_log, small_web):
        assert observation_log.start_day == 0
        assert observation_log.duration_days == int(small_web.horizon_days)
        assert observation_log.n_pages > 0

    def test_every_observed_page_belongs_to_a_monitored_site(
        self, observation_log, small_web
    ):
        monitored = set(observation_log.monitored_site_ids)
        for history in observation_log.pages.values():
            assert history.site_id in monitored

    def test_first_seen_before_last_seen(self, observation_log):
        for history in observation_log.pages.values():
            assert history.first_seen_day <= history.last_seen_day

    def test_days_observed_within_span(self, observation_log):
        for history in observation_log.pages.values():
            assert 1 <= history.days_observed <= history.observed_span_days

    def test_change_days_within_observation_window(self, observation_log):
        for history in observation_log.pages.values():
            for day in history.change_days:
                assert history.first_seen_day < day <= history.last_seen_day

    def test_static_pages_show_no_changes(self, observation_log, small_web):
        static_urls = {
            p.url for p in small_web.pages() if p.change_process.mean_rate == 0.0
        }
        for url in static_urls:
            history = observation_log.pages.get(url)
            if history is not None:
                assert history.n_changes == 0

    def test_daily_changing_pages_change_often(self, observation_log, small_web):
        fast_urls = [
            p.url for p in small_web.pages()
            if p.change_process.mean_rate >= 1.0 and p.lifespan is None
            and p.created_at == 0.0
        ]
        histories = [
            observation_log.pages[url] for url in fast_urls if url in observation_log.pages
        ]
        assert histories, "expected at least one fast page to be observed"
        mean_changes = sum(h.n_changes for h in histories) / len(histories)
        assert mean_changes > observation_log.duration_days * 0.3

    def test_change_days_are_the_days_the_version_moved(
        self, observation_log, small_web
    ):
        visit = VISIT_HOUR_FRACTION
        checked = 0
        for url, history in list(observation_log.pages.items())[:80]:
            page = small_web.page(url)
            expected = [
                day
                for day in range(history.first_seen_day + 1, history.last_seen_day + 1)
                if page.exists_at(day + visit) and page.exists_at(day - 1 + visit)
                and page_version_at(page, day + visit) != page_version_at(page, day - 1 + visit)
            ]
            assert history.change_days == expected
            checked += len(expected)
        assert checked > 0

    def test_observation_log_is_pinned(self, observation_log):
        """Every page's history, hashed: any change to what the monitor
        observes (its fetch path, visit time or window walk) shows here."""
        rows = [
            [url, h.first_seen_day, h.last_seen_day, h.days_observed, h.change_days]
            for url, h in sorted(observation_log.pages.items())
        ]
        digest = hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()
        ).hexdigest()
        assert len(rows) == 797
        assert digest == (
            "ec57963c3ccdb70b061db0710cbfcb10dd50e1454bec9a3c5603fe3c1dd1fdd3"
        )

    def test_pages_in_domain_filter(self, observation_log):
        com_pages = observation_log.pages_in_domain("com")
        assert com_pages
        assert all(h.domain == "com" for h in com_pages)

    def test_pages_present_at_start(self, observation_log):
        initial = observation_log.pages_present_at_start()
        assert initial
        assert all(h.first_seen_day == observation_log.start_day for h in initial)

    def test_late_created_pages_detected(self, observation_log, small_web):
        """Pages created during the experiment enter the window (Section 2.1)."""
        late_urls = {
            p.url for p in small_web.pages() if p.created_at > 2.0
        }
        late_observed = [
            h for url, h in observation_log.pages.items()
            if url in late_urls and h.first_seen_day > observation_log.start_day
        ]
        assert late_observed

    def test_monitoring_subset_of_sites(self, small_web):
        site_ids = [small_web.sites[0].site_id]
        monitor = ActiveMonitor(small_web, site_ids=site_ids)
        log = monitor.run(start_day=0, end_day=5)
        assert set(h.site_id for h in log.pages.values()) == set(site_ids)

    def test_invalid_day_range(self, small_web):
        monitor = ActiveMonitor(small_web)
        with pytest.raises(ValueError):
            monitor.run(start_day=10, end_day=5)


class TestObservationHistoryHelpers:
    def test_average_change_interval(self):
        history = PageObservationHistory(
            url="u", site_id="s", domain="com",
            first_seen_day=0, last_seen_day=50, days_observed=51,
            change_days=[10, 20, 30, 40, 50],
        )
        assert history.average_change_interval() == pytest.approx(10.0)

    def test_average_change_interval_none(self):
        history = PageObservationHistory(
            url="u", site_id="s", domain="com",
            first_seen_day=0, last_seen_day=10, days_observed=11,
        )
        assert history.average_change_interval() is None

    def test_change_intervals(self):
        history = PageObservationHistory(
            url="u", site_id="s", domain="com",
            first_seen_day=0, last_seen_day=30, days_observed=31,
            change_days=[5, 15, 30],
        )
        assert history.change_intervals() == [10.0, 15.0]
