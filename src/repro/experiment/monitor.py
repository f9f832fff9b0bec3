"""Daily active monitoring with a page window (Section 2.1).

The paper's monitor revisits each selected site once a day: starting from
the site's root page, it follows links breadth-first until it has seen the
site's page window (up to 3,000 pages), and records, for every page in the
window, whether the page is present and whether its content changed since
the previous observation (detected by comparing checksums; here the fetched
content version plays the checksum).

:class:`ActiveMonitor` reproduces that loop against the synthetic web,
producing an :class:`ObservationLog` that the Figure 2/4/5/6 analyses
consume. Note the same measurement limitations the paper discusses apply
here by construction: at most one change per day can be detected per page
(Figure 1), and lifespans are censored by the experiment window (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fetch.fetcher import SimulatedFetcher
from repro.simweb.web import SimulatedWeb


@dataclass
class PageObservationHistory:
    """Everything the monitor learned about one page.

    Attributes:
        url: The page URL.
        site_id: Owning site.
        domain: Owning site's top-level domain.
        first_seen_day: First day (inclusive) the page was inside the window.
        last_seen_day: Last day (inclusive) the page was inside the window.
        days_observed: Number of days the page was observed in the window.
        change_days: Days on which the observed version differed from the
            previous observation of the page.
    """

    url: str
    site_id: str
    domain: str
    first_seen_day: int
    last_seen_day: int
    days_observed: int = 0
    change_days: List[int] = field(default_factory=list)

    @property
    def n_changes(self) -> int:
        """Number of detected changes."""
        return len(self.change_days)

    @property
    def observed_span_days(self) -> int:
        """Days between the first and last observation, inclusive."""
        return self.last_seen_day - self.first_seen_day + 1

    @property
    def change_observation_days(self) -> int:
        """Days over which changes could be detected.

        The first observation only establishes the baseline version, so a
        page observed on ``n`` consecutive days has ``n - 1`` opportunities
        to show a change. Using this as the denominator gives the estimator
        its natural one-day granularity: a page that changed at every visit
        gets an estimated interval of exactly one day (the paper's first
        histogram bar).
        """
        return max(1, self.last_seen_day - self.first_seen_day)

    def average_change_interval(self) -> Optional[float]:
        """Observation days divided by detected changes (None when no change).

        This is the Section 3.1 estimator: "if a page existed within our
        window for 50 days, and if the page changed 5 times in that period,
        we can estimate the average change interval of the page to be
        50 days / 5 = 10 days."
        """
        if self.n_changes == 0:
            return None
        return self.change_observation_days / self.n_changes

    def change_intervals(self) -> List[float]:
        """Intervals (days) between successive detected changes."""
        return [
            float(b - a) for a, b in zip(self.change_days, self.change_days[1:])
        ]


@dataclass
class ObservationLog:
    """The full output of a monitoring run.

    Attributes:
        start_day: First day of the experiment (inclusive).
        end_day: Last day of the experiment (inclusive).
        pages: Mapping from URL to its observation history.
        monitored_site_ids: The sites that were monitored.
    """

    start_day: int
    end_day: int
    pages: Dict[str, PageObservationHistory] = field(default_factory=dict)
    monitored_site_ids: Sequence[str] = ()

    @property
    def duration_days(self) -> int:
        """Number of days the experiment ran, inclusive of both endpoints."""
        return self.end_day - self.start_day + 1

    @property
    def n_pages(self) -> int:
        """Number of distinct pages ever observed."""
        return len(self.pages)

    def pages_in_domain(self, domain: str) -> List[PageObservationHistory]:
        """Histories of all observed pages belonging to ``domain``."""
        return [history for history in self.pages.values() if history.domain == domain]

    def domains(self) -> List[str]:
        """Sorted list of domains present in the log."""
        return sorted({history.domain for history in self.pages.values()})

    def pages_present_at_start(self) -> List[PageObservationHistory]:
        """Pages already inside the window on the first day."""
        return [
            history
            for history in self.pages.values()
            if history.first_seen_day == self.start_day
        ]


class ActiveMonitor:
    """Runs the daily monitoring loop over a set of sites.

    Args:
        web: The synthetic web.
        site_ids: Sites to monitor; defaults to every site in the web.
        fetcher: Optional fetcher to route observations through. When
            omitted a plain fetcher without politeness delays is used — the
            experiment's correctness does not depend on politeness, only its
            feasibility did (Section 2.3).
        visit_hour_fraction: Time of day at which the daily visit happens
            (0.9 ~ "at night", matching the paper's nightly crawl).
    """

    def __init__(
        self,
        web: SimulatedWeb,
        site_ids: Optional[Sequence[str]] = None,
        fetcher: Optional[SimulatedFetcher] = None,
        visit_hour_fraction: float = 0.9,
    ) -> None:
        if not 0.0 <= visit_hour_fraction < 1.0:
            raise ValueError("visit_hour_fraction must be within [0, 1)")
        self._web = web
        self._site_ids = list(site_ids) if site_ids is not None else [
            site.site_id for site in web.sites
        ]
        self._fetcher = fetcher if fetcher is not None else SimulatedFetcher(web)
        self._visit_hour_fraction = visit_hour_fraction

    def run(self, start_day: int = 0, end_day: Optional[int] = None) -> ObservationLog:
        """Monitor every selected site daily from ``start_day`` to ``end_day``.

        Args:
            start_day: First day of the experiment.
            end_day: Last day (inclusive); defaults to the web's horizon.

        Returns:
            The populated :class:`ObservationLog`.
        """
        if end_day is None:
            end_day = int(self._web.horizon_days) - 1
        if end_day < start_day:
            raise ValueError("end_day must not precede start_day")
        log = ObservationLog(
            start_day=start_day,
            end_day=end_day,
            monitored_site_ids=tuple(self._site_ids),
        )
        last_versions: Dict[str, int] = {}
        for day in range(start_day, end_day + 1):
            visit_time = min(
                day + self._visit_hour_fraction, self._web.horizon_days
            )
            for site_id in self._site_ids:
                self._observe_site(site_id, day, visit_time, log, last_versions)
        return log

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _observe_site(
        self,
        site_id: str,
        day: int,
        visit_time: float,
        log: ObservationLog,
        last_versions: Dict[str, int],
    ) -> None:
        site = self._web.site(site_id)
        for page in site.window_at(visit_time):
            result = self._fetcher.fetch(page.url, at=visit_time)
            if not result.ok:
                continue
            self._record_observation(
                log, last_versions, page.url, site_id, site.domain, day, result.version
            )

    @staticmethod
    def _record_observation(
        log: ObservationLog,
        last_versions: Dict[str, int],
        url: str,
        site_id: str,
        domain: str,
        day: int,
        version: int,
    ) -> None:
        history = log.pages.get(url)
        if history is None:
            history = PageObservationHistory(
                url=url,
                site_id=site_id,
                domain=domain,
                first_seen_day=day,
                last_seen_day=day,
                days_observed=1,
            )
            log.pages[url] = history
            last_versions[url] = version
            return
        previous_version = last_versions.get(url)
        if previous_version is not None and previous_version != version:
            history.change_days.append(day)
        last_versions[url] = version
        history.last_seen_day = day
        history.days_observed += 1
