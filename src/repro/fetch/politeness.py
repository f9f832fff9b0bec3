"""Politeness constraints on the simulated crawler.

The paper's monitoring crawler ran "only at night (9PM through 6AM PST),
waiting at least 10 seconds between requests to a single site" so that at
most 3,000 pages per site could be fetched per day (Section 2.3). The
classes here reproduce both constraints in virtual time:

* :class:`PolitenessPolicy` enforces a minimum delay between consecutive
  requests to the same site;
* :class:`NightWindow` restricts fetching to a recurring window of each
  virtual day and, when a request arrives outside the window, defers it to
  the start of the next window.

All times are virtual days; ten real-world seconds are
``10 / 86400`` virtual days.

Every fetch applies both through one scalar recurrence,
:meth:`PolitenessPolicy.earliest_allowed` followed by
:meth:`PolitenessPolicy.record_request`, folded request by request over a
batch (by the crawl loop, or by ``SimulatedFetcher.fetch_many`` when it is
handed no resolved start instants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

#: Number of seconds in a virtual day.
SECONDS_PER_DAY = 86400.0


def seconds_to_days(seconds: float) -> float:
    """Convert seconds to virtual days."""
    return seconds / SECONDS_PER_DAY


@dataclass(frozen=True)
class NightWindow:
    """A recurring crawl window within each virtual day.

    The paper crawled from 9PM to 6AM. We express the window by its start
    time (as a fraction of a day, 0.875 for 9PM) and its duration (0.375 of
    a day for nine hours). A window that wraps past midnight is supported.

    Attributes:
        start_fraction: Start of the window as a fraction of a day in [0, 1).
        duration_fraction: Length of the window as a fraction of a day,
            in (0, 1].
    """

    start_fraction: float = 0.875
    duration_fraction: float = 0.375

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < 1.0:
            raise ValueError("start_fraction must be in [0, 1)")
        if not 0.0 < self.duration_fraction <= 1.0:
            raise ValueError("duration_fraction must be in (0, 1]")

    def is_open(self, t: float) -> bool:
        """True when the crawl window is open at virtual time ``t``."""
        offset = (t - math.floor(t)) - self.start_fraction
        if offset < 0:
            offset += 1.0
        return offset < self.duration_fraction

    def next_open(self, t: float) -> float:
        """Earliest time at or after ``t`` when the window is open.

        The returned instant always satisfies :meth:`is_open`: the naive
        ``floor(t) + start_fraction`` snap can land a few ulps *before* the
        window opens when the sum's day fraction rounds below
        ``start_fraction`` (impossible for the binary-exact defaults, real
        for fractions like 0.3), so the candidate is nudged up to the first
        representable open instant.
        """
        if self.is_open(t):
            return t
        day_start = math.floor(t)
        candidate = day_start + self.start_fraction
        if candidate < t:
            candidate += 1.0
        while not self.is_open(candidate):
            candidate = math.nextafter(candidate, math.inf)
        return candidate


class PolitenessPolicy:
    """Minimum spacing between consecutive requests to the same site.

    Args:
        min_delay_seconds: Minimum number of (virtual) seconds between two
            requests to one site; the paper used 10 seconds.
        night_window: Optional crawl window restriction; ``None`` allows
            crawling around the clock, which is what the production
            incremental crawler (as opposed to the monitoring experiment)
            would do.
        allowed_sites: Optional site-affinity contract. When set, recording
            a request against a site outside the set raises — per-site
            politeness state is the one piece of crawler state that must
            never cross a shard boundary, so a crawl shard wires the sites
            it owns here and any routing bug surfaces immediately instead
            of as a silently-diverged delay chain. ``None`` (the unsharded
            crawler) accepts every site.
    """

    def __init__(
        self,
        min_delay_seconds: float = 10.0,
        night_window: Optional[NightWindow] = None,
        allowed_sites: Optional[frozenset] = None,
    ) -> None:
        if min_delay_seconds < 0:
            raise ValueError("min_delay_seconds must be non-negative")
        self.min_delay_days = seconds_to_days(min_delay_seconds)
        self.night_window = night_window
        self.allowed_sites = allowed_sites
        self._last_request: Dict[str, float] = {}

    def _allowed_after(self, last: Optional[float], t: float) -> float:
        """The recurrence: ``t``, held ``min_delay`` after ``last`` (the
        site's previous request, ``None`` for none), then night-snapped."""
        allowed = t
        if last is not None:
            allowed = max(allowed, last + self.min_delay_days)
        if self.night_window is not None:
            allowed = self.night_window.next_open(allowed)
        return allowed

    def earliest_allowed(self, site_id: str, t: float) -> float:
        """Earliest time at or after ``t`` a request to ``site_id`` may go out."""
        return self._allowed_after(self._last_request.get(site_id), t)

    def record_request(self, site_id: str, t: float) -> None:
        """Record that a request to ``site_id`` was issued at time ``t``."""
        if self.allowed_sites is not None and site_id not in self.allowed_sites:
            raise ValueError(
                f"request to site {site_id!r} crosses the shard boundary: "
                "this policy only owns politeness state for its shard's sites"
            )
        last = self._last_request.get(site_id)
        if last is None or t > last:
            self._last_request[site_id] = t

    def earliest_allowed_many(self, site_ids, times) -> None:
        """Not called: the crawl loop folds :meth:`earliest_allowed` and
        :meth:`record_request` request by request. Defined only because the
        e2e benchmark's tracer table names it."""

    def record_requests(self, site_ids, starts) -> None:
        """Not called (see :meth:`earliest_allowed_many`). Defined only
        because the e2e benchmark's tracer table names it."""

    def earliest_allowed_many_indexed(self, site_indices, site_names, times) -> None:
        """Not called (see :meth:`earliest_allowed_many`). Defined only
        because the e2e benchmark's tracer table names it."""

    def record_requests_indexed(self, site_indices, starts) -> None:
        """Not called (see :meth:`earliest_allowed_many`). Defined only
        because the e2e benchmark's tracer table names it."""

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-serializable per-site last-request state."""
        return {"last_request": dict(self._last_request)}

    def restore_snapshot(self, state: dict) -> None:
        """Rebuild the last-request map exactly as checkpointed."""
        self._last_request = dict(state["last_request"])

    def max_requests_per_day(self) -> float:
        """Upper bound on requests per site per virtual day under this policy.

        With a 10 second delay and a 9 hour nightly window this is 3,240,
        which matches the paper's statement that "we could crawl at most
        3,000 pages from a site every day".
        """
        if self.min_delay_days == 0:
            return float("inf")
        window = 1.0 if self.night_window is None else self.night_window.duration_fraction
        return window / self.min_delay_days
