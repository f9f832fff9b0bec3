"""The scalar page oracle: one page, one instant, one Python call.

The product answers every oracle question in bulk through
:class:`repro.simweb.web.OracleArrays` (``lookup``/``exists``/``versions``
over a whole batch of fetches). The per-page queries here are the ones it
replaced: a bisection over one change process's sampled times, the
snapshot a single fetch returns, and the interval helpers the old tests
and reference kernels read. They only read a page's public state
(``created_at``, ``exists_at``, ``outlinks`` and the process's
``change_times_array()``), so they are ground truth the batched oracle is
checked against rather than a second copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.simweb.change_models import ChangeProcess
from repro.simweb.page import SimulatedPage
from repro.simweb.web import SimulatedWeb


# --------------------------------------------------------------------- #
# One change process
# --------------------------------------------------------------------- #
def version_at(process: ChangeProcess, t: float) -> int:
    """Number of changes that occurred at or before time ``t``.

    Version 0 is the content the page was created with; each change
    increments the version. Raises ``RuntimeError`` on an unmaterialised
    process.
    """
    times = process.change_times_array()
    if t < 0:
        return 0
    return int(np.searchsorted(times, t, side="right"))


def changes_between(process: ChangeProcess, t0: float, t1: float) -> int:
    """Number of changes in the half-open interval ``(t0, t1]``."""
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    return version_at(process, t1) - version_at(process, t0)


def changed_between(process: ChangeProcess, t0: float, t1: float) -> bool:
    """True when at least one change occurred in ``(t0, t1]``."""
    return changes_between(process, t0, t1) > 0


def next_change_after(process: ChangeProcess, t: float) -> Optional[float]:
    """Time of the first change strictly after ``t``, or None if none."""
    times = process.change_times_array()
    index = int(np.searchsorted(times, t, side="right"))
    return None if index >= len(times) else float(times[index])


def last_change_at_or_before(process: ChangeProcess, t: float) -> Optional[float]:
    """Time of the most recent change at or before ``t``, or None."""
    times = process.change_times_array()
    index = int(np.searchsorted(times, t, side="right"))
    return None if index == 0 else float(times[index - 1])


def observed_intervals(process: ChangeProcess) -> List[float]:
    """Intervals between successive changes (the Figure 6 fit's input)."""
    times = process.change_times()
    return [b - a for a, b in zip(times, times[1:])]


# --------------------------------------------------------------------- #
# One page, one web
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PageSnapshot:
    """What a fetch of a page returns at a particular virtual time.

    Attributes:
        url: The page URL.
        fetched_at: Virtual time (days) of the fetch.
        version: Content version at fetch time (0 for the original content).
        outlinks: URLs the page links to at fetch time.
    """

    url: str
    fetched_at: float
    version: int
    outlinks: Sequence[str]


def page_version_at(page: SimulatedPage, t: float) -> int:
    """Content version of ``page`` at time ``t`` (changes so far); change
    times are relative to the page's creation, so earlier queries read 0."""
    return version_at(page.change_process, max(0.0, t - page.created_at))


def page_changed_between(page: SimulatedPage, t0: float, t1: float) -> bool:
    """True when the content of ``page`` changed in ``(t0, t1]``."""
    return page_version_at(page, t1) != page_version_at(page, t0)


def snapshot_at(page: SimulatedPage, t: float) -> PageSnapshot:
    """The :class:`PageSnapshot` a fetch of ``page`` at ``t`` returns.

    Raises:
        LookupError: If the page does not exist at ``t``.
    """
    if not page.exists_at(t):
        raise LookupError(f"page {page.url} does not exist at t={t}")
    return PageSnapshot(
        url=page.url,
        fetched_at=t,
        version=page_version_at(page, t),
        outlinks=page.outlinks,
    )


def snapshot(web: SimulatedWeb, url: str, t: float) -> Optional[PageSnapshot]:
    """Snapshot of ``url`` at time ``t``, or ``None`` when it is missing.

    Raises:
        ValueError: If ``t`` is negative or past the web's horizon.
    """
    if t < 0:
        raise ValueError("virtual time cannot be negative")
    if t > web.horizon_days + 1e-9:
        raise ValueError(
            f"virtual time {t} is beyond the simulated horizon "
            f"({web.horizon_days} days)"
        )
    if url not in web:
        return None
    page = web.page(url)
    if not page.exists_at(t):
        return None
    return snapshot_at(page, t)
