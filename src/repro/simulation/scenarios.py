"""Canned scenarios matching the paper's Section 4 parameters.

Table 2 is computed under the assumption that "all pages change with an
average 4 month interval", that "the steady crawler revisits pages steadily
over a month", and that "the batch-mode crawler recrawls pages only in the
first week of every month". The sensitivity example later in Section 4 uses
pages that change every month and a batch crawler that operates for the
first two weeks of each month.

These helpers build the corresponding :class:`CrawlPolicy` objects and the
page change rate, so the scenarios, tests and examples all agree on the
exact parameters.
"""

from __future__ import annotations

from typing import Dict

from repro.freshness.analytic import CrawlMode, CrawlPolicy, UpdateMode

#: Days per month used by the Section 4 scenarios.
DAYS_PER_MONTH = 30.0

#: The paper's Table 2 values, for paper-vs-measured comparisons.
PAPER_TABLE2_FRESHNESS: Dict[str, float] = {
    "steady / in-place": 0.88,
    "batch / in-place": 0.88,
    "steady / shadowing": 0.77,
    "batch / shadowing": 0.86,
}

#: The paper's sensitivity-example values (Section 4, design choice 2).
PAPER_SENSITIVITY_FRESHNESS: Dict[str, float] = {
    "batch / in-place": 0.63,
    "batch / shadowing": 0.50,
}


def table2_scenario_rate() -> float:
    """Page change rate of the Table 2 scenario (4-month mean interval)."""
    return 1.0 / (4.0 * DAYS_PER_MONTH)


def sensitivity_scenario_rate() -> float:
    """Page change rate of the sensitivity example (1-month mean interval)."""
    return 1.0 / DAYS_PER_MONTH


def paper_table2_policies() -> Dict[str, CrawlPolicy]:
    """The four Table 2 policy combinations with the paper's parameters."""
    cycle = DAYS_PER_MONTH
    batch_duration = 7.0
    return {
        "steady / in-place": CrawlPolicy(
            CrawlMode.STEADY, UpdateMode.IN_PLACE, cycle_days=cycle
        ),
        "batch / in-place": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.IN_PLACE, cycle_days=cycle,
            batch_duration_days=batch_duration,
        ),
        "steady / shadowing": CrawlPolicy(
            CrawlMode.STEADY, UpdateMode.SHADOW, cycle_days=cycle
        ),
        "batch / shadowing": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.SHADOW, cycle_days=cycle,
            batch_duration_days=batch_duration,
        ),
    }


def sensitivity_example_policies() -> Dict[str, CrawlPolicy]:
    """The two policies of the Section 4 sensitivity example.

    Pages change every month; the batch crawler operates for the first two
    weeks of each monthly cycle.
    """
    cycle = DAYS_PER_MONTH
    batch_duration = 14.0
    return {
        "batch / in-place": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.IN_PLACE, cycle_days=cycle,
            batch_duration_days=batch_duration,
        ),
        "batch / shadowing": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.SHADOW, cycle_days=cycle,
            batch_duration_days=batch_duration,
        ),
    }


def figure7_policies() -> Dict[str, CrawlPolicy]:
    """Policies for the Figure 7 trajectories (batch vs. steady, in place).

    The paper notes it uses "a high page change rate to obtain curves that
    more clearly show the trends"; the scenario uses a rate of one change
    per week with a monthly cycle and a one-week batch window.
    """
    return {
        "batch-mode": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.IN_PLACE, cycle_days=DAYS_PER_MONTH,
            batch_duration_days=7.0,
        ),
        "steady": CrawlPolicy(
            CrawlMode.STEADY, UpdateMode.IN_PLACE, cycle_days=DAYS_PER_MONTH
        ),
    }


def figure8_policies() -> Dict[str, CrawlPolicy]:
    """Policies for the Figure 8 trajectories (shadowing variants)."""
    return {
        "steady with shadowing": CrawlPolicy(
            CrawlMode.STEADY, UpdateMode.SHADOW, cycle_days=DAYS_PER_MONTH
        ),
        "batch-mode with shadowing": CrawlPolicy(
            CrawlMode.BATCH, UpdateMode.SHADOW, cycle_days=DAYS_PER_MONTH,
            batch_duration_days=7.0,
        ),
    }


def figure7_change_rate() -> float:
    """The illustrative (high) change rate used for Figures 7 and 8."""
    return 1.0 / 7.0
