"""Shared analysis utilities: histogram bucketing, statistics and reporting.

These helpers are used by the experiment package (to reproduce the paper's
figures) and by the examples and the CLI (to print them).
"""

from repro.analysis.histograms import (
    CHANGE_INTERVAL_BUCKETS,
    LIFESPAN_BUCKETS,
    Bucket,
    BucketedHistogram,
)
from repro.analysis.statistics import (
    ExponentialFit,
    exponential_goodness_of_fit,
    fit_exponential,
    kolmogorov_smirnov_exponential,
    mean_confidence_interval,
)
from repro.analysis.report import (
    format_bar_chart,
    format_series,
    format_table,
)

__all__ = [
    "Bucket",
    "BucketedHistogram",
    "CHANGE_INTERVAL_BUCKETS",
    "LIFESPAN_BUCKETS",
    "ExponentialFit",
    "exponential_goodness_of_fit",
    "fit_exponential",
    "kolmogorov_smirnov_exponential",
    "mean_confidence_interval",
    "format_bar_chart",
    "format_series",
    "format_table",
]
