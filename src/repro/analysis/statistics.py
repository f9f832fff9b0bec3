"""Statistical helpers used by the experiment analysis.

The paper verifies that page change intervals follow an exponential
distribution (Figure 6). The helpers here fit an exponential distribution to
observed intervals, compute simple goodness-of-fit measures, and provide
normal-approximation confidence intervals for means and Poisson rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ExponentialFit:
    """Result of fitting an exponential distribution to interval data.

    Attributes:
        rate: The maximum-likelihood rate (1 / mean interval).
        mean_interval: The observed mean interval.
        n_samples: Number of intervals used in the fit.
        log_r_squared: Coefficient of determination of the straight-line fit
            of ``log(survival)`` against the interval, which the paper's
            Figure 6 inspects visually (a perfect exponential gives 1.0).
        ks_statistic: Kolmogorov-Smirnov distance between the empirical CDF
            and the fitted exponential CDF.
    """

    rate: float
    mean_interval: float
    n_samples: int
    log_r_squared: float
    ks_statistic: float

    @property
    def is_plausibly_exponential(self) -> bool:
        """Loose check used by tests: the log-survival fit is nearly linear."""
        return self.log_r_squared >= 0.9 and self.ks_statistic <= 0.15


def fit_exponential(intervals: Sequence[float]) -> ExponentialFit:
    """Fit an exponential distribution to ``intervals`` (maximum likelihood).

    Args:
        intervals: Observed inter-change intervals, in days. Must be
            non-empty and strictly positive.

    Returns:
        An :class:`ExponentialFit` with the MLE rate and goodness-of-fit
        diagnostics.
    """
    data = np.asarray(list(intervals), dtype=float)
    if data.size == 0:
        raise ValueError("cannot fit an exponential distribution to no data")
    if np.any(data <= 0):
        raise ValueError("intervals must be strictly positive")
    mean_interval = float(np.mean(data))
    rate = 1.0 / mean_interval
    r_squared = _log_survival_r_squared(data)
    ks = kolmogorov_smirnov_exponential(data, rate)
    return ExponentialFit(
        rate=rate,
        mean_interval=mean_interval,
        n_samples=int(data.size),
        log_r_squared=r_squared,
        ks_statistic=ks,
    )


def _log_survival_r_squared(data: np.ndarray) -> float:
    """R-squared of a straight-line fit to the empirical log-survival curve.

    For exponential data, ``log P(T > t)`` is linear in ``t`` with slope
    ``-rate``; Figure 6 plots exactly this relationship on a log scale.
    """
    sorted_data = np.sort(data)
    n = sorted_data.size
    if n < 3:
        return 1.0
    # Empirical survival at each sorted point, excluding the final point
    # whose survival estimate is zero (log undefined).
    survival = 1.0 - np.arange(1, n + 1) / n
    mask = survival > 0
    x = sorted_data[mask]
    y = np.log(survival[mask])
    if x.size < 2 or np.allclose(x, x[0]):
        return 1.0
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return max(0.0, 1.0 - ss_res / ss_tot)


def kolmogorov_smirnov_exponential(intervals: Sequence[float], rate: float) -> float:
    """Kolmogorov-Smirnov distance between data and an Exponential(rate) CDF.

    Args:
        intervals: Observed intervals.
        rate: Rate of the reference exponential distribution.

    Returns:
        The maximum absolute difference between the empirical CDF and the
        exponential CDF, a number in [0, 1].
    """
    data = np.sort(np.asarray(list(intervals), dtype=float))
    if data.size == 0:
        raise ValueError("cannot compute a KS statistic with no data")
    n = data.size
    cdf = 1.0 - np.exp(-rate * data)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(np.abs(upper - cdf)), np.max(np.abs(cdf - lower))))


def exponential_goodness_of_fit(
    intervals: Sequence[float], rate: float, n_bins: int = 10
) -> float:
    """Chi-square style goodness-of-fit statistic against Exponential(rate).

    Intervals are bucketed into ``n_bins`` equal-probability bins of the
    reference distribution; the statistic is the normalised sum of squared
    deviations of observed from expected counts. Smaller is better; zero
    means a perfect fit.

    Args:
        intervals: Observed intervals.
        rate: Rate of the reference exponential distribution.
        n_bins: Number of equal-probability bins.

    Returns:
        The chi-square statistic divided by the sample size (a scale-free
        measure of misfit).
    """
    data = np.asarray(list(intervals), dtype=float)
    if data.size == 0:
        raise ValueError("cannot compute goodness of fit with no data")
    if rate <= 0:
        raise ValueError("rate must be positive")
    # Equal-probability bin edges of the exponential distribution.
    probabilities = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = -np.log(1.0 - probabilities) / rate
    observed, _ = np.histogram(data, bins=np.concatenate(([0.0], edges, [np.inf])))
    expected = data.size / n_bins
    chi_square = float(np.sum((observed - expected) ** 2 / expected))
    return chi_square / data.size


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Normal-approximation confidence interval for the mean of ``values``.

    Args:
        values: Sample values.
        confidence: Two-sided confidence level, e.g. 0.95.

    Returns:
        A tuple ``(mean, lower, upper)``.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot compute a confidence interval with no data")
    mean = float(np.mean(data))
    if data.size == 1:
        return mean, mean, mean
    std_error = float(np.std(data, ddof=1) / math.sqrt(data.size))
    z = normal_quantile(0.5 + confidence / 2.0)
    return mean, mean - z * std_error, mean + z * std_error


def normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution (Acklam's method).

    Args:
        p: Probability in (0, 1).

    Returns:
        The value ``z`` such that ``Phi(z) = p``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be strictly between 0 and 1")
    # Coefficients for the rational approximations.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    p_high = 1.0 - p_low
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def poisson_rate_confidence_interval(
    n_events: int, exposure: float, confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Confidence interval for a Poisson rate from an event count.

    Uses the normal approximation on the square-root (variance-stabilising)
    scale, which behaves reasonably even for small counts.

    Args:
        n_events: Number of events observed.
        exposure: Total observation time (same unit as the rate's inverse).
        confidence: Two-sided confidence level.

    Returns:
        A tuple ``(rate, lower, upper)`` with ``lower >= 0``.
    """
    if exposure <= 0:
        raise ValueError("exposure must be positive")
    if n_events < 0:
        raise ValueError("event count cannot be negative")
    rate = n_events / exposure
    z = normal_quantile(0.5 + confidence / 2.0)
    half_width = z * math.sqrt(n_events + 0.25) / exposure
    centre = (n_events + 0.25) / exposure
    lower = max(0.0, centre - half_width)
    upper = centre + half_width
    return rate, lower, upper
