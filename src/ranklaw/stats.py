"""Descriptive statistics of a real-valued series and their text layouts."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import StatsError


class SummaryStats(NamedTuple):
    n: int
    min: float
    max: float
    sum: float
    mean: float
    median: float
    rms: float
    std_dev: float      # sample, n-1 denominator
    variance: float
    std_err: float      # std_dev / sqrt(n)
    skewness: float     # third standardized moment (population)
    kurtosis: float     # excess (Fisher)
    mu_over_sigma: float
    nonparam_skew: float  # 3 (mean - median) / std_dev

    @property
    def kurtosis_pearson(self) -> float:
        """Non-excess convention (excess + 3)."""
        return self.kurtosis + 3.0


def nonparametric_skew(mean: float, median: float, std_dev: float) -> float:
    """Median-based asymmetry measure 3(mu - m)/sigma."""
    if std_dev <= 0:
        raise StatsError("std_dev must be positive")
    return 3.0 * (mean - median) / std_dev


def standard_error(std_dev: float, n: int) -> float:
    """Standard error of the mean, sigma / sqrt(n)."""
    if n < 1:
        raise StatsError("n must be >= 1")
    return std_dev / math.sqrt(n)


def describe(series) -> SummaryStats:
    """Summary statistics of a real-valued series (n >= 2)."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    n = x.size
    if n < 2:
        raise StatsError("describe needs at least 2 values")
    mean = float(x.mean())
    # np.median without its numpy.ma import: a NaN sorts last, else the mean of the middle
    part = np.partition(x, [(n - 1) // 2, n // 2, n - 1])
    median = float(part[-1] if np.isnan(part[-1]) else part[(n - 1) // 2:n // 2 + 1].mean())
    variance = float(x.var(ddof=1))
    std = math.sqrt(variance)
    centered = x - mean
    m2 = float(np.mean(centered ** 2))
    if m2 > 0:
        # standardize before the higher moments so tiny scales do not underflow
        z = centered / math.sqrt(m2)
        skew = float(np.mean(z ** 3))
        kurt = float(np.mean(z ** 4)) - 3.0
    else:
        skew = 0.0
        kurt = 0.0
    return SummaryStats(
        n=n,
        min=float(x.min()),
        max=float(x.max()),
        sum=float(x.sum()),
        mean=mean,
        median=median,
        rms=float(math.sqrt(np.mean(x ** 2))),
        std_dev=std,
        variance=variance,
        std_err=standard_error(std, n),
        skewness=skew,
        kurtosis=kurt,
        mu_over_sigma=mean / std if std > 0 else math.inf,
        nonparam_skew=nonparametric_skew(mean, median, std) if std > 0 else 0.0,
    )


# (text label, machine key, attribute) of each summary field, in report order
_SUMMARY_FIELDS = (
    ("n", "n", "n"),
    ("min", "min", "min"),
    ("Max", "max", "max"),
    ("Sum", "sum", "sum"),
    ("mean (mu)", "mean", "mean"),
    ("median (m)", "median", "median"),
    ("RMS", "rms", "rms"),
    ("Std. Dev. (sigma)", "std_dev", "std_dev"),
    ("Var.", "variance", "variance"),
    ("Std. Err.", "std_err", "std_err"),
    ("Skewness", "skewness", "skewness"),
    ("Kurtosis (excess)", "kurtosis_excess", "kurtosis"),
    ("Kurtosis (non-excess)", "kurtosis_nonexcess", "kurtosis_pearson"),
    ("mu/sigma", "mu_over_sigma", "mu_over_sigma"),
    ("3(mu-m)/sigma", "nonparam_skew", "nonparam_skew"),
)


def format_summary(stats: SummaryStats, label: str = "") -> str:
    """One-column text table mirroring the summary layout."""
    width = max(len(text) for text, _, _ in _SUMMARY_FIELDS)
    lines = [label] if label else []
    lines += [f"{text:<{width}}  {format(getattr(stats, attr), '.12g')}"
              for text, _, attr in _SUMMARY_FIELDS]
    return "\n".join(lines) + "\n"


def summary_key_values(stats: SummaryStats) -> dict[str, float]:
    """Machine-readable flat mapping of every summary field."""
    return {key: getattr(stats, attr) for _, key, attr in _SUMMARY_FIELDS}
