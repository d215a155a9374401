"""Descriptive statistics of a real-valued series and their text layouts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StatsError


@dataclass(frozen=True)
class SummaryStats:
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
    median = float(np.median(x))
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


def format_summary(stats: SummaryStats, label: str = "") -> str:
    """One-column text table mirroring the summary layout."""
    rows = [
        ("n", f"{stats.n:d}"),
        ("min", format(stats.min, ".12g")),
        ("Max", format(stats.max, ".12g")),
        ("Sum", format(stats.sum, ".12g")),
        ("mean (mu)", format(stats.mean, ".12g")),
        ("median (m)", format(stats.median, ".12g")),
        ("RMS", format(stats.rms, ".12g")),
        ("Std. Dev. (sigma)", format(stats.std_dev, ".12g")),
        ("Var.", format(stats.variance, ".12g")),
        ("Std. Err.", format(stats.std_err, ".12g")),
        ("Skewness", format(stats.skewness, ".12g")),
        ("Kurtosis (excess)", format(stats.kurtosis, ".12g")),
        ("Kurtosis (non-excess)", format(stats.kurtosis_pearson, ".12g")),
        ("mu/sigma", format(stats.mu_over_sigma, ".12g")),
        ("3(mu-m)/sigma", format(stats.nonparam_skew, ".12g")),
    ]
    width = max(len(k) for k, _ in rows)
    lines = []
    if label:
        lines.append(label)
    lines += [f"{k:<{width}}  {v}" for k, v in rows]
    return "\n".join(lines) + "\n"


def summary_key_values(stats: SummaryStats) -> dict[str, float]:
    """Machine-readable flat mapping of every summary field."""
    out = {
        "n": stats.n, "min": stats.min, "max": stats.max, "sum": stats.sum,
        "mean": stats.mean, "median": stats.median, "rms": stats.rms,
        "std_dev": stats.std_dev, "variance": stats.variance,
        "std_err": stats.std_err, "skewness": stats.skewness,
        "kurtosis_excess": stats.kurtosis,
        "kurtosis_nonexcess": stats.kurtosis_pearson,
        "mu_over_sigma": stats.mu_over_sigma,
        "nonparam_skew": stats.nonparam_skew,
    }
    return out
