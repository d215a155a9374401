"""Descriptive statistics of a real-valued series and their text layouts."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import StatsError
from .text import format_table


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
    """Summary statistics of a real-valued series (n >= 2), with every moment taken on the values
    divided by the power of two of max |x| (exact) and scaled back last."""
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise StatsError("describe needs at least 2 values")
    e = math.frexp(float(np.abs(x).max()))[1]
    scaled = np.ldexp(x, -e)
    mu = float(scaled.mean())
    # np.median without its numpy.ma import: a NaN sorts last, else the mean of the middle
    part = np.partition(x, [(n - 1) // 2, n // 2, n - 1])
    median = float(part[-1] if np.isnan(part[-1]) else part[(n - 1) // 2:n // 2 + 1].mean())
    centered = scaled - mu
    ss = float(np.sum(centered ** 2))
    skew = kurt = 0.0
    if ss > 0:  # standardize before the higher moments so tiny scales do not underflow
        z = centered / math.sqrt(ss / n)
        skew, kurt = float(np.mean(z ** 3)), float(np.mean(z ** 4)) - 3.0
    fields = {"sum": (scaled.sum(), e), "mean": (mu, e),
              "RMS": (math.sqrt(np.mean(scaled ** 2)), e),
              "standard deviation": (math.sqrt(ss / (n - 1)), e), "variance": (ss / (n - 1), 2 * e)}
    for name, (value, power) in fields.items():
        try:  # a field past the float range raises here where np.errstate says so, as in cli.main
            fields[name] = float(np.ldexp(value, power))
        except FloatingPointError:
            raise StatsError(f"the {name} is past the float range") from None
    total, mean, rms, std, variance = fields.values()
    return SummaryStats(
        n=n,
        min=float(x.min()),
        max=float(x.max()),
        sum=total,
        mean=mean,
        median=median,
        rms=rms,
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
    return format_table({text: getattr(stats, attr) for text, _, attr in _SUMMARY_FIELDS}, label)


def summary_key_values(stats: SummaryStats) -> dict[str, float]:
    """Machine-readable flat mapping of every summary field."""
    return {key: getattr(stats, attr) for _, key, attr in _SUMMARY_FIELDS}
