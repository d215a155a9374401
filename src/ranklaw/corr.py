"""Rank correlation statistics: Kendall tau, Spearman rho, Pearson, Z scores.

Concordant/discordant pair counting is implemented twice: a brute-force
O(n^2) enumerator kept as a testing oracle, and a merge-based O(n log n)
counter used everywhere else.  Counts are exact integers so tables built
from them reproduce bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CorrelationError, require_finite
from .ingest import Panel, average_over_years
from .rank import RankPairs


class PairCounts(NamedTuple):
    """Exact pair-concordance counts for one pair of series.

    ties_x / ties_y count pairs tied in exactly one series; ties_both counts
    pairs tied in both, so p + q + ties_x + ties_y + ties_both = n(n-1)/2.
    """

    p: int
    q: int
    ties_x: int
    ties_y: int
    ties_both: int

    @property
    def total(self) -> int:
        return self.p + self.q + self.ties_x + self.ties_y + self.ties_both


@dataclass(frozen=True)
class CorrelationReport:
    """Kendall, Spearman and Pearson statistics of one pair of rankings.

    p, q and the tie counts are exact; tau_a, tau_b and rho are within 1e-12
    of their exact values for n up to 10^4.
    """

    n: int
    p: int
    q: int
    ties_x: int
    ties_y: int
    tau_a: float
    tau_b: float
    sigma_tau: float
    z: float
    rho: float
    pi: float


def _tie_pair_count(sorted_values: np.ndarray) -> int:
    """Number of pairs with equal values, given a sorted array."""
    if sorted_values.shape[0] == 0:
        return 0
    change = np.empty(sorted_values.shape[0], dtype=bool)
    change[0] = True
    if sorted_values.ndim == 1:
        change[1:] = sorted_values[1:] != sorted_values[:-1]
    else:
        change[1:] = np.any(sorted_values[1:] != sorted_values[:-1], axis=1)
    runs = np.diff(np.append(np.flatnonzero(change), sorted_values.shape[0]))
    return int(np.sum(runs * (runs - 1) // 2))


_MERGE_BLOCK = 64


def _merge_count(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Sort `a`, returning it with the number of strict inversions."""
    n = a.size
    if n <= _MERGE_BLOCK:
        # one quadratic-but-vectorized comparison beats deep recursion here
        inv = int(np.triu(a[:, None] > a[None, :], k=1).sum())
        return np.sort(a), inv
    left, cl = _merge_count(a[: n // 2])
    right, cr = _merge_count(a[n // 2:])
    left_pos = np.searchsorted(right, left, side="left")
    cross = int(left_pos.sum())
    merged = np.empty(n, dtype=a.dtype)
    merged[np.arange(left.size) + left_pos] = left
    merged[np.arange(right.size) + np.searchsorted(left, right, side="right")] = right
    return merged, cl + cr + cross


def kendall_counts_xy(x, y) -> PairCounts:
    """O(n log n) concordant/discordant/tie pair counts for two value series."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise CorrelationError(f"length mismatch: {x.size} vs {y.size}")
    require_finite(x, CorrelationError)
    require_finite(y, CorrelationError)
    n = x.size
    n0 = n * (n - 1) // 2
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    n1 = _tie_pair_count(xs)
    n2 = _tie_pair_count(np.sort(y))
    n3 = _tie_pair_count(np.column_stack((xs, ys)))
    # after sorting by (x, y), strict inversions in y are exactly the
    # discordant pairs: x-tied runs are y-ascending and contribute none
    _, q = _merge_count(ys)
    p = n0 - n1 - n2 + n3 - q
    return PairCounts(p, q, n1 - n3, n2 - n3, n3)


def kendall_counts_brute(x, y) -> PairCounts:
    """O(n^2) enumeration of every pair; the testing oracle."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != len(y):
        raise CorrelationError(f"length mismatch: {len(x)} vs {len(y)}")
    p = q = tx = ty = tb = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx == 0 and dy == 0:
                tb += 1
            elif dx == 0:
                tx += 1
            elif dy == 0:
                ty += 1
            elif dx == dy:
                p += 1
            else:
                q += 1
    return PairCounts(p, q, tx, ty, tb)


def kendall_tau(counts: PairCounts) -> tuple[float, float]:
    """(tau_a, tau_b) from pair counts; tau_a = (p - q)/(p + q)."""
    p, q = counts.p, counts.q
    if p + q == 0:
        raise CorrelationError("all pairs tied: tau undefined")
    tau_a = (p - q) / (p + q)
    n0 = counts.total
    nx = n0 - (counts.ties_x + counts.ties_both)
    ny = n0 - (counts.ties_y + counts.ties_both)
    tau_b = (p - q) / math.sqrt(nx * ny)
    return tau_a, tau_b


def z_score(tau: float, n: int) -> tuple[float, float]:
    """Null-hypothesis sigma_tau = sqrt(2(2n+5)/(9n(n-1))) and z = tau/sigma_tau."""
    if n < 3:
        raise CorrelationError("z_score needs n >= 3")
    sigma_tau = math.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))
    return sigma_tau, tau / sigma_tau


def pearson_pi(x, y) -> float:
    """Pearson correlation: covariance over the product of standard deviations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise CorrelationError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise CorrelationError("pearson_pi needs n >= 2")
    require_finite(x, CorrelationError)
    require_finite(y, CorrelationError)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise CorrelationError("zero variance series")
    return float(np.sum(dx * dy)) / (sx * sy)


def spearman_rho(pairs: RankPairs) -> float:
    """Pearson correlation applied to the two rank vectors."""
    rx, ry = pairs.rank_vectors()
    return pearson_pi(rx, ry)


def correlation_report(pairs: RankPairs, x_values, y_values) -> CorrelationReport:
    """Full statistics for one pair of rankings; Pearson pi is computed on the
    raw value series, given in the order of pairs.entries."""
    counts = kendall_counts_xy(*pairs.rank_vectors())
    tau_a, tau_b = kendall_tau(counts)
    sigma_tau, z = z_score(tau_a, pairs.n)
    return CorrelationReport(
        n=pairs.n, p=counts.p, q=counts.q,
        ties_x=counts.ties_x + counts.ties_both,
        ties_y=counts.ties_y + counts.ties_both,
        tau_a=tau_a, tau_b=tau_b, sigma_tau=sigma_tau, z=z,
        rho=spearman_rho(pairs), pi=pearson_pi(x_values, y_values),
    )


@dataclass(frozen=True)
class PairwiseMatrix:
    """Per-column-pair Kendall statistics over a panel's year columns."""

    labels: tuple[str, ...]
    counts: dict[tuple[str, str], PairCounts]
    tau: dict[tuple[str, str], float]
    z: dict[tuple[str, str], float]


AVERAGE_LABEL = "avg"


def pairwise_matrix(panel: Panel, window: list[int] | None = None) -> PairwiseMatrix:
    """Kendall counts, tau and Z for every pair of columns: the window years
    and the window average."""
    window = list(window) if window is not None else list(panel.years)
    order = sorted(range(len(panel.ids)), key=panel.ids.__getitem__)
    columns: dict[str, np.ndarray] = {}
    for year in window:
        values = panel.column(year)[order]
        missing = np.flatnonzero(np.isnan(values))
        if missing.size:
            raise CorrelationError(f"missing values in year {year}: "
                                   f"{[panel.ids[order[i]] for i in missing[:5]]}")
        columns[str(year)] = values
    avg = average_over_years(panel, window)
    columns[AVERAGE_LABEL] = np.array([avg[panel.ids[i]] for i in order])

    labels = tuple(columns)
    n = len(order)
    counts: dict[tuple[str, str], PairCounts] = {}
    tau: dict[tuple[str, str], float] = {}
    zs: dict[tuple[str, str], float] = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            c = kendall_counts_xy(columns[a], columns[b])
            counts[(a, b)] = c
            tau_a, _ = kendall_tau(c)
            tau[(a, b)] = tau_a
            zs[(a, b)] = z_score(tau_a, n)[1]
    return PairwiseMatrix(labels, counts, tau, zs)


def _format_matrix(labels, upper, lower, fmt) -> str:
    """Square delimited table: `upper` above the diagonal, `lower` below."""
    lines = ["," + ",".join(labels)]
    for i, row in enumerate(labels):
        cells = [row]
        for j, col in enumerate(labels):
            if i == j:
                cells.append("-")
            elif i < j:
                cells.append(fmt(upper[(row, col)]))
            else:
                cells.append(fmt(lower[(col, row)]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def format_pq_matrix(matrix: PairwiseMatrix) -> str:
    """p above the diagonal, q below (the concordance-count layout)."""
    upper = {k: c.p for k, c in matrix.counts.items()}
    lower = {k: c.q for k, c in matrix.counts.items()}
    return _format_matrix(matrix.labels, upper, lower, str)


def format_tau_z_matrix(matrix: PairwiseMatrix) -> str:
    """tau above the diagonal, Z below."""
    return _format_matrix(matrix.labels, matrix.tau, matrix.z,
                          lambda v: format(v, ".12g"))
