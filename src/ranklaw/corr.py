"""Rank correlation statistics: Kendall tau, Spearman rho, Pearson, Z scores.

Concordant/discordant pair counting is implemented twice: a brute-force
O(n^2) enumerator kept as a testing oracle, and an O(n log n) counter used
everywhere else, which counts inversions inside small blocks and then merges
sorted runs bottom-up.  Counts are exact integers so tables built from them
reproduce bit-for-bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CorrelationError, require_finite


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


class CorrelationReport(NamedTuple):
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


def _tied_pairs(sizes: np.ndarray) -> int:
    """The number of pairs within groups of the given sizes."""
    return int((sizes * (sizes - 1)).sum()) // 2


_BLOCK = 32
_UPPER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), k=1)  # the pairs i < j of a block


def _inversions(codes: np.ndarray) -> int:
    """The number of pairs i < j with codes[i] > codes[j], for integer codes in
    [0, n): Knight's merge count, bottom-up.  One masked broadcast compare
    counts the inversions inside each block of _BLOCK; then at each doubling
    level one searchsorted counts, for every sorted run, the elements of its
    right neighbour below each of its own, and one sort merges the two."""
    n = codes.size
    size = _BLOCK
    while size < n:
        size *= 2
    runs = np.full(size, n, dtype=np.int64)  # padded at the end above every code
    runs[:n] = codes
    blocks = runs.reshape(-1, _BLOCK)
    count = int(np.count_nonzero((blocks[:, :, None] > blocks[:, None, :]) & _UPPER))
    runs = np.sort(blocks, axis=1)
    width = _BLOCK
    while width < size:
        halves = runs.reshape(-1, 2, width)
        m = len(halves)
        # offsetting each pair of runs by n + 1 sorts all right runs as one array
        offset = np.arange(0, m * (n + 1), n + 1)[:, None]
        below = np.searchsorted((halves[:, 1] + offset).ravel(), halves[:, 0] + offset)
        count += int(below.sum()) - width * width * m * (m - 1) // 2
        width *= 2
        runs = np.sort(runs.reshape(-1, width), axis=1)
    return count


def _ranked(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(integer codes that keep a finite series' order and ties, its tied pairs)."""
    require_finite(values, CorrelationError)
    _, codes, sizes = np.unique(values, return_inverse=True, return_counts=True)
    return codes, _tied_pairs(sizes)


def _pair_counts(cx: np.ndarray, n1: int, cy: np.ndarray, n2: int) -> PairCounts:
    """Pair counts of two series of one length from their _ranked codes and tied pairs."""
    n = cx.size
    key = cx * n + cy
    n3 = _tied_pairs(np.unique(key, return_counts=True)[1])
    # after sorting by (x, y), strict inversions in y are exactly the
    # discordant pairs: x-tied runs are y-ascending and contribute none
    q = _inversions(cy[np.argsort(key)])
    p = n * (n - 1) // 2 - n1 - n2 + n3 - q
    return PairCounts(p, q, n1 - n3, n2 - n3, n3)


def kendall_counts_xy(x, y) -> PairCounts:
    """O(n log n) concordant/discordant/tie pair counts for two value series."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size != y.size:
        raise CorrelationError(f"length mismatch: {x.size} vs {y.size}")
    return _pair_counts(*_ranked(x), *_ranked(y))


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
    return pearson_pi(pairs.rx, pairs.ry)


def correlation_report(pairs: RankPairs, x_values, y_values) -> CorrelationReport:
    """Full statistics for one pair of rankings; Pearson pi is computed on the
    raw value series, given in the order of pairs.ids."""
    counts = kendall_counts_xy(pairs.rx, pairs.ry)
    tau_a, tau_b = kendall_tau(counts)
    sigma_tau, z = z_score(tau_a, len(pairs.ids))
    return CorrelationReport(
        n=len(pairs.ids), p=counts.p, q=counts.q,
        ties_x=counts.ties_x + counts.ties_both,
        ties_y=counts.ties_y + counts.ties_both,
        tau_a=tau_a, tau_b=tau_b, sigma_tau=sigma_tau, z=z,
        rho=pearson_pi(pairs.rx, pairs.ry), pi=pearson_pi(x_values, y_values),
    )


class PairwiseMatrix(NamedTuple):
    """Per-column-pair Kendall statistics over a panel's year columns."""

    labels: tuple[str, ...]
    counts: dict[tuple[str, str], PairCounts]
    tau: dict[tuple[str, str], float]
    z: dict[tuple[str, str], float]


AVERAGE_LABEL = "avg"


def pairwise_matrix(panel: Panel, window: list[int] | None = None) -> PairwiseMatrix:
    """Kendall counts, tau and Z for every pair of columns: each year of the
    window (every panel year if it is empty or None) and the window average,
    whose computation first checks that those years and cells are all there."""
    from .ingest import average_over_years
    avg = average_over_years(panel, window)
    columns = {str(year): panel.column(year) for year in window or panel.years}
    columns[AVERAGE_LABEL] = avg

    labels = tuple(columns)
    n = len(avg)
    ranked = {label: _ranked(column) for label, column in columns.items()}
    counts: dict[tuple[str, str], PairCounts] = {}
    tau: dict[tuple[str, str], float] = {}
    zs: dict[tuple[str, str], float] = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            c = _pair_counts(*ranked[a], *ranked[b])
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
