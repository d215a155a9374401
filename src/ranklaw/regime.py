"""Two-regime structure detection in scatter data.

Operationalizes visual class identification as exact k-lines clustering: the
split into k classes, each fitted by a line through the origin, with the least
sum of squared orthogonal distances, found by one scan over point directions.
"""

from __future__ import annotations

import math
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from .errors import RegimeError, checked, id_sample


@checked
class ScatterSet(NamedTuple):
    """Points of a scatter: ids with aligned read-only float64 arrays x and y.
    Sets compare by their (entity_id, x, y) points and are not hashable;
    from_points builds a set from such tuples."""

    ids: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray

    def _check(self):
        if len(self.ids) < 2:
            raise RegimeError("scatter set needs at least 2 points")
        finite = np.isfinite(self.x) & np.isfinite(self.y)
        if not finite.all():
            raise RegimeError(f"non-finite coordinate for {self.ids[np.argmin(finite)]!r}")

    @classmethod
    def from_points(cls, points) -> ScatterSet:
        ids, x, y = tuple(zip(*points)) or ((), (), ())
        return cls(ids, np.array(x, float), np.array(y, float))

    @property
    def points(self) -> tuple[tuple[str, float, float], ...]:
        return tuple(zip(self.ids, self.x.tolist(), self.y.tolist()))

    def __eq__(self, other):
        return self.points == other.points if isinstance(other, ScatterSet) else NotImplemented


class RegimeSplit(NamedTuple):
    assignments: dict[str, int]        # entity_id -> 1-based class, steepest first
    slopes: tuple[float, ...]          # descending
    overall_slope: float
    outliers: tuple[str, ...]
    objective: float                   # sum of squared orthogonal residuals
    iterations: int                    # always 0: the split is not iterative
    degenerate: bool = False
    objective_trace: tuple[float, ...] = ()  # always empty


def inertia_axis(points: ScatterSet) -> tuple[float, float, float, float, float]:
    """Ordinary least squares of y on x, as _ols returns it."""
    return _ols(points.x, points.y)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float, float]:
    """Ordinary least squares of y on x.

    Returns (intercept, slope, r_squared, intercept_std_err, slope_std_err).
    """
    n = x.size
    if n < 3:
        raise RegimeError("a least-squares axis needs at least 3 points")
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0:
        raise RegimeError("degenerate x: zero variance")
    slope = float(np.sum((x - x.mean()) * (y - y.mean()))) / sxx
    intercept = float(y.mean() - slope * x.mean())
    fitted = intercept + slope * x
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    s2 = ss_res / max(n - 2, 1)
    slope_se = math.sqrt(s2 / sxx)
    intercept_se = math.sqrt(s2 * (1.0 / n + x.mean() ** 2 / sxx))
    return intercept, slope, r2, intercept_se, slope_se


def _tls_origin_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of the line through the origin minimizing orthogonal distances.

    The optimal direction is the leading eigenvector of the second-moment
    matrix of the points.
    """
    m = np.array([[np.sum(x * x), np.sum(x * y)],
                  [np.sum(x * y), np.sum(y * y)]])
    eigvals, eigvecs = np.linalg.eigh(m)
    v = eigvecs[:, -1]  # largest eigenvalue last
    if v[0] == 0:
        return math.inf
    return float(v[1] / v[0])


def _orthogonal_sq_dist(x, y, slope):
    if math.isinf(slope):
        return x ** 2
    return (y - slope * x) ** 2 / (1.0 + slope * slope)


def _line_cost(moments: np.ndarray) -> np.ndarray:
    """Least squared orthogonal distance to a line through the origin of each
    point set with second moments (uu, uv, vv) in a row: det / largest eigenvalue."""
    a, b, c = moments.T
    top = (a + c) / 2 + np.hypot((a - c) / 2, b)  # 0 only where every moment is
    return np.maximum(a * c - b * b, 0.0) / np.maximum(top, np.finfo(float).tiny)


def _three_runs(prefix: np.ndarray) -> tuple[int, int]:
    """The cuts 0 < i < j < m of m groups with moment prefix sums `prefix` that
    minimize the cost of the runs [0, i), [i, j) and [j, m).  In a half-plane
    the run cost obeys the quadrangle inequality, so the best i never decreases
    as j grows: each level solves the j at odd multiples of a halving step,
    searching i only between the best cuts of the neighbours solved before."""
    m = len(prefix) - 1
    best = np.r_[np.ones(m, dtype=np.intp), m]  # j = 2 has only i = 1; best[m] caps nothing
    step = 1 << (m - 3).bit_length()
    while step > 1:
        step //= 2
        j = np.arange(2 + step, m, 2 * step)
        lo = best[j - step]
        counts = np.minimum(best[np.minimum(j + step, m)], j - 1) - lo + 1
        starts = np.cumsum(counts) - counts
        i = np.repeat(lo - starts, counts) + np.arange(counts.sum())
        cost = _line_cost(prefix[i]) + _line_cost(prefix[np.repeat(j, counts)] - prefix[i])
        low = np.flatnonzero(cost == np.repeat(np.minimum.reduceat(cost, starts), counts))
        best[j] = i[low[np.searchsorted(low, starts)]]
    j = np.arange(2, m)
    i = best[j]
    b = np.argmin(_line_cost(prefix[i]) + _line_cost(prefix[j] - prefix[i])
                  + _line_cost(prefix[m] - prefix[j]))
    return int(i[b]), int(j[b])


def two_line_split(points: ScatterSet, k: int = 2,
                   outlier_ids: tuple[str, ...] = ()) -> RegimeSplit:
    """The exact k-lines split (k in {2, 3}) with lines through the origin.

    The nearest line depends only on a point's direction mod pi, so the classes
    are arcs of distinct directions: for k=2, [c, c + pi/2) and the rest, for
    every c; for k=3, three runs after opening the circle at its widest gap,
    which needs every direction within a right angle (true where x, y >= 0).
    Costs come from moments rotated onto the overall total-least-squares line.
    With fewer distinct directions than k, each is a class, the objective is 0
    and the split degenerate.  Points in outlier_ids are excluded and reported
    back unassigned; an id that names no point is an error.
    """
    if k not in (2, 3):
        raise RegimeError("k must be 2 or 3")
    ids, x, y = points
    if outlier_ids:
        excluded = set(outlier_ids)
        unknown = excluded.difference(ids)
        if unknown:
            raise RegimeError(f"outlier ids not in the scatter: {id_sample(unknown)}")
        kept = [eid not in excluded for eid in ids]
        ids, x, y = tuple(compress(ids, kept)), x[kept], y[kept]
    if len(ids) < k + 2:
        raise RegimeError(f"need at least {k + 2} points after outlier exclusion")
    overall = _tls_origin_slope(x, y)

    # y/x is one value per direction; a point at the origin takes another's
    ratio = np.divide(y, x, out=np.full(x.size, np.inf), where=x != 0)
    at_origin = (x == 0) & (y == 0)
    ratio[at_origin] = ratio[np.argmin(at_origin)]
    ratio, group = np.unique(ratio, return_inverse=True)
    theta, m = np.arctan(ratio), ratio.size  # theta in (-pi/2, pi/2]
    w = (x + 1j * y) * np.exp(-1j * math.atan(overall))  # class moments then cancel less
    sums = np.column_stack([np.bincount(group, q, m)
                            for q in (w.real ** 2, w.real * w.imag, w.imag ** 2)])
    if m < k:
        labels = np.arange(m)
    elif k == 2:
        prefix = np.cumsum(np.vstack([np.zeros(3), sums, sums]), axis=0)
        s = np.arange(m)  # arcs [s, e); e = s + m would leave the other class empty
        e = np.searchsorted(np.r_[theta, theta + np.pi], theta + np.pi / 2)
        arc = prefix[e] - prefix[s]
        cost = np.where(e < s + m, _line_cost(arc) + _line_cost(prefix[m] - arc), np.inf)
        b = int(np.argmin(cost))
        labels = ((s - s[b]) % m >= e[b] - s[b]).astype(np.intp)
    else:
        gaps = np.diff(np.r_[theta, theta[0] + np.pi])
        if gaps.max() < np.pi / 2:
            raise RegimeError(f"a 3-line split needs every point direction within a right "
                              f"angle; these span {math.degrees(np.pi - gaps.max()):.1f} degrees")
        start = int(np.argmax(gaps)) + 1  # the circle opens before this direction
        cuts = _three_runs(np.cumsum(np.vstack([np.zeros(3), np.roll(sums, -start, 0)]), 0))
        labels = np.searchsorted(cuts, (np.arange(m) - start) % m, side="right")

    assign = labels[group]
    masks = [assign == c for c in range(min(m, k))]
    slopes = [_tls_origin_slope(x[mask], y[mask]) for mask in masks]
    objective = 0.0 if m < k else float(sum(
        np.sum(_orthogonal_sq_dist(x[mask], y[mask], s)) for mask, s in zip(masks, slopes)))
    order = np.argsort(slopes)[::-1]  # class 1 is the steepest line
    assignments = dict(zip(ids, (np.argsort(order)[assign] + 1).tolist()))
    return RegimeSplit(assignments, tuple(slopes[i] for i in order), overall,
                       tuple(outlier_ids), objective, iterations=0, degenerate=m < k)


def loglog_power_fit(points: ScatterSet) -> tuple[float, float, float]:
    """Power-law trend y = c x^beta via OLS on (log x, log y).

    Returns (c, beta, r_squared on the log scale).
    """
    x, y = points.x, points.y
    if np.any(x <= 0) or np.any(y <= 0):
        raise RegimeError("loglog_power_fit needs positive coordinates")
    intercept, slope, r2, _, _ = _ols(np.log(x), np.log(y))
    return math.exp(intercept), slope, r2


def export_split(points: ScatterSet, split: RegimeSplit) -> str:
    """Delimited `entity_id,x,y,class` plus a summary block."""
    classes = [split.assignments.get(eid, "outlier" if eid in split.outliers else "")
               for eid in points.ids]
    rows = "%s,%.12g,%.12g,%s\n" * len(classes) % tuple(chain.from_iterable(
        zip(points.ids, points.x.tolist(), points.y.tolist(), classes)))
    return (f"entity_id,x,y,class\n{rows}"
            f"# slopes: {','.join(format(s, '.12g') for s in split.slopes)}\n"
            f"# overall_slope: {format(split.overall_slope, '.12g')}\n"
            f"# objective: {format(split.objective, '.12g')}\n"
            f"# iterations: {split.iterations}\n"
            f"# degenerate: {str(split.degenerate).lower()}\n")
