"""Two-regime structure detection in scatter data.

Operationalizes visual class identification as k-lines clustering: alternating
assignment of points to the nearest origin-constrained line (by orthogonal
distance) and total-least-squares refit of each line's slope.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError, id_sample


@dataclass(frozen=True)
class ScatterSet:
    points: tuple[tuple[str, float, float], ...]  # (entity_id, x, y)

    def __post_init__(self):
        if len(self.points) < 2:
            raise RegimeError("scatter set needs at least 2 points")
        for eid, x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise RegimeError(f"non-finite coordinate for {eid!r}")

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([p[1] for p in self.points]),
                np.array([p[2] for p in self.points]))


@dataclass(frozen=True)
class RegimeSplit:
    assignments: dict[str, int]        # entity_id -> 1-based class, steepest first
    slopes: tuple[float, ...]          # descending
    overall_slope: float
    outliers: tuple[str, ...]
    objective: float                   # sum of squared orthogonal residuals
    iterations: int
    degenerate: bool = False
    objective_trace: tuple[float, ...] = ()  # objective after each assign step


def inertia_axis(points: ScatterSet) -> tuple[float, float, float, float, float]:
    """Ordinary least squares of y on x.

    Returns (intercept, slope, r_squared, intercept_std_err, slope_std_err).
    """
    x, y = points.arrays()
    n = x.size
    if n < 3:
        raise RegimeError("inertia_axis needs at least 3 points")
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


_MAX_ITER = 100


def two_line_split(points: ScatterSet, k: int = 2,
                   outlier_ids: tuple[str, ...] = ()) -> RegimeSplit:
    """k-lines clustering (k in {2, 3}) with origin-constrained lines.

    Slopes are initialized from percentiles of the per-point y/x ratio
    (10th/90th for k=2, plus the median for k=3); each iteration assigns
    points to the nearest line by orthogonal distance and refits slopes,
    so the objective never increases.  Points in outlier_ids are excluded
    before clustering and reported back unassigned; an id that names no point
    is an error.
    """
    if k not in (2, 3):
        raise RegimeError("k must be 2 or 3")
    excluded = set(outlier_ids)
    unknown = excluded.difference(p[0] for p in points.points)
    if unknown:
        raise RegimeError(f"outlier ids not in the scatter: {id_sample(unknown)}")
    kept = [p for p in points.points if p[0] not in excluded]
    if len(kept) < k + 2:
        raise RegimeError(f"need at least {k + 2} points after outlier exclusion")
    ids = [p[0] for p in kept]
    x = np.array([p[1] for p in kept])
    y = np.array([p[2] for p in kept])

    overall = _tls_origin_slope(x, y)

    # degenerate when every point already lies on one line through the origin
    if float(np.sum(_orthogonal_sq_dist(x, y, overall))) <= 1e-12 * float(
        np.sum(x * x + y * y)
    ):
        return RegimeSplit(
            assignments={eid: 1 for eid in ids},
            slopes=(overall,), overall_slope=overall,
            outliers=tuple(outlier_ids), objective=0.0, iterations=0,
            degenerate=True,
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(x != 0, y / x, np.inf)
    finite = ratios[np.isfinite(ratios)]
    if finite.size == 0:
        raise RegimeError("all points on the y axis")
    if k == 2:
        slopes = [float(np.percentile(finite, 90)), float(np.percentile(finite, 10))]
    else:
        slopes = [float(np.percentile(finite, q)) for q in (90, 50, 10)]
    if len(set(slopes)) < k:
        spread = max(abs(s) for s in slopes) or 1.0
        slopes = [s + 1e-6 * spread * i for i, s in enumerate(slopes)]

    assign = np.zeros(x.size, dtype=int)
    iterations = 0
    trace: list[float] = []
    for iterations in range(1, _MAX_ITER + 1):
        dists = np.column_stack([_orthogonal_sq_dist(x, y, s) for s in slopes])
        new_assign = np.argmin(dists, axis=1)
        trace.append(float(dists[np.arange(x.size), new_assign].sum()))
        # an emptied class keeps its previous slope
        for ci in range(k):
            mask = new_assign == ci
            if mask.sum() >= 1:
                slopes[ci] = _tls_origin_slope(x[mask], y[mask])
        if np.array_equal(new_assign, assign) and iterations > 1:
            break
        assign = new_assign

    dists = np.column_stack([_orthogonal_sq_dist(x, y, s) for s in slopes])
    assign = np.argmin(dists, axis=1)
    objective = float(dists[np.arange(x.size), assign].sum())

    # relabel so class 1 is the steepest line
    order = np.argsort(slopes)[::-1]
    relabel = {int(old): new + 1 for new, old in enumerate(order)}
    assignments = {eid: relabel[int(c)] for eid, c in zip(ids, assign)}
    return RegimeSplit(
        assignments=assignments,
        slopes=tuple(slopes[i] for i in order),
        overall_slope=overall,
        outliers=tuple(outlier_ids),
        objective=objective,
        iterations=iterations,
        objective_trace=tuple(trace),
    )


def loglog_power_fit(points: ScatterSet) -> tuple[float, float, float]:
    """Power-law trend y = c x^beta via OLS on (log x, log y).

    Returns (c, beta, r_squared on the log scale).
    """
    x, y = points.arrays()
    if np.any(x <= 0) or np.any(y <= 0):
        raise RegimeError("loglog_power_fit needs positive coordinates")
    log_points = ScatterSet(
        tuple((eid, math.log(px), math.log(py)) for eid, px, py in points.points))
    intercept, slope, r2, _, _ = inertia_axis(log_points)
    return math.exp(intercept), slope, r2


def export_split(points: ScatterSet, split: RegimeSplit) -> str:
    """Delimited `entity_id,x,y,class` plus a summary block."""
    out = io.StringIO()
    out.write("entity_id,x,y,class\n")
    for eid, x, y in points.points:
        cls = split.assignments.get(eid, "outlier" if eid in split.outliers else "")
        out.write(f"{eid},{format(x, '.12g')},{format(y, '.12g')},{cls}\n")
    out.write("# slopes: " + ",".join(format(s, ".12g") for s in split.slopes) + "\n")
    out.write(f"# overall_slope: {format(split.overall_slope, '.12g')}\n")
    out.write(f"# objective: {format(split.objective, '.12g')}\n")
    out.write(f"# iterations: {split.iterations}\n")
    out.write(f"# degenerate: {str(split.degenerate).lower()}\n")
    return out.getvalue()
