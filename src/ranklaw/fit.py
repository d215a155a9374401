"""Least-squares fitting of rank-size laws.

Three model shapes are fitted:

* lavalette3      y(r) = A m1 r^-m2 (N - r + 1)^m3   (doubly decreasing)
* powerlaw        y(r) = A c  r^-beta
* powerlaw_cutoff y(r) = A h  r^-alpha exp(-lambda r),  lambda >= 0

A is a fixed order-of-magnitude amplitude chosen up front, never fitted.
Fitting defaults to log-scale residuals, where every model is linear in
(log(A p0), p1, p2) and the optimum has a closed form.  Head-dominated linear
residuals are an option, fitted from the log-scale optimum by variable projection
(see fit_model); both R^2 values are always reported.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import FitError, checked, scaled_back
from .rank import RankedSeries
from .text import fmt, key_lines


MAX_ITER = 500   # linear-scale Levenberg-Marquardt iterations
TOL = 1e-8       # relative parameter step that counts as converged


class ModelKind(enum.Enum):
    LAVALETTE3 = "lavalette3"
    POWERLAW = "powerlaw"
    POWERLAW_CUTOFF = "cutoff"


PARAM_NAMES = {
    ModelKind.LAVALETTE3: ("m1", "m2", "m3"),
    ModelKind.POWERLAW: ("c", "beta"),
    ModelKind.POWERLAW_CUTOFF: ("h", "alpha", "lambda"),
}


@checked
class RankSizeModel(NamedTuple):
    kind: ModelKind
    A: float
    N: int
    params: tuple[float, ...]

    def _check(self):
        if self.N < 2:
            raise FitError("N must be >= 2")
        if self.A <= 0:
            raise FitError("A must be positive")
        expected = len(PARAM_NAMES[self.kind])
        if len(self.params) != expected:
            raise FitError(f"{self.kind.value} takes {expected} parameters, got {len(self.params)}")


@checked
class FitResult(NamedTuple):
    model: RankSizeModel
    scale: str                       # "log" or "linear" (fitting scale)
    r_squared: float                 # on the fitting scale
    r_squared_linear: float
    chi_squared: float               # linear-scale sum of squared residuals
    param_std_err: tuple[float, ...]
    excluded: tuple[str, ...]
    iterations: int
    converged: bool
    log_fitted: np.ndarray           # log(yhat) at each rank, read-only


def _log_design(kind: ModelKind, N: int, r: np.ndarray) -> np.ndarray:
    """Columns of log(yhat) as a linear function of (log(A p0), p1, p2), the
    amplitude column then the shape columns: the one place each model's
    functional form is written."""
    cols = [np.ones(r.size), -np.log(r)]
    if kind is ModelKind.LAVALETTE3:
        cols.append(np.log(N - r + 1))
    elif kind is ModelKind.POWERLAW_CUTOFF:
        cols.append(-r)
    return np.column_stack(cols)


def _log_predict(A: float, params, design: np.ndarray) -> np.ndarray:
    """log(yhat): log(A p0) plus each further column times its parameter, added
    in column order, which is bit for bit the model's own expression."""
    log_yhat = np.full(len(design), np.log(A * params[0]))
    for p, column in zip(params[1:], design.T[1:]):
        log_yhat += p * column
    return log_yhat


def model_eval(model: RankSizeModel, r):
    """Evaluate the model at rank(s) r (scalar or array), 1 <= r <= N."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 1) or np.any(arr > model.N):
        raise FitError(f"rank out of range [1, {model.N}]")
    design = _log_design(model.kind, model.N, arr.ravel())
    y = np.exp(_log_predict(model.A, model.params, design)).reshape(arr.shape)
    return float(y) if np.isscalar(r) or arr.ndim == 0 else y


def model_jacobian(model: RankSizeModel, r) -> np.ndarray:
    """Analytic d y / d params at rank(s) r."""
    design = _log_design(model.kind, model.N, np.atleast_1d(np.asarray(r, dtype=float)))
    return _jacobian(model.A, model.params, design, "linear")


def _lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise FitError("singular design matrix: the ranks do not determine the parameters")
    return coef


def _log_optimum(kind: ModelKind, A: float, design: np.ndarray,
                 logy: np.ndarray) -> np.ndarray:
    """Exact log-scale least-squares parameters, with lambda >= 0 for the cutoff."""
    coef = _lstsq(design, logy)
    if kind is ModelKind.POWERLAW_CUTOFF and coef[2] < 0:
        # a convex objective with one bound: the optimum lies on lambda = 0
        coef = np.append(_lstsq(design[:, :2], logy), 0.0)
    with np.errstate(over="ignore"):  # an m1 past the float range is refused by fit_model
        return np.array([np.exp(coef[0] - math.log(A)), *coef[1:]])


def _jacobian(A, params, design, scale) -> np.ndarray:
    """d log(yhat) / d params on the log scale, d yhat / d params on the linear one."""
    jac = design.copy()
    jac[:, 0] /= params[0]
    if scale == "log":
        return jac
    return np.exp(_log_predict(A, params, design))[:, None] * jac


def _projection(A: float, design: np.ndarray, shape: np.ndarray, y: np.ndarray, e: int):
    """(params, g, amp, residual, ssr) of the model amp g for one shape, on values y divided
    by 2^e: g is exp of the shape columns times `shape` less its largest exponent, so that no
    moment of g overflows or underflows, and amp = <g, y> / <g, g> is the exact linear-scale
    optimum.  The factor amp e^-top 2^e / A is scaled by its powers of two last (exact)."""
    log_g = design[:, 1:] @ shape
    top = log_g.max()
    g = np.exp(log_g - top)
    amp = (g @ y) / (g @ g)
    res = y - amp * g
    frac, exp = math.frexp(A)
    factor = np.ldexp(amp * np.exp(-top) / frac, e - exp)
    return np.array([factor, *shape]), g, amp, res, float(res @ res)


def fit_model(series: RankedSeries, kind: ModelKind = ModelKind.LAVALETTE3,
              A: float | None = None, scale: str = "log",
              excluded: tuple[str, ...] = ()) -> FitResult:
    """Least-squares fit of a rank-size model to a ranked series.

    The log-scale optimum is one linear least-squares solve (converged after 0
    iterations).  On the linear scale, variable projection makes the amplitude factor
    exact for each shape, and damped Levenberg-Marquardt steps on the shape parameters
    start from the log-scale optimum: damping is multiplied by 10 after a rejected step
    and divided by 10 after an accepted one, which converges when its relative shape
    step is below TOL; the loop gives up above 1e15 damping or after MAX_ITER
    iterations.  `excluded` lists entity ids removed before fitting, for the report.
    """
    if scale not in ("log", "linear"):
        raise FitError(f"unknown scale {scale!r}")
    r, y = series.ranks, series.values
    n_params = len(PARAM_NAMES[kind])
    if r.size < n_params + 1:
        raise FitError(f"need at least {n_params + 1} points, got {r.size}")
    if np.any(y <= 0):
        raise FitError("fitting needs strictly positive values")
    N = series.n
    if A is None:
        A = 10.0 ** math.floor(math.log10(y.max()))  # the order of magnitude of max y
    elif not (math.isfinite(A) and A > 0):
        raise FitError(f"amplitude A must be positive and finite; got {A}")

    design, logy = _log_design(kind, N, r), np.log(y)
    params = _log_optimum(kind, A, design, logy)
    converged = scale == "log"  # the log-scale optimum needs no iteration
    top = math.frexp(y.max())[1]  # y / 2^top is exact and below 1, so no sum of it overflows
    if not converged:
        y_scaled = np.ldexp(y, -top)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            params, g, amp, res, ssr = _projection(A, design, params[1:], y_scaled, top)
    damping, iterations = 1e-3, 0
    while iterations < MAX_ITER and not converged and damping <= 1e15 and ssr < math.inf:
        iterations += 1
        # Kaufman's Jacobian, d(amp g) / d shape off g, over amp: no amp^2 moment forms
        jac = g[:, None] * (design[:, 1:] - (g * g) @ design[:, 1:] / (g @ g))
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag == 0] = 1.0
        normal, rhs = jtj + damping * np.diag(diag), jac.T @ res / amp
        step = _lstsq(normal, rhs)
        if kind is ModelKind.POWERLAW_CUTOFF and params[2] + step[1] < 0:
            # lambda moves to its bound 0, and alpha takes the best step given that move
            step = np.array([(rhs[0] + normal[0, 1] * params[2]) / normal[0, 0], -params[2]])
        with np.errstate(over="ignore", invalid="ignore"):  # a step that overflows is rejected
            trial = _projection(A, design, params[1:] + step, y_scaled, top)
        if trial[-1] <= ssr:  # False for an inf or NaN ssr too
            converged = bool(np.all(np.abs(step) <= TOL * np.abs(params[1:])))
            params, g, amp, res, ssr = trial
            damping = max(damping / 10.0, 1e-15)
        else:
            damping *= 10.0

    m1 = float(params[0])
    for what, value in (("", m1), ("A times ", A * m1)):  # Python floats: no FloatingPointError
        if not np.finfo(float).tiny <= value < math.inf:
            raise FitError(f"{what}the fitted amplitude factor {value:.3g} is out of the "
                           "float range")
    log_fitted = _log_predict(A, params, design)
    res = logy - log_fitted  # the log path's residual (the linear ssr is its projection's)
    with np.errstate(over="ignore"):  # a yhat or sum past the float range is refused below
        # R^2 and SS_res of y and yhat divided by 2^top (exact); chi^2 and ssr scaled back
        r2_lin, ss_res = _r_squared(np.ldexp(y, -top), np.ldexp(np.exp(log_fitted), -top))
    chi2 = scaled_back(ss_res, 2 * top, "sum of squared residuals", FitError)
    ssr = float(res @ res) if scale == "log" else scaled_back(
        ssr, 2 * top, "sum of squared residuals", FitError)
    r2 = _r_squared(logy, log_fitted)[0] if scale == "log" else r2_lin  # logs lie within +-745

    # standard errors from the final unregularized normal matrix; NaN if singular or overflowing
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            jac = _jacobian(A, params, design, scale)
            cov = ssr / (r.size - n_params) * np.linalg.inv(jac.T @ jac)
        std_err = tuple(float(v) for v in np.sqrt(np.maximum(np.diag(cov), 0.0)))
    except (np.linalg.LinAlgError, FloatingPointError):
        std_err = tuple(math.nan for _ in range(n_params))

    return FitResult(RankSizeModel(kind, A, N, tuple(float(v) for v in params)), scale, r2,
                     r2_lin, chi2, std_err, tuple(excluded), iterations, converged, log_fitted)


def _r_squared(obs: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    """(1 - SS_res / SS_tot, SS_res), on obs and pred as given."""
    ss_tot, ss_res = (float(np.sum(d ** 2)) for d in (obs - obs.mean(), obs - pred))
    if ss_tot == 0:
        raise FitError("zero total sum of squares")
    return 1.0 - ss_res / ss_tot, ss_res


def remove_top_outliers(series: RankedSeries, k: int) -> RankedSeries:
    """Drop the k lowest ranks (largest values) and re-rank the remainder."""
    if not 0 <= k < series.n:
        raise FitError(f"k must be in [0, {series.n - 1}]")
    if k == 0:
        return series
    groups = series.tie_groups
    return RankedSeries(series.ids[k:], series.values[k:],
                        np.arange(1.0, series.n - k + 1), groups[groups[:, 0] > k] - k)


def detect_outliers(series: RankedSeries, fit: FitResult,
                    threshold: float = 3.0) -> list[str]:
    """Entities whose log-scale standardized residual exceeds threshold.

    Reported in rank order (head of the ranking first).
    """
    res = np.log(series.values) - fit.log_fitted  # not log(yhat): yhat may underflow to 0
    std = res.std(ddof=1)
    if std == 0:
        return []
    flagged = np.abs(res) / std > threshold
    return list(map(series.ids.__getitem__, np.flatnonzero(flagged).tolist()))


def format_fit_report(fit: FitResult) -> str:
    m = fit.model
    return key_lines({
        "model": m.kind.value, "A": m.A, "N": m.N,
        **{name: f"{fmt(value)} +/- {format(err, '.6g')}"
           for name, value, err in zip(PARAM_NAMES[m.kind], m.params, fit.param_std_err)},
        # on the linear scale these two keys are one, with one value
        "scale": fit.scale, f"r_squared_{fit.scale}": fit.r_squared,
        "r_squared_linear": fit.r_squared_linear, "chi_squared": fit.chi_squared,
        "excluded": ",".join(fit.excluded) or "(none)", "iterations": fit.iterations,
        "converged": fit.converged})


def fit_table(series: RankedSeries, fit: FitResult) -> str:
    """Per-rank delimited table (rank, value, predicted, residual) for plotting."""
    yhat = np.exp(fit.log_fitted)
    cells = np.column_stack((series.ranks, series.values, yhat, series.values - yhat))
    return ("rank,value,predicted,residual\n"
            + ("%.12g,%.12g,%.12g,%.12g\n" * len(cells)) % tuple(cells.ravel().tolist()))
