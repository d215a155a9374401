"""Least-squares fitting of rank-size laws.

Three model shapes are fitted:

* lavalette3      y(r) = A m1 r^-m2 (N - r + 1)^m3   (doubly decreasing)
* powerlaw        y(r) = A c  r^-beta
* powerlaw_cutoff y(r) = A h  r^-alpha exp(-lambda r),  lambda >= 0

A is a fixed order-of-magnitude amplitude chosen up front, never fitted.
Fitting defaults to log-scale residuals, where every model is linear in
(log(A p0), p1, p2) and the optimum has a closed form.  Head-dominated linear
residuals are available as an option, fitted by a damped (Levenberg-Marquardt)
loop started from the log-scale optimum; both R^2 values are always reported.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import FitError, checked
from .rank import RankedSeries


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
            raise FitError(
                f"{self.kind.value} takes {expected} parameters, got {len(self.params)}"
            )

    @property
    def param_names(self) -> tuple[str, ...]:
        return PARAM_NAMES[self.kind]


class FitResult(NamedTuple):
    model: RankSizeModel
    scale: str                       # "log" or "linear" (fitting scale)
    r_squared: float                 # on the fitting scale
    r_squared_linear: float
    chi_squared: float               # linear-scale sum of squared residuals
    residuals: tuple[float, ...]     # per-rank, on the fitting scale
    param_std_err: tuple[float, ...]
    excluded: tuple[str, ...]
    iterations: int
    converged: bool


def _log_predict(kind: ModelKind, A: float, N: int, params, r: np.ndarray) -> np.ndarray:
    if kind is ModelKind.LAVALETTE3:
        m1, m2, m3 = params
        return np.log(A * m1) - m2 * np.log(r) + m3 * np.log(N - r + 1)
    if kind is ModelKind.POWERLAW:
        c, beta = params
        return np.log(A * c) - beta * np.log(r)
    h, alpha, lam = params
    return np.log(A * h) - alpha * np.log(r) - lam * r


def _log_design(kind: ModelKind, N: int, r: np.ndarray) -> np.ndarray:
    """Columns of log(yhat) as a linear function of (log(A p0), p1, p2)."""
    cols = [np.ones(r.size), -np.log(r)]
    if kind is ModelKind.LAVALETTE3:
        cols.append(np.log(N - r + 1))
    elif kind is ModelKind.POWERLAW_CUTOFF:
        cols.append(-r)
    return np.column_stack(cols)


def _log_jacobian(kind: ModelKind, N: int, params, r: np.ndarray) -> np.ndarray:
    """d log(yhat) / d params, one column per parameter."""
    jac = _log_design(kind, N, r)
    jac[:, 0] /= params[0]
    return jac


def model_eval(model: RankSizeModel, r):
    """Evaluate the model at rank(s) r (scalar or array), 1 <= r <= N."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 1) or np.any(arr > model.N):
        raise FitError(f"rank out of range [1, {model.N}]")
    y = np.exp(_log_predict(model.kind, model.A, model.N, model.params, arr))
    return float(y) if np.isscalar(r) or arr.ndim == 0 else y


def model_jacobian(model: RankSizeModel, r) -> np.ndarray:
    """Analytic d y / d params at rank(s) r."""
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    y = np.exp(_log_predict(model.kind, model.A, model.N, model.params, arr))
    return y[:, None] * _log_jacobian(model.kind, model.N, model.params, arr)


def default_amplitude(values) -> float:
    """A = 10^floor(log10(max y)), the pre-imposed order-of-magnitude scale."""
    top = float(np.max(values))
    if top <= 0:
        raise FitError("amplitude needs a positive maximum value")
    return 10.0 ** math.floor(math.log10(top))


def _lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise FitError("singular design matrix: the ranks do not determine the parameters")
    return coef


def _log_optimum(kind: ModelKind, A: float, N: int,
                 r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact log-scale least-squares parameters, with lambda >= 0 for the cutoff."""
    design = _log_design(kind, N, r)
    logy = np.log(y)
    coef = _lstsq(design, logy)
    if kind is ModelKind.POWERLAW_CUTOFF and coef[2] < 0:
        # a convex objective with one bound: the optimum lies on lambda = 0
        coef = np.append(_lstsq(design[:, :2], logy), 0.0)
    return np.array([math.exp(coef[0]) / A, *coef[1:]])


def _residuals(kind, A, N, params, r, y, scale) -> np.ndarray:
    log_yhat = _log_predict(kind, A, N, params, r)
    if scale == "log":
        return np.log(y) - log_yhat
    return y - np.exp(log_yhat)


def _jacobian(kind, A, N, params, r, scale) -> np.ndarray:
    jl = _log_jacobian(kind, N, params, r)
    if scale == "log":
        return jl
    yhat = np.exp(_log_predict(kind, A, N, params, r))
    return yhat[:, None] * jl


def _clamp(kind: ModelKind, params: np.ndarray) -> np.ndarray:
    params = params.copy()
    params[0] = max(params[0], 1e-300)  # amplitude factor must stay positive
    if kind is ModelKind.POWERLAW_CUTOFF:
        params[2] = max(params[2], 0.0)
    return params


def fit_model(series: RankedSeries, kind: ModelKind = ModelKind.LAVALETTE3,
              A: float | None = None, scale: str = "log",
              excluded: tuple[str, ...] = ()) -> FitResult:
    """Least-squares fit of a rank-size model to a ranked series.

    On the log scale the optimum comes from one linear least-squares solve,
    reported as converged after 0 iterations.  On the linear scale a damped
    Levenberg-Marquardt loop starts from that log-scale optimum.  Damping is
    multiplicative: divided by 10 after an accepted step, multiplied by 10
    after a rejected one.  Convergence is declared when the relative parameter
    step of an accepted iteration falls below TOL; the loop gives up after
    MAX_ITER iterations.  `excluded` lists entity ids removed before fitting,
    for the report.
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
        A = default_amplitude(y)
    elif not (math.isfinite(A) and A > 0):
        raise FitError(f"amplitude A must be positive and finite; got {A}")

    params = _log_optimum(kind, A, N, r, y)
    res = _residuals(kind, A, N, params, r, y, scale)
    ssr = float(res @ res)
    damping = 1e-3
    converged = scale == "log"  # the log-scale optimum needs no iteration
    iterations = 0
    while iterations < MAX_ITER and not converged:
        iterations += 1
        jac = _jacobian(kind, A, N, params, r, scale)
        jtj = jac.T @ jac
        jtr = jac.T @ res
        diag = np.diag(jtj).copy()
        diag[diag == 0] = 1.0
        normal = jtj + damping * np.diag(diag)
        cond = np.linalg.cond(normal)
        if not np.isfinite(cond) or cond > 1e15:
            raise FitError(
                f"singular normal equations (condition number {cond:.3g})"
            )
        step = np.linalg.solve(normal, jtr)
        trial = _clamp(kind, params + step)
        with np.errstate(over="ignore", invalid="ignore"):  # a step that overflows is rejected
            trial_res = _residuals(kind, A, N, trial, r, y, scale)
            trial_ssr = float(trial_res @ trial_res)
        if np.isfinite(trial_ssr) and trial_ssr <= ssr:
            rel_step = np.max(np.abs(trial - params) / (np.abs(params) + 1e-300))
            params, res, ssr = trial, trial_res, trial_ssr
            damping = max(damping / 10.0, 1e-15)
            if rel_step < TOL:
                converged = True
        else:
            damping *= 10.0
            if damping > 1e15:
                break

    model = RankSizeModel(kind, A, N, tuple(float(v) for v in params))
    r2, chi2 = goodness(series, model, scale)
    r2_lin = goodness(series, model, "linear")[0] if scale == "log" else r2

    # per-parameter standard errors from the final unregularized normal matrix
    jac = _jacobian(kind, A, N, params, r, scale)
    dof = max(r.size - n_params, 1)
    s2 = ssr / dof
    try:
        cov = s2 * np.linalg.inv(jac.T @ jac)
        std_err = tuple(float(v) for v in np.sqrt(np.maximum(np.diag(cov), 0.0)))
    except np.linalg.LinAlgError:
        std_err = tuple(math.nan for _ in range(n_params))

    return FitResult(
        model=model, scale=scale,
        r_squared=r2, r_squared_linear=r2_lin, chi_squared=chi2,
        residuals=tuple(res.tolist()),
        param_std_err=std_err, excluded=tuple(excluded),
        iterations=iterations, converged=converged,
    )


def goodness(series: RankedSeries, model: RankSizeModel, scale: str = "log") -> tuple[float, float]:
    """(R^2 on `scale`, chi^2 = linear-scale sum of squared residuals)."""
    r, y = series.ranks, series.values
    yhat = model_eval(model, r)
    chi2 = float(np.sum((y - yhat) ** 2))
    if scale == "log":
        if np.any(y <= 0):
            raise FitError("log-scale goodness needs positive values")
        obs, pred = np.log(y), np.log(yhat)
    else:
        obs, pred = y, yhat
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if ss_tot == 0:
        raise FitError("zero total sum of squares")
    r2 = 1.0 - float(np.sum((obs - pred) ** 2)) / ss_tot
    return r2, chi2


def remove_top_outliers(series: RankedSeries, k: int) -> RankedSeries:
    """Drop the k lowest ranks (largest values) and re-rank the remainder."""
    if not 0 <= k < series.n:
        raise FitError(f"k must be in [0, {series.n - 1}]")
    if k == 0:
        return series
    tie_groups = tuple(
        (lo - k, hi - k) for lo, hi in series.tie_groups if lo > k
    )
    return RankedSeries(series.ids[k:], series.values[k:],
                        np.arange(1.0, series.n - k + 1), tie_groups)


def detect_outliers(series: RankedSeries, fit: FitResult,
                    threshold: float = 3.0) -> list[str]:
    """Entities whose log-scale standardized residual exceeds threshold.

    Reported in rank order (head of the ranking first).
    """
    res = np.log(series.values) - np.log(model_eval(fit.model, series.ranks))
    std = res.std(ddof=1)
    if std == 0:
        return []
    flagged = np.abs(res) / std > threshold
    return list(map(series.ids.__getitem__, np.flatnonzero(flagged).tolist()))


def format_fit_report(fit: FitResult) -> str:
    m = fit.model
    lines = [
        f"model: {m.kind.value}",
        f"A: {format(m.A, '.12g')}",
        f"N: {m.N}",
    ]
    for name, value, err in zip(m.param_names, m.params, fit.param_std_err):
        lines.append(f"{name}: {format(value, '.12g')} +/- {format(err, '.6g')}")
    lines += [
        f"scale: {fit.scale}",
        f"r_squared_{fit.scale}: {format(fit.r_squared, '.12g')}",
    ]
    if fit.scale == "log":  # on the linear scale the line above is this one
        lines.append(f"r_squared_linear: {format(fit.r_squared_linear, '.12g')}")
    lines += [
        f"chi_squared: {format(fit.chi_squared, '.12g')}",
        f"excluded: {','.join(fit.excluded) if fit.excluded else '(none)'}",
        f"iterations: {fit.iterations}",
        f"converged: {str(fit.converged).lower()}",
    ]
    return "\n".join(lines) + "\n"


def fit_table(series: RankedSeries, fit: FitResult) -> str:
    """Per-rank delimited table (rank, value, predicted, residual) for plotting."""
    yhat = model_eval(fit.model, series.ranks)
    cells = np.column_stack((series.ranks, series.values, yhat, series.values - yhat))
    return ("rank,value,predicted,residual\n"
            + ("%.12g,%.12g,%.12g,%.12g\n" * len(cells)) % tuple(cells.ravel().tolist()))
