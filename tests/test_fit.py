import math

import numpy as np
import pytest

from ranklaw import fit, rank, urnsim
from ranklaw.errors import FitError
from ranklaw.fit import ModelKind, RankSizeModel
from tests.conftest import ranked


def _lav3(A, N, m1, m2, m3):
    return RankSizeModel(ModelKind.LAVALETTE3, A, N, (m1, m2, m3))


def test_model_eval_powerlaw_reduction():
    model = _lav3(1.0, 20, 2.0, 1.0, 0.0)
    assert fit.model_eval(model, 4) == pytest.approx(0.5)


def test_model_eval_flat_limit():
    model = _lav3(3.0, 10, 2.0, 0.0, 0.0)
    values = fit.model_eval(model, np.arange(1, 11))
    assert np.allclose(values, 6.0)


def test_model_eval_head_value_pinned():
    # direct closed-form evaluation at rank 1, frozen as a regression constant
    model = _lav3(1e3, 8092, 0.847, 0.68, 0.209)
    expected = 1e3 * 0.847 * 8092 ** 0.209  # = 5554.7828...
    assert fit.model_eval(model, 1) == pytest.approx(expected, rel=1e-12)
    assert fit.model_eval(model, 1) == pytest.approx(5554.78287607193, rel=1e-9)


def test_model_eval_range_check():
    model = _lav3(1.0, 10, 1.0, 1.0, 0.0)
    with pytest.raises(FitError):
        fit.model_eval(model, 0)
    with pytest.raises(FitError):
        fit.model_eval(model, 11)


def test_form_reflection_product_invariant():
    # with equal head and tail exponents, y(r) * y(N+1-r) = (A*m1)^2
    model = _lav3(2.0, 30, 1.3, 0.25, 0.25)
    r = np.arange(1, 31)
    y = fit.model_eval(model, r)
    assert np.allclose(y * y[::-1], (2.0 * 1.3) ** 2, rtol=1e-12)


def _jacobian_fd(model, r, rel_step=1e-6):
    base = np.array(model.params)
    cols = []
    for i in range(len(base)):
        h = rel_step * abs(base[i]) if base[i] != 0 else rel_step
        up = RankSizeModel(model.kind, model.A, model.N,
                           tuple(base + h * np.eye(len(base))[i]))
        dn = RankSizeModel(model.kind, model.A, model.N,
                           tuple(base - h * np.eye(len(base))[i]))
        cols.append((fit.model_eval(up, r) - fit.model_eval(dn, r)) / (2 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("m1", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m2", [0.3, 0.7, 1.2])
@pytest.mark.parametrize("m3", [0.05, 0.2, 0.9])
def test_analytic_jacobian_matches_finite_differences(m1, m2, m3):
    model = _lav3(10.0, 50, m1, m2, m3)
    r = np.array([1.0, 7.0, 25.0, 44.0, 50.0])
    analytic = fit.model_jacobian(model, r)
    numeric = _jacobian_fd(model, r)
    assert np.allclose(analytic, numeric, rtol=1e-5)


def test_fit_recovers_noise_free_parameters():
    truth = _lav3(1e3, 20, 0.847, 0.68, 0.209)
    series = urnsim.generate_ranksize(truth)
    result = fit.fit_model(series, A=1e3)
    assert result.converged
    for got, want in zip(result.model.params, truth.params):
        assert got == pytest.approx(want, rel=1e-3)
    assert result.r_squared >= 0.999999


def test_fit_recovers_with_multiplicative_noise():
    truth = _lav3(1e3, 200, 0.9, 0.7, 0.2)
    series = urnsim.generate_ranksize(truth, noise_sigma=0.01, seed=4)
    result = fit.fit_model(series, A=1e3)
    for got, want in zip(result.model.params, truth.params):
        assert got == pytest.approx(want, rel=0.05)


def test_fit_published_region_counts(region_count_series):
    # the reference fit is on the linear scale (log-scale parameters differ)
    result = fit.fit_model(region_count_series, A=1e3, scale="linear")
    m1, m2, m3 = result.model.params
    assert m1 == pytest.approx(0.847, rel=0.10)
    assert m2 == pytest.approx(0.68, rel=0.10)
    assert m3 == pytest.approx(0.209, rel=0.10)
    assert result.r_squared >= 0.94
    assert result.chi_squared == pytest.approx(106013, rel=0.01)


def test_fit_scale_invariance(region_count_series):
    base = fit.fit_model(region_count_series, A=1e3)
    scaled_values = dict(zip(region_count_series.ids, 100.0 * region_count_series.values))
    scaled_series = ranked(scaled_values, rule=rank.TieBreak.ENTITY_ID)
    scaled = fit.fit_model(scaled_series, A=1e5)
    for a, b in zip(base.model.params, scaled.model.params):
        assert a == pytest.approx(b, rel=1e-6)


def test_powerlaw_reduction_consistency():
    truth = _lav3(1e2, 60, 1.5, 0.8, 0.0)
    series = urnsim.generate_ranksize(truth)
    result = fit.fit_model(series, kind=ModelKind.POWERLAW, A=1e2)
    c, beta = result.model.params
    assert c == pytest.approx(1.5, rel=1e-6)
    assert beta == pytest.approx(0.8, rel=1e-6)


def test_cutoff_fit_roundtrip():
    truth = RankSizeModel(ModelKind.POWERLAW_CUTOFF, 1e3, 100, (2.0, 0.5, 0.02))
    series = urnsim.generate_ranksize(truth)
    result = fit.fit_model(series, kind=ModelKind.POWERLAW_CUTOFF, A=1e3)
    for got, want in zip(result.model.params, truth.params):
        assert got == pytest.approx(want, rel=1e-4)
    assert result.model.params[2] >= 0


def test_fit_rejects_nonpositive_values_on_log_scale():
    values = {"a": 3.0, "b": 2.0, "c": 1.0, "d": 0.0}
    series = ranked(values)
    for scale in ("log", "linear"):
        with pytest.raises(FitError, match="positive"):
            fit.fit_model(series, scale=scale)


def _paper_scale_series():
    # the powerlaw_cutoff normal matrix of this series has a condition number
    # near 1e17, so an iterative log-scale solve would stop as singular
    truth = _lav3(1e3, 8092, 1.0, 0.75, 0.45)
    return urnsim.generate_ranksize(truth, noise_sigma=0.1, seed=1)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_log_fit_is_the_exact_least_squares_optimum(kind):
    series = _paper_scale_series()
    r, y = series.ranks, series.values
    cols = [np.ones(r.size), -np.log(r)]
    if kind is ModelKind.LAVALETTE3:
        cols.append(np.log(r.size - r + 1))
    elif kind is ModelKind.POWERLAW_CUTOFF:
        cols.append(-r)
    coef = np.linalg.lstsq(np.column_stack(cols), np.log(y), rcond=None)[0]
    result = fit.fit_model(series, kind=kind, A=1e3)
    assert result.iterations == 0
    assert result.converged
    want = (math.exp(coef[0]) / 1e3, *coef[1:])
    for got, expected in zip(result.model.params, want):
        assert got == pytest.approx(expected, rel=1e-9)
    if kind is ModelKind.POWERLAW_CUTOFF:
        assert result.model.params[2] > 0


def test_cutoff_rate_held_at_zero_when_unconstrained_optimum_is_negative():
    # y = 5 r^-0.8 exp(+0.01 r) still decreases on 1..50, but its rate is negative
    r = np.arange(1, 51, dtype=float)
    y = 5.0 * r ** -0.8 * np.exp(0.01 * r)
    series = ranked({f"e{int(ri):02d}": float(v) for ri, v in zip(r, y)},
                    rule=rank.TieBreak.ENTITY_ID)
    cutoff = fit.fit_model(series, kind=ModelKind.POWERLAW_CUTOFF, A=1.0)
    power = fit.fit_model(series, kind=ModelKind.POWERLAW, A=1.0)
    assert cutoff.model.params[2] == 0.0
    assert cutoff.model.params[:2] == pytest.approx(power.model.params, rel=1e-12)


def test_log_fit_rejects_ranks_that_cannot_determine_the_parameters():
    # average-rank ties leave two distinct ranks for three parameters
    series = ranked({"a": 2.0, "b": 2.0, "c": 1.0, "d": 1.0},
                    rule=rank.TieBreak.AVERAGE_RANK)
    with pytest.raises(FitError, match="singular"):
        fit.fit_model(series)


def test_fit_needs_enough_points():
    series = ranked({"a": 2.0, "b": 1.0})
    with pytest.raises(FitError, match="at least"):
        fit.fit_model(series)


def test_goodness_perfect_and_constant():
    truth = _lav3(1.0, 10, 2.0, 0.5, 0.1)
    series = urnsim.generate_ranksize(truth)
    r2, chi2 = fit.goodness(series, truth, "log")
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert chi2 == pytest.approx(0.0, abs=1e-12)

    # a flat model equal to the observed mean has R^2 = 0 on the linear scale
    flat = _lav3(float(series.values.mean()), 10, 1.0, 0.0, 0.0)
    r2, _ = fit.goodness(series, flat, "linear")
    assert r2 == pytest.approx(0.0, abs=1e-9)


def test_goodness_hand_computed_chi2():
    # the +/-1 shifts are small against the value scale, so ranks are unchanged
    truth = _lav3(1e3, 10, 2.0, 0.5, 0.1)
    series = urnsim.generate_ranksize(truth)
    r = np.arange(1, 11, dtype=float)
    shifted_values = fit.model_eval(truth, r) + np.array(
        [1.0, -1.0] + [0.0] * 8
    )
    shifted = ranked(
        {f"r{i}": float(v) for i, v in enumerate(shifted_values)},
        rule=rank.TieBreak.ENTITY_ID,
    )
    _, chi2 = fit.goodness(shifted, truth, "linear")
    assert chi2 == pytest.approx(2.0, rel=1e-9)


def test_remove_top_outliers():
    series = ranked({"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0})
    assert fit.remove_top_outliers(series, 0) is series
    trimmed = fit.remove_top_outliers(series, 2)
    assert trimmed.ids == ("c", "d")
    assert trimmed.ranks.tolist() == [1.0, 2.0]
    single = fit.remove_top_outliers(series, 3)
    assert single.n == 1
    with pytest.raises(FitError):
        fit.remove_top_outliers(series, 4)


def test_detect_outliers_clean_and_contaminated():
    truth = _lav3(1e3, 50, 1.0, 0.7, 0.15)
    series = urnsim.generate_ranksize(truth, noise_sigma=0.02, seed=6)
    result = fit.fit_model(series, A=1e3)
    assert fit.detect_outliers(series, result, threshold=4.0) == []
    assert fit.detect_outliers(series, result, threshold=math.inf) == []

    contaminated_values = dict(zip(series.ids, series.values))
    victim = series.ids[24]
    contaminated_values[victim] *= 100.0
    contaminated = ranked(contaminated_values, rule=rank.TieBreak.ENTITY_ID)
    refit = fit.fit_model(contaminated, A=1e3)
    assert fit.detect_outliers(contaminated, refit) == [victim]


def test_fit_report_and_table(region_count_series):
    result = fit.fit_model(region_count_series, A=1e3, scale="linear")
    report = fit.format_fit_report(result)
    assert "model: lavalette3" in report
    assert "m2:" in report
    table = fit.fit_table(region_count_series, result)
    assert table.splitlines()[0] == "rank,value,predicted,residual"
    assert len(table.splitlines()) == 21
