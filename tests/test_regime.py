import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ranklaw import cli, regime
from ranklaw.errors import RegimeError
from ranklaw.regime import ScatterSet


def _scatter(xs, ys):
    return ScatterSet.from_points(tuple((f"p{i}", float(x), float(y))
                            for i, (x, y) in enumerate(zip(xs, ys))))


def test_inertia_axis_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    intercept, slope, r2, _, _ = regime.inertia_axis(x, 2 * x + 1)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_inertia_axis_hand_ols():
    x = np.array([0.0, 1.0, 2.0])
    intercept, slope, r2, _, _ = regime.inertia_axis(x, x)
    assert (intercept, slope) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))
    assert r2 == pytest.approx(1.0)


def test_inertia_axis_identity_rank_pairs():
    ranks = np.arange(1.0, 26.0)
    intercept, slope, _, _, _ = regime.inertia_axis(ranks, ranks)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-9)


def test_inertia_axis_standard_errors_positive():
    rng = np.random.default_rng(2)
    x = rng.random(100)
    y = 3 * x + rng.normal(0, 0.1, 100)
    _, _, _, int_se, slope_se = regime.inertia_axis(x, y)
    assert int_se > 0 and slope_se > 0


def test_inertia_axis_degenerate_x():
    with pytest.raises(RegimeError, match="degenerate"):
        regime.inertia_axis(np.ones(3), np.array([1.0, 2.0, 3.0]))


def _eigh_slope(x, y):
    """The reference: the slope of the leading eigenvector of the second moments."""
    moments = np.array([[x @ x, x @ y], [x @ y, y @ y]])
    eigvals, eigvecs = np.linalg.eigh(moments)
    v = eigvecs[:, -1]
    return (np.inf if v[0] == 0 else v[1] / v[0]), eigvals


def _direction(slope):
    return np.array([0.0, 1.0]) if np.isinf(slope) else np.array([1.0, slope]) / np.hypot(1, slope)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=2, max_size=30))
def test_tls_slope_is_the_eigh_principal_axis(points):
    x, y = np.array(points).T
    reference, (low, top) = _eigh_slope(x, y)
    assume(top > 0 and top - low > 1e-3 * top)  # a well-conditioned principal axis
    u, v = _direction(regime._tls_origin_slope(x, y)), _direction(reference)
    assert abs(u[0] * v[1] - u[1] * v[0]) < 1e-9


@pytest.mark.parametrize("x, y, slope", [
    ([1.0, -2.0, 3.0], [0.0, 0.0, 0.0], 0.0),   # every point on the x axis
    ([0.0, 0.0], [1.0, -2.0], np.inf),          # every point on the y axis
    ([0.0, 0.0], [0.0, 0.0], np.inf),           # all-zero moments
    ([1.0, 0.0], [0.0, -1.0], np.inf),          # isotropic moments
], ids=["x_axis", "y_axis", "zero", "isotropic"])
def test_tls_slope_on_the_axis_cases_is_the_eigh_one(x, y, slope):
    x, y = np.array(x), np.array(y)
    assert regime._tls_origin_slope(x, y) == slope == _eigh_slope(x, y)[0]


def test_tls_slope_of_moments_whose_sum_overflows():
    x = np.array([6e153, 5e153, 4e153, 4.5e153, 3e153])
    y = x * np.array([1.01, 0.99, 1.02, 0.98, 1.0])  # x.x + y.y is past the float range
    split = regime.two_line_split(_scatter(x, y))
    assert split.overall_slope == pytest.approx(_eigh_slope(x, y)[0], rel=1e-12)


_coordinate = st.floats(1e-3, 1e3)


def _normal(value):
    return value == 0 or abs(value) >= np.finfo(float).tiny


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=5, max_size=30),
       st.sampled_from([2, 3]), st.integers(-1000, 480))
def test_a_split_of_a_power_of_two_multiple_is_the_same_split(points, k_lines, k):
    # 2^k times every coordinate stays normal, and 4^k times the objective in range
    x, y = (np.array(v) for v in zip(*points))
    split = regime.two_line_split(_scatter(x, y), k=k_lines)
    scaled = regime.two_line_split(_scatter(np.ldexp(x, k), np.ldexp(y, k)), k=k_lines)
    assert scaled.assignments == split.assignments
    assert (scaled.slopes, scaled.overall_slope) == (split.slopes, split.overall_slope)
    objective = math.ldexp(split.objective, 2 * k)
    if _normal(objective):  # a subnormal multiple is rounded
        assert scaled.objective == objective


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=30),
       st.integers(-500, 400), st.integers(-500, 400))
def test_inertia_axis_of_power_of_two_multiples_scales_exactly(points, kx, ky):
    x, y = (np.array(v) for v in zip(*points))
    assume(np.ptp(x) > 0)
    intercept, slope, r2, intercept_se, slope_se = regime.inertia_axis(x, y)
    expected = (math.ldexp(intercept, ky), math.ldexp(slope, ky - kx), r2,
                math.ldexp(intercept_se, ky), math.ldexp(slope_se, ky - kx))
    scaled = regime.inertia_axis(np.ldexp(x, kx), np.ldexp(y, ky))
    for got, want in zip(scaled, expected):
        if _normal(want):  # a subnormal multiple is rounded
            assert got == want


_AXIS_FIELDS = ("inertia-axis intercept", "inertia-axis slope", "r_squared",
                "inertia-axis intercept standard error", "inertia-axis slope standard error")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=30),
       st.sampled_from(range(-1000, 1001)), st.sampled_from(range(-1000, 1001)))
@example(points=[(1.0, 1.0), (2.0, 3.0), (3.0, 2.0)], kx=-1000, ky=1000)  # slope 2^1999
@example(points=[(1.0, 1.0), (2.0, 3.0), (3.0, 2.0)], kx=1000, ky=-1000)  # slope 2^-2001
def test_inertia_axis_of_independent_axis_scales_is_exact_or_refused_by_name(points, kx, ky):
    # every scaled coordinate is normal (1e-3 * 2^-1000 is about 1e-304), and kx - ky
    # reaches +-2000, past what a slope scaled by 2^(ky - kx) can hold
    x, y = (np.array(v) for v in zip(*points))
    assume(np.ptp(x) > 0)
    unscaled = regime.inertia_axis(x, y)
    assume(all(map(_normal, unscaled)))  # so each multiple is rounded once, as the scaled call's
    expected, past = [], []
    for name, value, power in zip(_AXIS_FIELDS, unscaled, (ky, ky - kx, 0, ky, ky - kx)):
        try:
            expected.append(math.ldexp(value, power))
        except OverflowError:
            past.append(name)
    if past:
        with pytest.raises(RegimeError, match=f"^the {past[0]} is past the float range$"):
            regime.inertia_axis(np.ldexp(x, kx), np.ldexp(y, ky))
    else:
        assert regime.inertia_axis(np.ldexp(x, kx), np.ldexp(y, ky)) == tuple(expected)


def test_two_line_split_separable_bundles():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0] * 2
    ys = [3 * x for x in xs[:5]] + [1 * x for x in xs[5:]]
    points = _scatter(xs, ys)
    split = regime.two_line_split(points)
    assert split.slopes[0] == pytest.approx(3.0, abs=1e-9)
    assert split.slopes[1] == pytest.approx(1.0, abs=1e-9)
    classes = [split.assignments[f"p{i}"] for i in range(10)]
    assert classes == [1] * 5 + [2] * 5
    assert split.objective == pytest.approx(0.0, abs=1e-18)
    assert not split.degenerate


def test_two_line_split_collinear_degenerate():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    points = _scatter(xs, [2 * x for x in xs])
    split = regime.two_line_split(points)
    assert split.degenerate
    assert split.overall_slope == pytest.approx(2.0, abs=1e-12)
    assert set(split.assignments.values()) == {1}


@lru_cache(maxsize=None)
def _labelings(n, k):
    return np.array(list(itertools.product(range(k), repeat=n)))


def _exhaustive(x, y, k):
    """The least objective over every labeling of the points into k classes."""
    labels = _labelings(x.size, k)
    total = np.zeros(len(labels))
    for c in range(k):
        w = (labels == c).astype(float)
        a, b, d = w @ (x * x), w @ (x * y), w @ (y * y)
        total += (a + d) / 2 - np.hypot((a - d) / 2, b)  # the smaller eigenvalue
    return total.min()


def _own_line_objective(x, y, split):
    """Sum of squared orthogonal distances of each point to its class's line."""
    slopes = np.array(split.slopes)[[split.assignments[f"p{i}"] - 1 for i in range(x.size)]]
    return float(np.sum((y - slopes * x) ** 2 / (1 + slopes ** 2)))


def _tied_directions(rng, n, signs):
    """Points on at most four lines with small integer directions, several per line."""
    directions = rng.integers(1, 5, size=(4, 2)).astype(float)
    if signs:
        directions[:, 0] *= rng.choice([-1.0, 1.0], size=4)
    points = directions[rng.integers(0, 4, n)] * rng.choice([0.5, 1.0, 2.0, 3.0], (n, 1))
    return points.T


@pytest.mark.parametrize("k, kind", [(2, "quadrant"), (3, "quadrant"), (2, "mixed"),
                                     (2, "tied"), (3, "tied"), (2, "tied mixed")])
def test_two_line_split_equals_exhaustive_search(k, kind):
    rng = np.random.default_rng([k, len(kind)])
    for _ in range(100):
        n = int(rng.integers(k + 2, 11))
        if kind == "quadrant":
            x, y = rng.random((2, n))
        elif kind == "mixed":
            x, y = rng.normal(size=(2, n))
        else:
            x, y = _tied_directions(rng, n, signs=kind == "tied mixed")
        if rng.random() < 0.2:
            x[0] = y[0] = 0.0  # a point at the origin fits every line
        split = regime.two_line_split(_scatter(x, y), k=k)
        tolerance = 1e-9 * float(np.sum(x * x + y * y))
        assert split.objective == pytest.approx(_exhaustive(x, y, k), abs=tolerance)
        assert split.objective == pytest.approx(_own_line_objective(x, y, split), abs=tolerance)
        assert split.iterations == 0


def _full_two_cut_scan(x, y):
    """The objective of the best three runs of the points in angular order,
    trying every pair of cuts."""
    order = np.argsort(np.arctan2(y, x))
    xs, ys = x[order], y[order]
    prefix = np.cumsum(np.vstack([np.zeros(3), np.column_stack([xs * xs, xs * ys, ys * ys])]),
                       axis=0)

    def cost(lo, hi):
        a, b, d = (prefix[hi] - prefix[lo]).T
        return (a + d) / 2 - np.hypot((a - d) / 2, b)

    n = x.size
    i, j = (c.ravel() for c in np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij"))
    i, j = i[i < j], j[i < j]
    total = cost(0 * i, i) + cost(i, j) + cost(j, np.full_like(j, n))
    best = int(np.argmin(total))
    labels = np.searchsorted([i[best], j[best]], np.arange(n), side="right")
    objective = 0.0
    for c in range(3):
        cx, cy = xs[labels == c], ys[labels == c]
        slope = regime._tls_origin_slope(cx, cy)
        objective += float(np.sum(regime._orthogonal_sq_dist(cx, cy, slope)))
    return objective


def test_three_line_search_equals_the_full_two_cut_scan():
    rng = np.random.default_rng(33)
    for trial in range(60):
        n = int(rng.integers(5, 301))
        if trial % 3 == 0:
            x, y = rng.random((2, n))
        elif trial % 3 == 1:
            x = rng.random(n) + 0.1
            y = x * rng.choice([0.5, 1.0, 3.0], n) * np.exp(rng.normal(0, 0.2, n))
        else:
            x = np.exp(rng.normal(0, 1, n))
            y = x * np.exp(rng.normal(0, 1, n))
        split = regime.two_line_split(_scatter(x, y), k=3)
        assert split.objective == pytest.approx(_full_two_cut_scan(x, y), rel=1e-9)


def _contiguous_optimum(x, y, k):
    """The least objective over the splits of the points, sorted by y/x, into
    k runs, each computed from the points."""
    order = np.argsort(y / x)
    best = np.inf
    for cuts in itertools.combinations(range(1, x.size), k - 1):
        labels = np.searchsorted(cuts, np.arange(x.size), side="right")
        objective = 0.0
        for c in range(k):
            cx, cy = x[order][labels == c], y[order][labels == c]
            slope = regime._tls_origin_slope(cx, cy)
            objective += float(np.sum(regime._orthogonal_sq_dist(cx, cy, slope)))
        best = min(best, objective)
    return best


def test_near_parallel_classes_at_45_degrees():
    # class slopes 1, 1 + 2e-8 and 1 + 6e-8: unrotated moment sums would lose
    # the class costs to rounding
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = 1 + rng.random(24)
        y = x * (1 + rng.choice([0.0, 2e-8, 6e-8], 24) + rng.normal(0, 4e-10, 24))
        for k in (2, 3):
            split = regime.two_line_split(_scatter(x, y), k=k)
            optimum = _contiguous_optimum(x, y, k)
            assert split.objective == pytest.approx(optimum, rel=1e-6, abs=0)


def test_fewer_directions_than_lines_is_degenerate():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] * 2
    ys = [3 * x for x in xs[:6]] + [x for x in xs[6:]]
    split = regime.two_line_split(_scatter(xs, ys), k=3)
    assert split.degenerate and split.objective == 0.0
    assert split.slopes == (pytest.approx(3.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))
    assert [split.assignments[f"p{i}"] for i in range(12)] == [1] * 6 + [2] * 6


def test_directions_one_ulp_apart_fill_both_classes():
    # every class cost rounds to 0, so the arc holding every direction ties
    # with the real splits and must not be chosen
    xs = [4.0, 8.0, 2.0, 4.0, 4.0, 1.0, 1.0]
    ys = [7.403159499408104, 14.806318998816206, 3.7015797497040515, 7.403159499408103,
          7.403159499408103, 1.850789874852026, 1.850789874852026]
    split = regime.two_line_split(_scatter(xs, ys))
    assert not split.degenerate and set(split.assignments.values()) == {1, 2}
    assert split.slopes == (pytest.approx(1.8507898748520255),) * 2


def test_points_at_the_origin_leave_one_line_degenerate():
    xs = [0.0, 1.0, 2.0, 0.0, 3.0, 4.0]
    split = regime.two_line_split(_scatter(xs, [2 * x for x in xs]))
    assert split.degenerate and split.slopes == (pytest.approx(2.0, abs=1e-12),)
    assert set(split.assignments.values()) == {1}


WIDE = ([1.0, 1.0, 0.2, -1.0, -1.0, 0.5], [0.1, 1.0, 1.0, 1.0, 0.3, 2.0])


def test_three_lines_need_directions_within_a_right_angle():
    with pytest.raises(RegimeError, match="within a right angle; these span 123.7 degrees"):
        regime.two_line_split(_scatter(*WIDE), k=3)
    # two lines take any directions
    assert not regime.two_line_split(_scatter(*WIDE)).degenerate


def test_regime_k3_on_wide_directions_is_one_error_line(tmp_path, capsys):
    scatter = tmp_path / "scatter.csv"
    scatter.write_text("entity_id,x,y\n" + "".join(
        f"p{i},{x},{y}\n" for i, (x, y) in enumerate(zip(*WIDE))))
    code = cli.main(["regime", "--input", str(scatter), "--k-lines", "3",
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"ranklaw: regime: {scatter}: a 3-line split needs")
    assert err.count("\n") == 1


def test_two_line_split_scaling_invariance():
    rng = np.random.default_rng(8)
    x = rng.random(30) + 0.5
    y = x * rng.choice([2.0, 6.0], size=30) * np.exp(rng.normal(0, 0.05, 30))
    base = regime.two_line_split(_scatter(x, y))
    scaled = regime.two_line_split(_scatter(10 * x, 10 * y))
    assert scaled.assignments == base.assignments
    for a, b in zip(base.slopes, scaled.slopes):
        assert b == pytest.approx(a, rel=1e-9)


def test_two_line_split_axis_scaling_of_slopes():
    rng = np.random.default_rng(12)
    x = rng.random(30) + 0.5
    y = x * rng.choice([2.0, 6.0], size=30)
    base = regime.two_line_split(_scatter(x, y))
    # y -> a*y, x -> b*x scales every origin-line slope by a/b (clean bundles)
    a, b = 3.0, 0.5
    scaled = regime.two_line_split(_scatter(b * x, a * y))
    for s0, s1 in zip(base.slopes, scaled.slopes):
        assert s1 == pytest.approx(s0 * a / b, rel=1e-9)


def test_two_line_split_outlier_exclusion():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0, 2.0, 3.0, 4.0]
    ys = [3 * x for x in xs[:6]] + [x for x in xs[6:]]
    points = _scatter(xs, ys)
    split = regime.two_line_split(points, outlier_ids=("p0",))
    assert "p0" not in split.assignments
    assert split.outliers == ("p0",)


def test_three_line_split():
    xs = list(range(1, 7)) * 3
    ys = ([5 * x for x in xs[:6]] + [3 * x for x in xs[6:12]]
          + [1 * x for x in xs[12:]])
    split = regime.two_line_split(_scatter(xs, ys), k=3)
    assert len(split.slopes) == 3
    assert split.slopes[0] == pytest.approx(5.0, abs=1e-9)
    assert split.slopes[1] == pytest.approx(3.0, abs=1e-9)
    assert split.slopes[2] == pytest.approx(1.0, abs=1e-9)


def test_split_k_validation():
    points = _scatter([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(RegimeError):
        regime.two_line_split(points, k=4)


def test_loglog_power_fit_exact():
    x = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
    points = _scatter(x, 2 * x ** 3)
    c, beta, r2 = regime.loglog_power_fit(points)
    assert c == pytest.approx(2.0, rel=1e-9)
    assert beta == pytest.approx(3.0, rel=1e-12)
    assert r2 == pytest.approx(1.0)


def test_loglog_power_fit_noisy_single_decade():
    rng = np.random.default_rng(77)
    x = np.linspace(1.0, 10.0, 200)
    y = 0.5 * x ** 1.4 * np.exp(rng.normal(0, 0.05, 200))
    _, beta, _ = regime.loglog_power_fit(_scatter(x, y))
    assert beta == pytest.approx(1.4, rel=0.02)


def test_loglog_power_fit_x_scaling_leaves_exponent():
    rng = np.random.default_rng(13)
    x = rng.random(50) + 0.5
    y = 2.0 * x ** 0.9 * np.exp(rng.normal(0, 0.02, 50))
    _, beta0, _ = regime.loglog_power_fit(_scatter(x, y))
    _, beta1, _ = regime.loglog_power_fit(_scatter(7.0 * x, y))
    assert beta1 == pytest.approx(beta0, rel=1e-9)


def test_loglog_power_fit_rejects_nonpositive():
    with pytest.raises(RegimeError):
        regime.loglog_power_fit(_scatter([1.0, -2.0, 3.0], [1.0, 2.0, 3.0]))


def test_export_split_layout():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0] * 2
    ys = [3 * x for x in xs[:5]] + [x for x in xs[5:]]
    points = _scatter(xs, ys)
    split = regime.two_line_split(points)
    text = regime.export_split(points, split)
    lines = text.splitlines()
    assert lines[0] == "entity_id,x,y,class"
    assert any(l.startswith("# slopes:") for l in lines)
    assert any(l.startswith("# objective:") for l in lines)


def _arc_optimum(x, y, k):
    """The least objective over the splits of the points, taken in the circular
    order of their directions mod pi, into k arcs."""
    order = np.argsort(np.mod(np.arctan2(y, x), np.pi))
    xs, ys = x[order], y[order]
    best = np.inf
    for cuts in itertools.combinations(range(x.size), k):
        # an arc runs from one cut to the next; the last wraps round to the first
        labels = np.searchsorted(cuts, np.arange(x.size), side="right") % k
        objective = 0.0
        for c in range(k):
            cx, cy = xs[labels == c], ys[labels == c]
            a, b, d = cx @ cx, cx @ cy, cy @ cy
            objective += (a + d) / 2 - np.hypot((a - d) / 2, b)  # the smaller eigenvalue
        best = min(best, objective)
    return best


@pytest.mark.parametrize("k", [2, 3])
def test_the_split_objective_is_the_least_over_arc_splits(k):
    # criterion 10 bounds the objective by the one-line and two-line costs; this
    # checks the objective itself against the best split over arcs
    rng = np.random.default_rng(10 + k)
    for _ in range(40):
        n = int(rng.integers(k + 2, 11))
        # three lines need every direction within a right angle: one quadrant
        x, y = rng.random((2, n)) if k == 3 else rng.normal(size=(2, n))
        split = regime.two_line_split(_scatter(x, y), k=k)
        tolerance = 1e-9 * float(np.sum(x * x + y * y))
        assert split.objective == pytest.approx(_arc_optimum(x, y, k), abs=tolerance)


def _split_or_error(points, k, exclude):
    try:
        return regime.two_line_split(points, k=k, outlier_ids=exclude)
    except RegimeError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text("ab,", min_size=1, max_size=3),
                          *[st.sampled_from([-0.0, 0.0, 1e-5, 1.0, 2.0, 5.0, 1e16])] * 2),
                min_size=2, max_size=12, unique_by=lambda p: p[0]),
       st.sampled_from([2, 3]), st.data())
def test_scatter_sets_from_points_and_from_arrays_agree(points, k, data):
    exclude = tuple(data.draw(st.sets(st.sampled_from([p[0] for p in points]), max_size=2)))
    ids, x, y = zip(*points)
    tuples, arrays = ScatterSet.from_points(points), ScatterSet(ids, np.array(x), np.array(y))
    assert tuples == arrays
    assert tuples.points == arrays.points == tuple(points)
    assert _split_or_error(tuples, k, exclude) == _split_or_error(arrays, k, exclude)
    assert arrays != ScatterSet(ids, np.array(x) * 2 + 1, np.array(y))
