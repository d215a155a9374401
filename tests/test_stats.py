import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ranklaw import stats
from ranklaw.errors import StatsError


def test_describe_symmetric_series():
    s = stats.describe([1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert s.median == 2.0
    assert s.std_dev == pytest.approx(1.0)
    assert s.skewness == pytest.approx(0.0, abs=1e-12)


def test_describe_even_length_median():
    s = stats.describe([1.0, 2.0, 3.0, 10.0])
    assert s.median == 2.5


def test_describe_needs_two_values():
    with pytest.raises(StatsError):
        stats.describe([1.0])


def test_rms_identity():
    x = np.random.default_rng(3).lognormal(size=200)
    s = stats.describe(x)
    n = s.n
    assert s.rms ** 2 == pytest.approx(
        s.variance * (n - 1) / n + s.mean ** 2, rel=1e-9
    )


def test_std_err_exact():
    x = [1.0, 4.0, 2.0, 8.0]
    s = stats.describe(x)
    assert s.std_err == s.std_dev / math.sqrt(4)


def test_formula_helpers_match_reference_magnitudes():
    # formula-level check against the published 2011 summary column
    assert stats.nonparametric_skew(8.9204e7, 2.4601e7, 6.7115e8) == \
        pytest.approx(0.2889, abs=1e-3)
    assert stats.standard_error(6.7115e8, 8092) == pytest.approx(7.461e6, abs=1e3)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
@example([175674.0, -361988.44699984125, -545976.0, -734639.0, 653800.0, 813024.0])
def test_describe_permutation_invariant(values):
    rng = np.random.default_rng(0)
    shuffled = list(values)
    rng.shuffle(shuffled)
    a = stats.describe(values)
    b = stats.describe(shuffled)
    # the sum's rounding depends on the order: two sums of n terms differ by at most
    # 2 (n - 1) u sum |x| (Higham 2002, section 4.2), which cancellation does not shrink
    n = len(values)
    assert abs(a.mean - b.mean) <= 2 * (n - 1) * 2.0 ** -53 * math.fsum(map(abs, values)) / n
    assert a.median == b.median
    assert a.variance == pytest.approx(b.variance, rel=1e-9, abs=1e-12)


def test_affine_equivariance():
    rng = np.random.default_rng(11)
    x = rng.lognormal(size=500)
    a, b = -2.5, 7.0
    s0 = stats.describe(x)
    s1 = stats.describe(a * x + b)
    assert s1.mean == pytest.approx(a * s0.mean + b, rel=1e-9)
    assert s1.median == pytest.approx(a * s0.median + b, rel=1e-9)
    assert s1.std_dev == pytest.approx(abs(a) * s0.std_dev, rel=1e-9)
    assert s1.skewness == pytest.approx(math.copysign(1, a) * s0.skewness, rel=1e-6)
    assert s1.kurtosis == pytest.approx(s0.kurtosis, rel=1e-6)


def test_nonparam_and_moment_skew_agree_in_sign():
    rng = np.random.default_rng(5)
    x = rng.lognormal(mean=0.0, sigma=1.0, size=2000)
    s = stats.describe(x)
    assert s.skewness > 0
    assert s.nonparam_skew > 0


def test_format_summary_contains_both_kurtosis_conventions():
    text = stats.format_summary(stats.describe([1.0, 2.0, 3.0, 4.0]))
    assert "Kurtosis (excess)" in text
    assert "Kurtosis (non-excess)" in text


EDGES = [-0.0, 0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 1.7976931348623157e308, 5e-324]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False)),
                min_size=2, max_size=9))
def test_median_is_np_median_bit_for_bit(values):
    with np.errstate(all="ignore"):
        expected = np.median(np.array(values))
        median = stats.describe(values).median
    assert np.float64(median).tobytes() == expected.tobytes()


_finite = st.floats(-1e6, 1e6, allow_subnormal=False)


def _normal(value):
    return value == 0 or abs(value) >= np.finfo(float).tiny


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_finite, min_size=2, max_size=40), st.integers(-1100, 600))
def test_describe_of_a_power_of_two_multiple_scales_exactly(values, k):
    # k clipped so that 2^k times every value stays normal and the variance in range
    exps = [math.frexp(v)[1] for v in values if v != 0.0] or [0]
    k = min(max(k, -1021 - min(exps)), 500 - max(exps))
    s, t = stats.describe(values), stats.describe(np.ldexp(values, k))
    for field in ("min", "max", "sum", "mean", "median", "rms", "std_dev", "std_err",
                  "variance"):
        expected = math.ldexp(getattr(s, field), 2 * k if field == "variance" else k)
        if _normal(expected):  # a subnormal multiple is rounded
            assert getattr(t, field) == expected, field
    assert (t.skewness, t.kurtosis, t.kurtosis_pearson) == \
        (s.skewness, s.kurtosis, s.kurtosis_pearson)
    if all(_normal(math.ldexp(getattr(s, field), k)) for field in ("mean", "median", "std_dev")):
        assert (t.mu_over_sigma, t.nonparam_skew) == (s.mu_over_sigma, s.nonparam_skew)
