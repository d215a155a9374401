import math

import numpy as np
import pytest

from ranklaw.errors import FitError, RegimeError, scaled_back


@pytest.mark.parametrize("value, power", [
    (0.75, 1024),                      # binary exponents 0 + 1024: 1.5 * 2^1023
    (math.nextafter(1.0, 0.0), 1024),  # the largest double
    (1.0, 1023),                       # 1 = 0.5 * 2^1, so 1 + 1023
    (-0.75, 1024),
    (-3.0, -7),
    (0.0, 2048),                       # zero has no exponent to pass the range with
    (-0.0, 2048),
    (5.0, 0),
])
def test_a_product_up_to_the_largest_double_comes_back_exact(value, power):
    got = scaled_back(value, power, "sum", FitError)
    assert got == math.ldexp(value, power)
    assert math.copysign(1.0, got) == math.copysign(1.0, value)
    assert type(got) is float


@pytest.mark.parametrize("value, power", [
    (1.0, 1024),                       # exponents 1 + 1024
    (0.5, 1025),
    (-1.0, 1024),
    (np.finfo(float).max, 1),
    (math.inf, 0),
    (-math.inf, -5000),
    (math.nan, 0),
])
def test_a_product_past_the_float_range_is_refused_by_name(value, power):
    with pytest.raises(RegimeError, match="^the inertia-axis slope is past the float range$"):
        scaled_back(value, power, "inertia-axis slope", RegimeError)


@pytest.mark.parametrize("value, power", [
    (1.0, -1074),                      # the smallest subnormal
    (1.5, -1074),                      # half-way: rounds to even, 2^-1073
    (np.finfo(float).tiny, -1),
    (-1.0, -1080),                     # rounds to -0
    (0.75, -3000),
])
def test_a_product_below_the_normal_range_is_rounded_not_refused(value, power):
    got = scaled_back(value, power, "sum", FitError)
    assert got == math.ldexp(value, power)
    assert math.copysign(1.0, got) == math.copysign(1.0, value)
    assert abs(got) < np.finfo(float).tiny
