"""The scipy-free normal quantile is scipy's own, bit for bit."""

import math

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fable._special import norm_ppf

EXP_M2 = math.exp(-2.0)

# floats in (0, 1); log-uniform ones, which reach the tail series below
# exp(-32); and the upper tail written as 1 - t, so that values within a
# few ulp of 1 are drawn too
open_unit = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-745.0, 0.0).map(math.exp),
    st.floats(0.0, 0.5, exclude_min=True).map(lambda t: 1.0 - t),
).filter(lambda y: 0.0 < y < 1.0)


def same_float(a: float, b: float) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


@settings(max_examples=2000, deadline=None)
@given(y=open_unit)
def test_equals_scipy_ndtri(y):
    assert same_float(norm_ppf(y), float(scipy.special.ndtri(y)))


@pytest.mark.parametrize(
    "y",
    [
        2.0**-1074,
        2.0**-53,
        0.5,
        1.0 - 2.0**-53,
        math.nextafter(EXP_M2, 0.0),
        EXP_M2,
        math.nextafter(EXP_M2, 1.0),
        math.nextafter(1.0 - EXP_M2, 0.0),
        1.0 - EXP_M2,
        math.nextafter(1.0 - EXP_M2, 1.0),
        math.exp(-32.0),  # sqrt(-2 log y) = 8, the switch of tail series
        *(1.0 - alpha / 2.0 for alpha in (0.001, 0.01, 0.05, 0.1, 0.5)),
    ],
)
def test_pinned_points(y):
    assert same_float(norm_ppf(y), float(scipy.special.ndtri(y)))


def test_end_points():
    assert norm_ppf(0.0) == float(scipy.special.ndtri(0.0)) == -math.inf
    assert norm_ppf(1.0) == float(scipy.special.ndtri(1.0)) == math.inf
