"""The normal quantile is within 8 ulp of the exact one; the
fixed-shape Gamma quantile is as close to the exact quantile as scipy's."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fable import _special
from fable._special import gammaincinv, norm_ppf

# floats in (0, 1); log-uniform ones, down to the subnormals; and the
# upper tail written as 1 - t, so that values within a few ulp of 1 are
# drawn too
open_unit = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-745.0, 0.0).map(math.exp),
    st.floats(0.0, 0.5, exclude_min=True).map(lambda t: 1.0 - t),
).filter(lambda y: 0.0 < y < 1.0)


def exact_normal_quantile(y: float):
    """Phi^-1(y) as a 200-bit root, by Newton steps on the lower tail
    from the float guess; above 1/2 it negates the root at 1 - y, which
    is exact there."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        t = mpmath.mpf(min(y, 1.0 - y))
        x = mpmath.mpf(float(scipy.special.ndtri(min(y, 1.0 - y))))
        for _ in range(20):
            dx = (mpmath.ncdf(x) - t) / mpmath.npdf(x)
            x -= dx
            if abs(dx) <= abs(x) * mpmath.mpf(2) ** -120:
                return -x if y > 0.5 else x
    raise AssertionError(f"no 200-bit root at y={y}")


def assert_within_8_ulp(y: float):
    exact = exact_normal_quantile(y)
    got = norm_ppf(y)
    ulps = float(abs(exact - got)) / math.ulp(float(exact))
    assert ulps <= 8.0, (y, got, ulps)


@settings(max_examples=2000, deadline=None)
@given(y=open_unit)
def test_within_8_ulp_of_exact(y):
    assert_within_8_ulp(y)


@pytest.mark.parametrize(
    "y",
    [
        2.0**-1074,
        2.0**-53,
        0.5,
        math.nextafter(0.5, 1.0),
        1.0 - 2.0**-53,
        # the switches of the standard library's rational pieces:
        # |y - 1/2| = 0.425, and sqrt(-log y) = 5 in either tail
        math.nextafter(0.075, 0.0),
        0.075,
        math.nextafter(0.925, 1.0),
        math.exp(-25.0),
        1.0 - math.exp(-25.0),
        *(1.0 - alpha / 2.0 for alpha in (0.001, 0.01, 0.05, 0.1, 0.5)),
        *(alpha / 2.0 for alpha in (1e-12, 1e-300)),
    ],
)
def test_pinned_points(y):
    assert_within_8_ulp(y)


def test_end_points():
    # the rho solve and the interval refusal rely on the infinite ends
    assert norm_ppf(0.0) == -math.inf
    assert norm_ppf(1.0) == math.inf


# 2^-53, 1e-10, 0.5 and their complements
EDGE_UNIFORMS = np.array([2.0**-53, 1e-10, 0.5, 1.0 - 2.0**-53, 1.0 - 1e-10])


def gate_rows(a: float, seed: int) -> np.ndarray:
    """1500 uniforms, 1500 uniforms evenly spread in ndtri(y) over
    [-6, 6] (which reach the table's tails: ndtr(-6) = 9.9e-10), and the
    edge uniforms."""
    rng = np.random.default_rng(seed)
    y = np.concatenate([
        rng.random(1500),
        scipy.special.ndtr(rng.uniform(-6.0, 6.0, 1500)),
        EDGE_UNIFORMS,
    ])
    return np.clip(y, 2.0**-53, 1.0 - 2.0**-53)


def exact_quantile(mpmath, a: float, y: float, x0: float):
    """The Gamma(a) quantile at y as a 200-bit root, by Newton steps from
    x0; above 1/2 it solves Q(a, x) = 1 - y."""
    a, y, x = mpmath.mpf(a), mpmath.mpf(y), mpmath.mpf(x0)
    log_gamma = mpmath.loggamma(a)
    for _ in range(10):
        if y <= 0.5:
            f = mpmath.gammainc(a, 0, x, regularized=True) - y
        else:
            f = (1 - y) - mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        dx = f / mpmath.exp((a - 1) * mpmath.log(x) - x - log_gamma)
        x -= dx
        if abs(dx) < x * mpmath.mpf(2) ** -120:
            return x
    raise AssertionError(f"no 200-bit root for a={a}, y={y}")


@pytest.mark.parametrize(
    "a",
    [2.5, 15.5, _special._MIN_SHAPE, 20.5, 22.5, 30.5, 60.5, 100.5, 150.5, 250.5, 500.5, 5000.5],
)
def test_gammaincinv_gate(a):
    """Per row, |x - x*| <= max(4 ulp(x*), |x_scipy - x*|), with x* the
    exact quantile. A row equal to scipy's meets it by definition, so
    only the others are solved."""
    mpmath = pytest.importorskip("mpmath")
    y = gate_rows(a, seed=20260)
    got = gammaincinv(a, y)
    ref = scipy.special.gammaincinv(a, y)
    differ = np.flatnonzero(got != ref)
    print(f"shape {a}: {1 - differ.size / y.size:.4f} of {y.size} rows equal scipy's")
    failed = []
    with mpmath.workprec(200):
        for j in differ:
            exact = exact_quantile(mpmath, a, float(y[j]), float(ref[j]))
            err = abs(mpmath.mpf(float(got[j])) - exact)
            bound = max(4 * math.ulp(float(exact)), abs(mpmath.mpf(float(ref[j])) - exact))
            if err > bound:
                failed.append((float(y[j]), float(err / math.ulp(float(exact)))))
    assert not failed, f"rows (y, error in ulp) off the gate: {failed[:10]}"


@pytest.mark.parametrize("a", [0.5, 2.5, 19.5, _special._MIN_SHAPE])
def test_gammaincinv_small_shapes_are_scipys(a):
    y = gate_rows(a, seed=7)
    assert gammaincinv(a, y).tobytes() == scipy.special.gammaincinv(a, y).tobytes()


@pytest.mark.parametrize("a", [20.5, 250.5, 500.5])
def test_gammaincinv_tail_rows_are_scipys(a):
    # within 1e-9 of 0 or 1, and (at 20.5) quantiles off a by over 0.4 a
    y = np.concatenate([
        EDGE_UNIFORMS,
        [2.0**-60, 1e-9 * 0.999, 1.0 - 1e-9 * 0.999, 0.0, 1.0],
        scipy.special.ndtr(np.linspace(-5.9, 5.9, 25)),
    ])
    got = gammaincinv(a, y)
    ref = scipy.special.gammaincinv(a, y)
    coarse = (np.abs(y - 0.5) > _special._TAIL) | (np.abs(got - a) > _special._WINDOW * a)
    assert coarse.sum() >= 8
    assert got[coarse].tobytes() == ref[coarse].tobytes()


def test_gammaincinv_rows_are_independent():
    # a row's value does not depend on the others, nor on the layout
    y = gate_rows(250.5, seed=11)
    full = gammaincinv(250.5, y)
    rows = np.array([17, 3, 3, 1600, 3004])
    assert gammaincinv(250.5, y[rows]).tobytes() == full[rows].tobytes()
    strided = np.stack([y, y], axis=1)[:, 0]
    assert gammaincinv(250.5, strided).tobytes() == full.tobytes()
