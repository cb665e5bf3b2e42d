"""The special functions fable computes with, and when scipy is loaded.

Importing scipy takes about 0.4 s, more than fable's own import, and
most commands never need it. So no fable module imports scipy at module
level: ``import fable.cli`` loads none of it, and each command pays only
for what it computes with.

- ``erfc`` and ``ndtri`` are thin wrappers that import ``scipy.special``
  on their first call. The sampler and the rho solver use them on arrays.
- ``gammaincinv`` is the inverse-Gamma transform of the noise draws,
  built for the one shape a model uses: a cached table of the log
  quantile in ``z = ndtri(y)`` and one Halley step on scipy's
  ``gammainc``/``gammaincc``.
- ``norm_ppf`` is the scalar normal quantile behind every interval's
  ``z``. It is cephes ``ndtri``, the algorithm ``scipy.special.ndtri``
  runs, ported line for line, so it returns the same float without
  loading scipy.
- ``scipy.linalg`` and ``scipy.sparse`` are imported inside the one
  function that uses each.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def erfc(x, out=None):
    """``scipy.special.erfc``, imported on the first call."""
    from scipy.special import erfc

    return erfc(x, out=out)


def ndtri(y):
    """``scipy.special.ndtri``, imported on the first call."""
    from scipy.special import ndtri

    return ndtri(y)


# The gate, per row: |x - x*| <= max(4 ulp(x*), |x_scipy - x*|), x* the
# exact quantile. Rows where scipy's gammainc or gammaincc, and so the
# Halley step, is coarse keep scipy's gammaincinv. Shape sweeps against
# 200-bit mpmath roots set the bounds (README, "Sampling"):
# - at shapes at or below _MIN_SHAPE some rows missed the gate;
# - rows whose quantile is off a by more than _WINDOW * a missed it at
#   shapes 100-250, where scipy's residual is 1e-13 off;
# - rows within 1e-9 of 0 or 1 lie beyond the table.
_MIN_SHAPE = 20.0
_WINDOW = 0.4
_TAIL = 0.5 - 1e-9
# Table nodes, uniform in z = ndtri(y) on [-_Z_EDGE, _Z_EDGE]; the table
# covers ndtri(1e-9) = -5.998.
_NODES = 1024
_Z_EDGE = 6.0


@functools.lru_cache(maxsize=16)
def _log_quantile_table(a: float) -> tuple[np.ndarray, ...]:
    """Cubic coefficients of log x(z) on each table interval, for shape a.

    x(z) is the Gamma(a) quantile at ``ndtr(z)``. On interval i the log
    quantile is c0 + s (c1 + s (c2 + s c3)) with s in [0, 1]: the cubic
    Hermite interpolant of log x and its derivative
    d log x / dz = phi(z) / (x pdf(x)) at the two nodes.
    """
    import scipy.special as sc

    z = np.linspace(-_Z_EDGE, _Z_EDGE, _NODES)
    x = np.where(
        z <= 0.0, sc.gammaincinv(a, sc.ndtr(z)), sc.gammainccinv(a, sc.ndtr(-z))
    )
    f = np.log(x)
    h = z[1] - z[0]
    d = h * np.exp(x - a * f + sc.gammaln(a) - 0.5 * z * z - 0.5 * math.log(2 * math.pi))
    f0, f1, d0, d1 = f[:-1], f[1:], d[:-1], d[1:]
    coef = (f0, d0, 3.0 * (f1 - f0) - 2.0 * d0 - d1, 2.0 * (f0 - f1) + d0 + d1)
    for c in coef:
        c.setflags(write=False)
    return coef


def gammaincinv(a, y):
    """Quantile of the Gamma(a, 1) distribution at each y of a 1-D array
    with values in [0, 1].

    Within max(4 ulp, scipy's own error) of the exact quantile on every
    row tested, and bit-identical to ``scipy.special.gammaincinv`` on
    most. ``a`` is one shape. Each row goes through ``ndtri``, a cubic
    in the cached table of :func:`_log_quantile_table`, ``exp`` and one
    Halley step on ``gammainc(a, x) - y`` (``y <= 1/2``) or
    ``(1 - y) - gammaincc(a, x)`` (above, where ``1 - y`` is exact).
    Rows within 1e-9 of 0 or 1, rows whose quantile is off ``a`` by more
    than ``_WINDOW * a``, and every row of a shape at or below
    ``_MIN_SHAPE`` are scipy's. Every step is elementwise, so a row's
    value does not depend on the other rows.
    """
    import scipy.special as sc

    a = float(a)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if not a > _MIN_SHAPE:
        return sc.gammaincinv(a, y)
    c0, c1, c2, c3 = _log_quantile_table(a)
    t = sc.ndtri(y)
    t += _Z_EDGE
    t *= (_NODES - 1) / (2.0 * _Z_EDGE)
    np.clip(t, 0.0, _NODES - 1.0, out=t)  # rows beyond are scipy's, below
    i = np.minimum(t.astype(np.intp), _NODES - 2)
    s = t - i
    log_x = c0[i] + s * (c1[i] + s * (c2[i] + s * c3[i]))
    x = np.exp(log_x)

    # scipy's ufuncs are called on gathered rows: with ``where=`` they
    # corrupt the heap (scipy 1.17)
    lo = np.flatnonzero(y <= 0.5)
    hi = np.flatnonzero(y > 0.5)
    resid = np.empty_like(x)
    resid[lo] = sc.gammainc(a, x[lo]) - y[lo]
    resid[hi] = (1.0 - y[hi]) - sc.gammaincc(a, x[hi])
    # Halley: f = P(a, x) - y, f' = pdf(x), f'' / f' = (a - 1) / x - 1
    step = resid / np.exp((a - 1.0) * log_x - x - sc.gammaln(a))
    x -= step / (1.0 - 0.5 * step * ((a - 1.0) / x - 1.0))
    coarse = np.flatnonzero((np.abs(y - 0.5) > _TAIL) | (np.abs(x - a) > _WINDOW * a))
    x[coarse] = sc.gammaincinv(a, y[coarse])
    return x


# Coefficients of cephes ndtri, in its Horner order (highest power first).
# |y - 1/2| <= 3/8:
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (  # leading coefficient 1 implied
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# sqrt(-2 log y) in [2, 8), that is y in (exp(-32), exp(-2)]:
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# sqrt(-2 log y) in [8, 64):
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def norm_ppf(y0: float) -> float:
    """Standard normal quantile, equal bit for bit to ``scipy.special.ndtri``.

    Defined on [0, 1], where 0 and 1 map to -inf and inf. Callers pass
    ``1 - alpha / 2`` with alpha already checked to lie in (0, 1).
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x
