"""The special functions fable computes with, and when scipy is loaded.

Importing scipy takes about 0.4 s, more than fable's own import, and
most commands never need it. So no fable module imports scipy at module
level: ``import fable.cli`` loads none of it, and each command pays only
for what it computes with.

- ``erfc`` and ``ndtri`` are thin wrappers that import ``scipy.special``
  on their first call. The sampler and the rho solver use them on arrays.
- ``gammaincinv`` is the inverse-Gamma transform of the noise draws,
  built for the one shape a model uses: a cached table of quintic
  pieces of the quantile in the log of each tail, whose nodes scipy's
  ``gammainc``/``gammaincc`` refine once. A row costs a log, six
  gathers and a quintic.
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
# exact quantile. Shape sweeps against 200-bit mpmath roots set the
# bounds (README, "Sampling"):
# - shapes at or below _MIN_SHAPE stay scipy's;
# - scipy's gammainc, which refines the nodes, is coarse for quantiles
#   off a by more than _WINDOW * a, so intervals with such a node stay
#   scipy's;
# - rows within 1e-9 of 0 or 1 lie beyond the table.
_MIN_SHAPE = 20.0
_WINDOW = 0.4
_TAIL = 0.5 - 1e-9
# Table nodes, _STEPS to a unit of log y from log y = -_LOG_EDGE to just
# past log 1/2, in each tail: log y * _STEPS is exact, so is the split
# into an interval and the offset in it. log(1e-9) = -20.7.
_STEPS = 256
_LOG_EDGE = 21
_FIRST = -_LOG_EDGE * _STEPS
_INTERVALS = math.floor(math.log(0.5) * _STEPS) + 1 - _FIRST  # per tail


def _log_pdf(a: float, q: np.ndarray) -> np.ndarray:
    """Log density of Gamma(a, 1) at x = a + q, for a > _MIN_SHAPE.

    Written about a, with Stirling's series for the constant
    (a - 1) log a - a - log Gamma(a). Taken directly, that constant is a
    difference of terms of size a log a: at a = 5000.5 it was 3e-12 off,
    and the table's slopes moved one row in six by an ulp.
    """
    r = 1.0 / a
    series = r * (1 / 12 - r * r * (1 / 360 - r * r * (1 / 1260 - r * r / 1680)))
    return (a - 1.0) * np.log1p(q / a) - q - 0.5 * math.log(2.0 * math.pi * a) - series


@functools.lru_cache(maxsize=16)
def _quantile_table(a: float) -> tuple[np.ndarray, ...]:
    """Quintic coefficients of q = x - a on each table interval, for shape
    a, and which intervals stay scipy's.

    x(w) is the Gamma(a) quantile whose lower tail (the first _INTERVALS
    intervals) or upper tail (the rest) is exp(w). On interval i, q is
    c0 + s (c1 + s (c2 + s (c3 + s (c4 + s c5)))) with s in [0, 1]: the
    quintic Hermite interpolant of q, x' and x'' at the two nodes, where
    x' = +-exp(w) / pdf(x) and x'' = x' (1 - x' ((a - 1) / x - 1)).
    Each node starts at scipy's quantile and takes two Halley steps on
    scipy's ``gammainc`` (lower) or ``gammaincc`` (upper), then one more
    Newton step added to q rather than to x: within the window x - a is
    exact, and q holds the step to a finer ulp than x would. q is stored rather than x or
    q / sqrt(a): each rounding of it costs up to an ulp of x.
    """
    import scipy.special as sc

    w = np.arange(_FIRST, _FIRST + _INTERVALS + 1) / _STEPS
    tail = np.exp(np.concatenate((w, w)))
    upper = np.arange(tail.size) > w.size - 1
    x = np.concatenate((sc.gammaincinv(a, tail[~upper]), sc.gammainccinv(a, tail[upper])))

    def newton_step(x):  # residual / pdf, signed so that x - step is nearer
        p = np.where(upper, tail - sc.gammaincc(a, x), sc.gammainc(a, x) - tail)
        return p / np.exp(_log_pdf(a, x - a))

    for _ in range(2):
        step = newton_step(x)
        x -= step / (1.0 - 0.5 * step * ((a - 1.0) / x - 1.0))
    q = (x - a) - newton_step(x)
    x = a + q
    # h x' and h^2 x'' for the node spacing h = 1 / _STEPS, so s is in [0, 1]
    slope = np.where(upper, -tail, tail) / np.exp(_log_pdf(a, q)) / _STEPS
    bend = slope * (1.0 / _STEPS - slope * ((a - 1.0) / x - 1.0))
    off = np.abs(q) > _WINDOW * a
    # interval i runs from node i to node i + 1, within one tail
    lo = np.flatnonzero(np.arange(q.size - 1) != w.size - 1)
    hi = lo + 1
    f, d0, d1, e0, e1 = q[hi] - q[lo], slope[lo], slope[hi], bend[lo], bend[hi]
    coef = (
        q[lo],
        d0,
        0.5 * e0,
        10.0 * f - 6.0 * d0 - 4.0 * d1 - 0.5 * (3.0 * e0 - e1),
        -15.0 * f + 8.0 * d0 + 7.0 * d1 + 0.5 * (3.0 * e0 - 2.0 * e1),
        6.0 * f - 3.0 * d0 - 3.0 * d1 - 0.5 * (e0 - e1),
        off[lo] | off[hi],
    )
    for c in coef:
        c.setflags(write=False)
    return coef


def gammaincinv(a, y):
    """Quantile of the Gamma(a, 1) distribution at each y of a 1-D array
    with values in [0, 1].

    Within max(4 ulp, scipy's own error) of the exact quantile on every
    row tested, and bit-identical to ``scipy.special.gammaincinv`` on
    most. ``a`` is one shape. Each row takes the log of its tail,
    ``y`` or ``1 - y`` (exact above 1/2), an index into the cached table
    of :func:`_quantile_table`, six gathers, one Horner polynomial and
    ``a + q``. Rows within 1e-9 of 0 or 1, rows in an interval with a
    node off ``a`` by more than ``_WINDOW * a``, and every row of a shape
    at or below ``_MIN_SHAPE`` are scipy's. Every step is elementwise, so
    a row's value does not depend on the other rows.
    """
    import scipy.special as sc

    a = float(a)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if not a > _MIN_SHAPE:
        return sc.gammaincinv(a, y)
    *coef, coarse = _quantile_table(a)
    upper = y > 0.5
    with np.errstate(divide="ignore", invalid="ignore"):  # y = 0 or 1 is scipy's
        t = np.log(np.where(upper, 1.0 - y, y))
    t *= _STEPS
    np.fmax(t, _FIRST, out=t)
    node = np.floor(t)
    s = t - node
    i = node.astype(np.intp)
    i += upper * _INTERVALS - _FIRST
    q = coef[5][i]
    for c in coef[4::-1]:
        q *= s
        q += c[i]
    x = q + a
    # NaN rows fail the comparison and go to scipy too
    scipys = np.flatnonzero(~(np.abs(y - 0.5) <= _TAIL) | coarse[i])
    x[scipys] = sc.gammaincinv(a, y[scipys])
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
