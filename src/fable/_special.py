"""The special functions fable computes with, and when scipy is loaded.

Importing a scipy submodule takes 0.16-0.25 s on top of numpy, more
than fable's own import, and most commands never need it. So no fable
module imports scipy at module level: ``import fable.cli`` loads none of
it, and each command pays only for what it computes with.

- ``erfc`` and ``ndtri`` are thin wrappers that import ``scipy.special``
  on their first call. The sampler and the rho solver use them on arrays.
- ``gammaincinv`` is the inverse-Gamma transform of the noise draws,
  built for the one shape a model uses: a cached table of quintic
  pieces of the quantile in the log of each tail, whose nodes scipy's
  ``gammainc``/``gammaincc`` refine once. A row costs a log, six
  gathers and a quintic.
- ``norm_ppf`` is the scalar normal quantile behind every interval's
  ``z``: ``statistics.NormalDist().inv_cdf``, within 8 ulp of the exact
  quantile, so no interval loads scipy.
- ``scipy.sparse`` is imported inside the one function that uses it.

scipy is used only where numpy and the standard library have no
equivalent: the array special functions here and ARPACK.
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # see coarse
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
    )
    # past a shape of about 1e30 _log_pdf cancels and exp overflows, so an
    # interval whose quintic is not finite stays scipy's as well
    coef += (off[lo] | off[hi] | ~np.isfinite(coef).all(axis=0),)
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


def norm_ppf(y: float) -> float:
    """Standard normal quantile, from the standard library.

    Defined on [0, 1], where 0 and 1 map to -inf and inf (the standard
    library refuses both). Callers pass ``1 - alpha / 2`` with alpha
    already checked to lie in (0, 1), and rely on the infinite ends: an
    interval whose ``z`` is infinite is refused as ``NonFinite``.
    ``statistics`` (which loads ``decimal`` and ``fractions``) is
    imported on the first call.
    """
    import statistics

    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    return statistics.NormalDist().inv_cdf(y)
