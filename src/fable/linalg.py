"""Dense linear algebra used by the rest of the package.

Centering, truncated SVD with a fixed sign convention (exact, through the
eigenvalues and top eigenvectors of the smaller Gram matrix), a
matrix-free spectral norm, and the Gaussian log-likelihood for a
low-rank-plus-diagonal covariance evaluated without ever forming the
p x p matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidOption,
    NonFinite,
    NonPositiveDiag,
    RankOutOfRange,
    TooFewRows,
)

__all__ = [
    "DataMatrix",
    "TruncatedSvd",
    "StructuredCovariance",
    "LinearMap",
    "center_columns",
    "truncated_svd",
    "spectral_norm",
    "gaussian_loglik",
    "covariance_difference",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

# truncated_svd falls back to LAPACK when s_k^2 / s_1^2 is below this ratio.
# The Gram matrix squares the condition number: its eigenvalues carry an
# absolute error of order eps * s_1^2, so singular values under about
# sqrt(eps) * s_1 are lost, and the vectors formed by dividing by s_i lose
# orthogonality by about eps * (s_1 / s_i)^2, which at this ratio is still
# about 2e-10 (TruncatedSvd rejects 1e-8).
_GRAM_MIN_RATIO = 1e-6

# How truncated_svd decomposed its input: the Gram matrix's tridiagonal
# reduction, numpy's eigh of it, or LAPACK's SVD of the input.
SVD_ROUTES = ("tridiagonal", "eigh", "svd")

# spectral_norm's cap on ARPACK restarts.
_LANCZOS_MAX_ITER = 10000


def _abs_max(arr: np.ndarray) -> float:
    """max |x| over ``arr`` (0 when it is empty), or inf when it holds a
    NaN or an infinity. Two reductions, and no temporary of arr's size."""
    hi, lo = float(arr.max(initial=0.0)), float(arr.min(initial=0.0))
    return max(hi, -lo) if math.isfinite(hi) and math.isfinite(lo) else math.inf


def _as_float_matrix(raw: np.ndarray, name: str = "input") -> np.ndarray:
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got ndim={arr.ndim}")
    if not math.isfinite(_abs_max(arr)):
        raise NonFinite(f"{name} contains NaN or infinite entries")
    return arr


def _frozen(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    """A read-only row-major copy: every array a fable object holds has
    one layout, so reductions over it round the same way wherever it
    came from."""
    out = np.array(arr, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DataMatrix:
    """An n x p matrix of centered data, rows are observations, with the
    column means that were subtracted from it: build one with
    :func:`center_columns`. It has 2 rows or more and 1 column or more,
    is finite, and its column means are zero to 1e-8 of max(1, max |x|).

    ``values`` is read-only. The constructor copies the array it is
    given, so later writes to the caller's array do not reach it. An
    array that fable has just centered is adopted as it is, without a
    copy, by ``_adopt``.
    """

    values: np.ndarray
    column_means: np.ndarray

    def __post_init__(self) -> None:
        self._store(np.array(self.values, dtype=np.float64))

    @classmethod
    def _adopt(cls, values: np.ndarray, column_means: np.ndarray) -> DataMatrix:
        """Wrap a float64 array that the caller has just made and holds no
        other reference to, without copying it; the checks are the constructor's."""
        dm = object.__new__(cls)
        object.__setattr__(dm, "column_means", column_means)
        dm._store(values)
        return dm

    def _store(self, vals: np.ndarray) -> None:
        """Check ``vals`` and the means, and keep both, made read-only."""
        if vals.ndim != 2:
            raise DimensionMismatch(f"data matrix must be 2-d, got ndim={vals.ndim}")
        n, p = vals.shape
        if n < 2:
            raise TooFewRows(f"centered data needs at least 2 rows, got {n}")
        if p < 1:
            raise DimensionMismatch("data matrix has no columns")
        scale = _abs_max(vals)
        if not math.isfinite(scale):
            raise NonFinite("data matrix contains NaN or infinite entries")
        means = np.asarray(self.column_means, dtype=np.float64)
        if means.shape != (p,):
            raise DimensionMismatch(f"column_means shape {means.shape} does not match p={p}")
        if not np.isfinite(means).all():
            raise NonFinite("column_means contains NaN or infinite entries")
        resid = float(np.abs(vals.mean(axis=0)).max())
        if resid > 1e-8 * max(1.0, scale):
            raise InvalidOption(f"values are not centered: max |column mean| = {resid:.3e}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "column_means", _frozen(means))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TruncatedSvd:
    """Rank-k factors of a matrix plus the singular value spectrum.

    ``spectrum`` holds all min(n, p) singular values; ``singvals`` is its
    first k entries. ``route`` names the decomposition that produced
    them, one of :data:`SVD_ROUTES` (see :func:`truncated_svd`).
    """

    u: np.ndarray
    singvals: np.ndarray
    v: np.ndarray
    spectrum: np.ndarray
    k: int
    route: str

    def __post_init__(self) -> None:
        if self.route not in SVD_ROUTES:
            raise InvalidOption(f"route must be one of {SVD_ROUTES}, got {self.route!r}")
        u = _as_float_matrix(self.u, "u")
        v = _as_float_matrix(self.v, "v")
        s = np.asarray(self.singvals, dtype=np.float64)
        spec = np.asarray(self.spectrum, dtype=np.float64)
        k = int(self.k)
        if u.shape[1] != k or v.shape[1] != k or s.shape != (k,):
            raise DimensionMismatch("factor widths must all equal k")
        if spec.ndim != 1 or spec.shape[0] < k:
            raise DimensionMismatch("spectrum must hold at least k values")
        if np.any(s < 0) or np.any(np.diff(spec) > 1e-12 * max(1.0, spec[0])):
            raise InvalidOption("singular values must be nonnegative and non-increasing")
        for mat, nm in ((u, "u"), (v, "v")):
            gram = mat.T @ mat
            if np.abs(gram - np.eye(k)).max() > 1e-8:
                raise InvalidOption(f"columns of {nm} are not orthonormal")
        object.__setattr__(self, "u", _frozen(u))
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "singvals", _frozen(s))
        object.__setattr__(self, "spectrum", _frozen(spec))
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class StructuredCovariance:
    """Covariance of the form loadings @ loadings.T + diag(diag).

    Stored in factored form; ``dense`` exists for small-p diagnostics and
    tests, everything at scale should go through ``matvec``.
    """

    loadings: np.ndarray
    diag: np.ndarray

    def __post_init__(self) -> None:
        g = _as_float_matrix(self.loadings, "loadings")
        d = np.asarray(self.diag, dtype=np.float64)
        if d.ndim != 1 or d.shape[0] != g.shape[0]:
            raise DimensionMismatch(
                f"diag shape {d.shape} does not match loadings rows {g.shape[0]}"
            )
        if not np.isfinite(d).all():
            raise NonFinite("diag contains NaN or infinite entries")
        if np.any(d <= 0):
            raise NonPositiveDiag("diagonal entries must be strictly positive")
        object.__setattr__(self, "loadings", _frozen(g))
        object.__setattr__(self, "diag", _frozen(d))

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def k(self) -> int:
        return self.loadings.shape[1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.loadings @ (self.loadings.T @ x) + self.diag * x


@dataclass(frozen=True)
class LinearMap:
    """Matrix-free linear operator: just a shape and matvec callables.

    ``rmatvec`` defaults to ``matvec`` for symmetric operators.
    """

    shape: tuple[int, int]
    matvec: Callable[[np.ndarray], np.ndarray]
    rmatvec: Callable[[np.ndarray], np.ndarray] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.rmatvec is None:
            if self.shape[0] != self.shape[1]:
                raise DimensionMismatch("rmatvec required for non-square maps")
            object.__setattr__(self, "rmatvec", self.matvec)


MatrixLike = Union[np.ndarray, LinearMap]


def center_columns(raw: np.ndarray) -> DataMatrix:
    """Subtract column means and return the centered matrix.

    ``raw`` is left as it was: the centered values are one new row-major
    array, which the returned :class:`DataMatrix` holds without a further
    copy. The means are taken from a row-major view of the values (a
    copy only when ``raw`` is in another layout), so the same values give
    the same bits whatever ``raw``'s memory layout.
    Columns that are constant become identically zero; that is allowed
    but flagged with a warning because later noise-variance estimates
    will reject them.
    """
    vals = np.ascontiguousarray(_as_float_matrix(raw, "data matrix"))
    if vals.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows to center, got {vals.shape[0]}")
    means = vals.mean(axis=0)
    centered = vals - means
    dead = np.flatnonzero((centered.max(axis=0) == 0.0) & (centered.min(axis=0) == 0.0))
    if dead.size:
        warnings.warn(
            f"{dead.size} constant column(s) became identically zero after "
            f"centering (first index {dead[0]})",
            RuntimeWarning,
            stacklevel=2,
        )
    return DataMatrix._adopt(centered, means)


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Convention: the largest-magnitude entry of each right vector is
    # made positive (first index wins ties) so factors are reproducible
    # across LAPACK builds.
    u = u.copy()
    v = v.copy()
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
            u[:, j] = -u[:, j]
    return u, v


def _values_of(data: DataMatrix | np.ndarray) -> np.ndarray:
    if isinstance(data, DataMatrix):
        return data.values
    return _as_float_matrix(data, "data matrix")


def _checked_rank(k, shape: tuple[int, int]) -> int:
    limit = min(shape)
    if not isinstance(k, (int, np.integer)) or not 1 <= int(k) <= limit:
        raise RankOutOfRange(f"k={k} outside [1, {limit}] for shape {shape}")
    return int(k)


def _root(evals: np.ndarray) -> np.ndarray:
    """Singular values from Gram eigenvalues, clipped at zero."""
    return np.sqrt(np.clip(evals, 0.0, None))


def _resolves(evals: np.ndarray, rank: int) -> bool:
    """Whether the Gram eigenvalues ``evals`` (largest first) resolve the
    top ``rank`` singular vectors; see ``_GRAM_MIN_RATIO``."""
    return evals[0] > 0.0 and evals[rank - 1] >= _GRAM_MIN_RATIO * evals[0]


def truncated_svd(
    data: DataMatrix | np.ndarray,
    k: int | Callable[[np.ndarray], int],
) -> TruncatedSvd:
    """Top-k singular triplets and the whole spectrum, exactly.

    Decomposes the smaller Gram matrix, X X' when n <= p and X' X
    otherwise. The spectrum is the square root of all its eigenvalues
    clipped at zero, so all min(n, p) singular values are returned; the
    top-k vectors on the other side come from one product with X. ``k``
    is the rank, or a function that picks it from the spectrum.

    Only k eigenvectors are formed (route "tridiagonal"): one tridiagonal
    reduction of the Gram matrix gives every eigenvalue and, by bisection
    and inverse iteration, the top k vectors, through the LAPACK numpy
    ships (:mod:`fable._lapack`). When that library or a routine is
    missing, or LAPACK reports a failure (a top vector that did not
    converge, a count other than k), numpy's ``eigh`` of the Gram matrix
    is taken instead (route "eigh").

    Forming the Gram matrix squares the condition number. When
    s_k^2 < 1e-6 * s_1^2 (a k-th singular value heading for the
    sqrt(eps) * s_1 floor the Gram matrix can resolve, a rank below k, or
    the zero matrix) the retained vectors would be unreliable, and the
    decomposition is redone by LAPACK's SVD (route "svd"). Whichever the
    route, the signs follow :func:`_fix_signs`.
    """
    from . import _lapack

    vals = _values_of(data)
    n, p = vals.shape

    def rank_of(spectrum: np.ndarray) -> int:
        return _checked_rank(k(spectrum) if callable(k) else k, vals.shape)

    if not callable(k):
        _checked_rank(k, vals.shape)
    elif not min(n, p):  # before LAPACK, which prints its complaint to stdout
        raise RankOutOfRange(f"no rank in [1, 0] for shape {vals.shape}")
    rows_side = n <= p

    def gram() -> np.ndarray:
        return vals @ vals.T if rows_side else vals.T @ vals

    route, top = "tridiagonal", None
    # bisection and inverse iteration lose the top vectors once the Gram
    # entries fall below about 2^-505, so they work at unit scale: an exact
    # power of two puts the largest entry, on the diagonal, in [0.5, 1)
    scaled = gram()
    exponent = int(np.frexp(scaled.diagonal().max())[1])
    reduced = _lapack.tridiagonalize(np.ldexp(scaled, -exponent, out=scaled))
    evals = None if reduced is None else reduced.eigenvalues()
    if evals is not None:
        evals = np.ldexp(evals, exponent)
        spectrum = _root(evals)
        rank = rank_of(spectrum)
        if _resolves(evals, rank):
            top = reduced.top_vectors(rank)
        else:
            route = "svd"
    if route == "tridiagonal" and top is None:
        route = "eigh"
        evals, evecs = np.linalg.eigh(gram())
        evals, evecs = evals[::-1], evecs[:, ::-1]
        spectrum = _root(evals)
        rank = rank_of(spectrum)
        top = evecs[:, :rank]
        if not _resolves(evals, rank):
            route = "svd"

    if route == "svd":
        u_full, spectrum, vt_full = np.linalg.svd(vals, full_matrices=False)
        rank = rank_of(spectrum)
        u, v = _fix_signs(u_full[:, :rank], vt_full[:rank].T)
        return TruncatedSvd(
            u=u, singvals=spectrum[:rank], v=v, spectrum=spectrum, k=rank, route=route
        )

    s = spectrum[:rank]
    if rows_side:
        u, v = top, (vals.T @ top) / s
    else:
        u, v = (vals @ top) / s, top
    u, v = _fix_signs(u, v)
    return TruncatedSvd(u=u, singvals=s, v=v, spectrum=spectrum, k=rank, route=route)


def spectral_norm(a: MatrixLike, *, tol: float = 1e-8) -> float:
    """Largest singular value by Lanczos (ARPACK ``eigsh``) on A.T @ A.

    Accepts a dense array or a :class:`LinearMap`; the latter keeps the
    computation matrix-free for structured operators. ``tol`` is ARPACK's
    relative accuracy for the top eigenvalue of A.T A; the starting
    vector is the same fixed normal draw on every call. Unlike power
    iteration, Lanczos converges when the two largest singular values
    nearly tie. Raises :class:`ConvergenceFailure` when ARPACK fails.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    exponent = 0
    if not isinstance(a, LinearMap):
        arr = _as_float_matrix(a, "operand")
        # an exact power-of-two rescaling keeps A.T A clear of underflow
        exponent = int(np.frexp(np.abs(arr).max(initial=0.0))[1])
        arr = np.ldexp(arr, -exponent)
        a = LinearMap(shape=arr.shape, matvec=arr.__matmul__, rmatvec=arr.T.__matmul__)
    n = a.shape[1]
    if n <= 1:  # ARPACK needs n >= 2; A is then its one column (or none)
        return float(np.ldexp(np.linalg.norm(a.matvec(np.ones(n))), exponent))
    gram = LinearOperator((n, n), matvec=lambda x: a.rmatvec(a.matvec(x)), dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        top = eigsh(
            gram, k=1, which="LA", v0=v0, tol=tol, maxiter=_LANCZOS_MAX_ITER,
            return_eigenvectors=False,
        )
    except ArpackError as exc:
        if not gram.matvec(v0).any():
            # the starting vector lies in the null space of A.T A: the
            # operator is zero on the relevant subspace
            return 0.0
        raise ConvergenceFailure(
            f"Lanczos did not meet tol={tol} within {_LANCZOS_MAX_ITER} restarts ({exc})"
        ) from exc
    return float(np.ldexp(np.sqrt(max(float(top[0]), 0.0)), exponent))


def gaussian_loglik(data: DataMatrix | np.ndarray, cov: StructuredCovariance) -> float:
    """Log-density of mean-zero Gaussian rows under a factored covariance.

    Uses the matrix inversion and determinant lemmas so the cost is
    O(n p k + k^3) and the p x p covariance is never formed. ``data``
    rows are treated as independent draws; pass centered values.
    """
    vals = _values_of(data)
    n, p = vals.shape
    if p != cov.p:
        raise DimensionMismatch(f"data has p={p} but covariance has p={cov.p}")
    delta = cov.diag
    g = cov.loadings
    quad_diag = ((vals * vals) / delta).sum(axis=1)
    logdet = float(np.log(delta).sum())
    if cov.k:
        gd = g / delta[:, None]
        cap = np.eye(cov.k) + g.T @ gd
        chol = np.linalg.cholesky(cap)
        w = np.linalg.solve(chol, (vals @ gd).T)
        quad = quad_diag - (w * w).sum(axis=0)
        logdet += 2.0 * float(np.log(np.diag(chol)).sum())
    else:
        quad = quad_diag
    return float(-0.5 * (n * p * _LOG_2PI + n * logdet + quad.sum()))


def covariance_difference(a: StructuredCovariance, b: StructuredCovariance) -> LinearMap:
    """The symmetric operator a - b without forming either matrix."""
    if a.p != b.p:
        raise DimensionMismatch(f"operands have p={a.p} and p={b.p}")

    def matvec(x: np.ndarray) -> np.ndarray:
        return a.matvec(x) - b.matvec(x)

    return LinearMap(shape=(a.p, a.p), matvec=matvec)
