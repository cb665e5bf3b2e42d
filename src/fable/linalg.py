"""Dense linear algebra used by the rest of the package.

Centering, truncated SVD with a fixed sign convention (exact, through the
eigendecomposition of the smaller Gram matrix), a matrix-free spectral
norm, and the Gaussian log-likelihood for a low-rank-plus-diagonal
covariance evaluated without ever forming the p x p matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
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


def _as_float_matrix(raw: np.ndarray, name: str = "input") -> np.ndarray:
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise NonFinite(f"{name} contains NaN or infinite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DataMatrix:
    """An n x p data matrix, rows are observations.

    ``centered`` records whether column means have already been removed;
    when it is set, ``column_means`` holds the means that were subtracted
    so downstream artifacts can report them.
    """

    values: np.ndarray
    centered: bool = False
    column_means: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = _as_float_matrix(self.values, "data matrix")
        if vals.shape[0] < 2:
            raise TooFewRows(f"need at least 2 rows, got {vals.shape[0]}")
        object.__setattr__(self, "values", _frozen(vals))
        if self.centered:
            if self.column_means is None:
                raise DimensionMismatch("centered data must carry column_means")
            means = np.asarray(self.column_means, dtype=np.float64)
            if means.shape != (vals.shape[1],):
                raise DimensionMismatch(
                    f"column_means shape {means.shape} does not match p={vals.shape[1]}"
                )
            if not np.isfinite(means).all():
                raise NonFinite("column_means contains NaN or infinite entries")
            scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
            resid = np.abs(vals.mean(axis=0)).max(initial=0.0)
            if resid > 1e-8 * scale:
                raise ValueError(
                    f"claimed centered but max |column mean| = {resid:.3e}"
                )
            object.__setattr__(self, "column_means", _frozen(means))
        elif self.column_means is not None:
            raise DimensionMismatch("column_means only makes sense with centered=True")

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
    first k entries.
    """

    u: np.ndarray
    singvals: np.ndarray
    v: np.ndarray
    spectrum: np.ndarray
    k: int

    def __post_init__(self) -> None:
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
            raise ValueError("singular values must be nonnegative and non-increasing")
        for mat, nm in ((u, "u"), (v, "v")):
            gram = mat.T @ mat
            if np.abs(gram - np.eye(k)).max() > 1e-8:
                raise ValueError(f"columns of {nm} are not orthonormal")
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

    def dense(self) -> np.ndarray:
        return self.loadings @ self.loadings.T + np.diag(self.diag)


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

    Columns that are constant become identically zero; that is allowed
    but flagged with a warning because later noise-variance estimates
    will reject them.
    """
    vals = _as_float_matrix(raw, "data matrix")
    if vals.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows to center, got {vals.shape[0]}")
    means = vals.mean(axis=0)
    centered = vals - means
    dead = np.flatnonzero(np.abs(centered).max(axis=0) == 0.0)
    if dead.size:
        warnings.warn(
            f"{dead.size} constant column(s) became identically zero after "
            f"centering (first index {dead[0]})",
            RuntimeWarning,
            stacklevel=2,
        )
    return DataMatrix(values=centered, centered=True, column_means=means)


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


def truncated_svd(
    data: DataMatrix | np.ndarray,
    k: int | Callable[[np.ndarray], int],
) -> TruncatedSvd:
    """Top-k singular triplets and the whole spectrum, exactly.

    Takes ``eigh`` of the smaller Gram matrix, X X' when n <= p and X' X
    otherwise. The spectrum is the square root of its eigenvalues clipped
    at zero, so all min(n, p) singular values are returned; the top-k
    vectors on the other side come from one product with X. ``k`` is the
    rank, or a function that picks it from the spectrum.

    Forming the Gram matrix squares the condition number. When
    s_k^2 < 1e-6 * s_1^2 (a k-th singular value heading for the
    sqrt(eps) * s_1 floor the Gram matrix can resolve, a rank below k, or
    the zero matrix) the retained vectors would be unreliable, and the
    decomposition is redone by LAPACK's SVD. Either way the signs follow
    :func:`_fix_signs`.
    """
    vals = _values_of(data)
    n, p = vals.shape

    def rank_of(spectrum: np.ndarray) -> int:
        return _checked_rank(k(spectrum) if callable(k) else k, vals.shape)

    if not callable(k):
        _checked_rank(k, vals.shape)
    rows_side = n <= p
    evals, evecs = np.linalg.eigh(vals @ vals.T if rows_side else vals.T @ vals)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    spectrum = np.sqrt(np.clip(evals, 0.0, None))
    rank = rank_of(spectrum)

    if evals[0] <= 0.0 or evals[rank - 1] < _GRAM_MIN_RATIO * evals[0]:
        u_full, spectrum, vt_full = np.linalg.svd(vals, full_matrices=False)
        rank = rank_of(spectrum)
        u, v = _fix_signs(u_full[:, :rank], vt_full[:rank].T)
        return TruncatedSvd(u=u, singvals=spectrum[:rank], v=v, spectrum=spectrum, k=rank)

    top, s = evecs[:, :rank], spectrum[:rank]
    if rows_side:
        u, v = top, (vals.T @ top) / s
    else:
        u, v = (vals @ top) / s, top
    u, v = _fix_signs(u, v)
    return TruncatedSvd(u=u, singvals=s, v=v, spectrum=spectrum, k=rank)


def spectral_norm(
    a: MatrixLike,
    *,
    tol: float = 1e-8,
    max_iter: int = 10000,
    seed: int = 0,
) -> float:
    """Largest singular value by Lanczos (ARPACK ``eigsh``) on A.T @ A.

    Accepts a dense array or a :class:`LinearMap`; the latter keeps the
    computation matrix-free for structured operators. ``tol`` is ARPACK's
    relative accuracy for the top eigenvalue of A.T A, ``max_iter`` its
    restart cap, and ``seed`` draws the starting vector. Unlike power
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
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        top = eigsh(
            gram, k=1, which="LA", v0=v0, tol=tol, maxiter=max_iter,
            return_eigenvectors=False,
        )
    except ArpackError as exc:
        if not gram.matvec(v0).any():
            # the starting vector lies in the null space of A.T A: the
            # operator is zero on the relevant subspace
            return 0.0
        raise ConvergenceFailure(
            f"Lanczos did not meet tol={tol} within {max_iter} restarts ({exc})"
        ) from exc
    return float(np.ldexp(np.sqrt(max(float(top[0]), 0.0)), exponent))


def gaussian_loglik(data: DataMatrix | np.ndarray, cov: StructuredCovariance) -> float:
    """Log-density of mean-zero Gaussian rows under a factored covariance.

    Uses the matrix inversion and determinant lemmas so the cost is
    O(n p k + k^3) and the p x p covariance is never formed. ``data``
    rows are treated as independent draws; pass centered values.
    """
    import scipy.linalg

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
        w = scipy.linalg.solve_triangular(chol, (vals @ gd).T, lower=True)
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
