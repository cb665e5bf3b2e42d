"""Model fitting: rank selection, noise/signal decomposition, conjugate
posterior hyperparameters, and the coverage-correction factor rho.

The fitted object is a :class:`FableModel`, an immutable bundle of the
per-variable posterior parameters. Everything downstream (sampling,
posterior means, intervals) reads from it and never touches the data
again.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ._special import ndtr, norm_ppf
from .errors import (
    AllZeroSpectrum,
    BracketFailure,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidAlpha,
    InvalidSpectrumFraction,
    NonFinite,
    RankOutOfRange,
    ZeroResidual,
    ZeroResidualVariance,
)
from .linalg import DataMatrix, TruncatedSvd, _frozen, truncated_svd

__all__ = [
    "RankSelection",
    "FableModel",
    "select_K0",
    "jic",
    "select_rank",
    "fit",
    "hyperparameters_from_factors",
    "compute_rho",
]

RHO_STRATEGIES = ("mean_b", "sup_b", "solve_mean_coverage")

# Relative floor under which a column's residual variance counts as zero.
_RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class RankSelection:
    """Outcome of the information-criterion rank search.

    ``jic_values[i]`` is the criterion at rank ``i + 1``; the grid runs
    from 1 to ``K0``, the spectrum-proportion cap.
    """

    k_hat: int
    K0: int
    jic_values: tuple[float, ...]
    S0: float


@dataclass(frozen=True)
class FableModel:
    """Fitted posterior state for a low-rank-plus-diagonal covariance.

    Per variable j the surrogate posterior is Normal-Inverse-Gamma:
    sigma_j^2 ~ IG(gamma_n / 2, gamma_n * delta_sq[j] / 2) and, given
    sigma_j^2, the loading row is N(mu[j], rho^2 sigma_j^2 /
    (n + 1 / tau_sq) * I_k). ``rho`` is the variance inflation that
    makes entrywise credible intervals match their asymptotic width.
    """

    n: int
    p: int
    k: int
    tau_sq: float
    gamma0: float
    delta0_sq: float
    gamma_n: float
    rho: float
    rho_strategy: str
    mu: np.ndarray
    delta_sq: np.ndarray
    v_sq: np.ndarray
    l_sq: np.ndarray
    u: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self) -> None:
        n, p, k = int(self.n), int(self.p), int(self.k)
        if n < 1 or p < 1 or not 1 <= k <= p:
            raise DimensionMismatch(f"bad dimensions n={n}, p={p}, k={k}")
        mu = np.asarray(self.mu, dtype=np.float64)
        if mu.shape != (p, k):
            raise DimensionMismatch(f"mu shape {mu.shape}, expected {(p, k)}")
        u = np.asarray(self.u, dtype=np.float64)
        if u.shape != (n, k):
            raise DimensionMismatch(f"u shape {u.shape}, expected {(n, k)}")
        arrays = {"mu": mu, "u": u, "spectrum": np.asarray(self.spectrum, dtype=np.float64)}
        for name in ("delta_sq", "v_sq", "l_sq"):
            arrays[name] = np.asarray(getattr(self, name), dtype=np.float64)
            if arrays[name].shape != (p,):
                raise DimensionMismatch(
                    f"{name} shape {arrays[name].shape}, expected ({p},)"
                )
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise NonFinite(f"{name} contains NaN or infinite entries")
            object.__setattr__(self, name, _frozen(arr))
        if np.any(self.delta_sq <= 0):
            raise ValueError("delta_sq must be strictly positive")
        if np.any(self.v_sq < 0) or np.any(self.l_sq < 0):
            raise ValueError("l_sq and v_sq must be nonnegative")
        for val, name in (
            (self.tau_sq, "tau_sq"),
            (self.gamma0, "gamma0"),
            (self.delta0_sq, "delta0_sq"),
            (self.rho, "rho"),
        ):
            if not np.isfinite(val) or val <= 0:
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if abs(self.gamma_n - (self.gamma0 + n)) > 1e-9 * max(1.0, self.gamma_n):
            raise ValueError("gamma_n must equal gamma0 + n")
        if self.rho_strategy not in RHO_STRATEGIES and self.rho_strategy != "manual":
            raise ValueError(f"unknown rho_strategy {self.rho_strategy!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)

    @property
    def posterior_scale_sq(self) -> float:
        """The shared loading-scale 1 / (n + 1 / tau_sq)."""
        return 1.0 / (self.n + 1.0 / self.tau_sq)


def select_K0(spectrum: np.ndarray, S0: float = 0.75) -> int:
    """Smallest K whose leading singular values reach fraction S0 of the
    spectrum's total mass (sum of singular values, not their squares)."""
    s = np.asarray(spectrum, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise DimensionMismatch("spectrum must be a nonempty 1-d array")
    if not 0 < S0 <= 1:
        raise ValueError(f"S0 must be in (0, 1], got {S0}")
    total = s.sum()
    if total <= 0:
        raise AllZeroSpectrum("spectrum sums to zero")
    frac = np.cumsum(s) / total
    # Roundoff can leave the last cumulative fraction a hair under 1.
    frac[-1] = 1.0
    return int(np.searchsorted(frac, S0) + 1)


def _jic_from_spectrum(n: int, p: int, spectrum: np.ndarray, k: int) -> float:
    limit = min(n, p)
    if not 1 <= k <= limit:
        raise RankOutOfRange(f"k={k} outside [1, {limit}]")
    rss = float(np.sum(spectrum[k:] ** 2))
    penalty = k * max(n, p) * np.log(limit)
    if rss <= 0.0:
        if k == limit:
            raise ZeroResidual(
                f"residual is identically zero at full rank k={k}"
            )
        warnings.warn(
            f"zero residual at k={k} < min(n, p); criterion is -inf there",
            RuntimeWarning,
            stacklevel=3,
        )
        return float(-np.inf)
    return float(n * p * np.log(rss / (n * p)) + penalty)


def jic(data: DataMatrix, svd: TruncatedSvd, k: int) -> float:
    """Rank-selection criterion: n p log(RSS_k / (n p)) plus the
    penalty k * max(n, p) * log(min(n, p)).

    RSS_k is the squared Frobenius norm of the residual after the best
    rank-k approximation, taken from ``svd.spectrum``.
    """
    if k > svd.spectrum.shape[0]:
        raise RankOutOfRange(
            f"spectrum holds {svd.spectrum.shape[0]} values, cannot score k={k}"
        )
    return _jic_from_spectrum(data.n, data.p, svd.spectrum, k)


def _select_from_spectrum(
    n: int, p: int, spectrum: np.ndarray, S0: float
) -> RankSelection:
    K0 = select_K0(spectrum, S0)
    # Full rank always has zero residual, so the scored grid stops one
    # short of min(n, p).
    top = min(K0, min(n, p) - 1)
    if top < 1:
        raise ZeroResidual(
            f"no scorable ranks with min(n, p)={min(n, p)}"
        )
    values = tuple(_jic_from_spectrum(n, p, spectrum, k) for k in range(1, top + 1))
    k_hat = int(np.argmin(values)) + 1
    return RankSelection(k_hat=k_hat, K0=K0, jic_values=values, S0=S0)


def select_rank(data: DataMatrix, *, S0: float = 0.75) -> RankSelection:
    """Pick the factor rank by scanning the criterion over 1..K0.

    Ties break toward the smaller rank. Needs min(n, p) >= 2.
    """
    spectrum = truncated_svd(data, 1).spectrum
    return _select_from_spectrum(data.n, data.p, spectrum, S0)


def hyperparameters_from_factors(
    mhat: np.ndarray,
    values: np.ndarray,
    tau_sq: float,
    *,
    gamma0: float = 1.0,
    delta0_sq: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Conjugate posterior parameters for an arbitrary factor matrix.

    Solves the general ridge system instead of exploiting the orthogonal
    structure of the canonical representative, so it works for any
    ``mhat`` and serves as an independent check of the fast path in
    :func:`fit`. Returns ``(mu, delta_sq, gamma_n)``.
    """
    mhat = np.asarray(mhat, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n, k = mhat.shape
    if values.shape[0] != n:
        raise DimensionMismatch(
            f"factors have {n} rows but data has {values.shape[0]}"
        )
    prec = mhat.T @ mhat + np.eye(k) / tau_sq
    mu = np.linalg.solve(prec, mhat.T @ values).T
    ysq = np.einsum("ij,ij->j", values, values)
    quad = np.einsum("jk,kl,jl->j", mu, prec, mu)
    gamma_n = gamma0 + n
    delta_sq = (gamma0 * delta0_sq + ysq - quad) / gamma_n
    return mu, delta_sq, float(gamma_n)


def fit(
    data: DataMatrix,
    *,
    k: int | None = None,
    S0: float = 0.75,
    gamma0: float = 1.0,
    delta0_sq: float = 1.0,
    tau_sq: float | None = None,
    rho_strategy: str = "mean_b",
    coverage_alpha: float = 0.05,
) -> FableModel:
    """Fit the factor-covariance posterior to centered data.

    Parameters
    ----------
    data : DataMatrix
        Centered observations (use :func:`fable.center_columns`).
    k : int, optional
        Factor rank. When omitted the rank is selected by information
        criterion over 1..K0.
    S0 : float
        Spectrum-mass fraction defining the rank-search cap K0.
    gamma0, delta0_sq : float
        Inverse-Gamma prior shape/scale seeds for the noise variances.
    tau_sq : float, optional
        Prior loading scale. When omitted it is moment-matched: the mean
        over columns of l_sq / v_sq, divided by the rank, where l_sq[j] is
        the mean square of column j's projection onto the retained left
        singular subspace and v_sq[j] the residual mean square.
    rho_strategy : {"mean_b", "sup_b", "solve_mean_coverage"}
        How to collapse the entrywise inflation matrix B into one rho.
    coverage_alpha : float
        Target miscoverage used by the "solve_mean_coverage" strategy.

    ``S0`` and ``coverage_alpha`` are checked whatever ``k`` and
    ``rho_strategy`` are (:class:`InvalidSpectrumFraction`,
    :class:`InvalidAlpha`). Raises :class:`ZeroResidualVariance` when any
    column sits (numerically) inside the retained subspace, since its
    noise level is then not identifiable.
    """
    if not 0.0 < S0 <= 1.0:
        raise InvalidSpectrumFraction(f"S0 must be in (0, 1], got {S0}")
    if not 0.0 < coverage_alpha < 1.0:
        raise InvalidAlpha(f"coverage_alpha must be in (0, 1), got {coverage_alpha}")
    if not data.centered:
        raise ValueError("fit requires centered data; see center_columns")
    if gamma0 <= 0 or delta0_sq <= 0:
        raise ValueError("gamma0 and delta0_sq must be positive")
    if tau_sq is not None and tau_sq <= 0:
        raise ValueError(f"tau_sq must be positive, got {tau_sq}")
    if rho_strategy not in RHO_STRATEGIES:
        raise ValueError(
            f"rho_strategy must be one of {RHO_STRATEGIES}, got {rho_strategy!r}"
        )
    n, p = data.n, data.p

    if k is None:
        svd = truncated_svd(data, lambda s: _select_from_spectrum(n, p, s, S0).k_hat)
    else:
        svd = truncated_svd(data, int(k))
    k, u = svd.k, svd.u

    proj = u.T @ data.values
    ysq = np.einsum("ij,ij->j", data.values, data.values)
    projsq = np.einsum("kj,kj->j", proj, proj)
    l_sq = projsq / n
    v_sq = (ysq - projsq) / n
    bad = np.flatnonzero(v_sq <= _RESIDUAL_FLOOR * (ysq / n))
    if bad.size:
        raise ZeroResidualVariance(
            f"column {bad[0]} has numerically zero residual variance "
            f"({bad.size} column(s) total); its noise level is not identifiable"
        )
    if tau_sq is None:
        tau_sq = float(np.mean(l_sq / v_sq) / k)
    denom = n + 1.0 / tau_sq
    mu = (np.sqrt(n) / denom) * proj.T
    gamma_n = gamma0 + n
    delta_sq = (gamma0 * delta0_sq + ysq - (n / denom) * projsq) / gamma_n
    rho = compute_rho(mu, v_sq, strategy=rho_strategy, alpha=coverage_alpha)
    return FableModel(
        n=n,
        p=p,
        k=k,
        tau_sq=tau_sq,
        gamma0=gamma0,
        delta0_sq=delta0_sq,
        gamma_n=float(gamma_n),
        rho=rho,
        rho_strategy=rho_strategy,
        mu=mu,
        delta_sq=delta_sq,
        v_sq=v_sq,
        l_sq=l_sq,
        u=u,
        spectrum=svd.spectrum,
    )


def _b_blocks(mu: np.ndarray, v_sq: np.ndarray, block: int):
    """Yield (lo, hi, b) with b = B[lo:hi, lo:], row blocks of the
    inflation matrix B from the diagonal rightwards.

    B is symmetric, so these blocks cover its upper triangle; the part of
    b[:, :hi - lo] below the diagonal mirrors entries above it.
    Off-diagonal rule: b_uv^2 = 1 + (m_u^2 m_v^2 + (mu_u . mu_v)^2) /
    (V_u^2 m_v^2 + V_v^2 m_u^2); on the diagonal b_uu^2 = 1 + m_u^2 /
    (2 V_u^2). A vanishing denominator with a nonzero numerator means a
    zero residual variance and is an error; 0/0 collapses to b = 1.
    """
    p = v_sq.shape[0]
    m_sq = np.einsum("jk,jk->j", mu, mu)
    for lo in range(0, p, block):
        hi = min(lo + block, p)
        # b holds the numerator until the division; working in place keeps
        # the number of block-sized temporaries down
        b = mu[lo:hi] @ mu[lo:].T
        b *= b
        outer = np.multiply.outer(m_sq[lo:hi], m_sq[lo:])
        b += outer
        den = np.multiply.outer(v_sq[lo:hi], m_sq[lo:])
        np.multiply.outer(m_sq[lo:hi], v_sq[lo:], out=outer)
        den += outer
        if not den.all():
            zero = den == 0.0
            if np.any(b[zero] > 0.0):
                raise DegenerateDenominator(
                    "variance-ratio denominator vanished off-diagonal with a "
                    "nonzero numerator"
                )
            den[zero] = 1.0  # num is 0 there, so b becomes exactly 1
        b /= den
        b += 1.0
        np.sqrt(b, out=b)
        dm, dv = m_sq[lo:hi], v_sq[lo:hi]
        if np.any((dv == 0.0) & (dm > 0.0)):
            raise DegenerateDenominator(
                "diagonal inflation undefined where residual variance is zero"
            )
        with np.errstate(invalid="ignore", divide="ignore"):
            bd = np.sqrt(1.0 + dm / (2.0 * dv))
        rows = np.arange(hi - lo)
        b[rows, rows] = np.where(dm == 0.0, 1.0, bd)
        yield lo, hi, b


def compute_rho(
    mu: np.ndarray,
    v_sq: np.ndarray,
    *,
    strategy: str = "mean_b",
    alpha: float = 0.05,
    block: int = 512,
) -> float:
    """Collapse the inflation matrix into a single rho.

    "mean_b" averages B over its upper triangle (diagonal included),
    "sup_b" takes the maximum, and "solve_mean_coverage" finds by
    Brent's method, over [1, 4 sup B], the rho whose nominal mean
    entrywise coverage equals 1 - alpha. Only the upper triangle of B is
    computed, in row blocks, so mean and sup never hold the full matrix;
    the solver makes one pass and keeps the values above the diagonal
    (about p^2 / 2 floats) to make each step a vector op.
    """
    mu = np.asarray(mu, dtype=np.float64)
    v_sq = np.asarray(v_sq, dtype=np.float64)
    if mu.ndim != 2 or v_sq.shape != (mu.shape[0],):
        raise DimensionMismatch("mu must be (p, k) and v_sq (p,)")
    p = mu.shape[0]

    if strategy == "mean_b":
        total = 0.0
        for lo, hi, b in _b_blocks(mu, v_sq, block):
            h = hi - lo
            total += float(np.triu(b[:, :h]).sum()) + float(b[:, h:].sum())
        return total / (p * (p + 1) / 2.0)

    if strategy == "sup_b":
        sup = 1.0
        for _, _, b in _b_blocks(mu, v_sq, block):
            sup = max(sup, float(b.max()))
        return sup

    if strategy != "solve_mean_coverage":
        raise ValueError(f"unknown strategy {strategy!r}")

    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    z = norm_ppf(1.0 - alpha / 2.0)
    target = 1.0 - alpha

    # one pass over B: the values right of the diagonal, and the bracket's
    # upper end from those and the diagonal (below it B mirrors them)
    offdiag = []
    sup = 1.0
    for lo, hi, b in _b_blocks(mu, v_sq, block):
        # row-major order of the entries right of the diagonal
        above = np.arange(p - lo)[None, :] > np.arange(hi - lo)[:, None]
        offdiag.append(b[above])
        sup = max(sup, float(offdiag[-1].max(initial=1.0)), float(b.diagonal().max()))
    bvals = np.concatenate(offdiag)
    m_sq = np.einsum("jk,jk->j", mu, mu)
    msum = m_sq + v_sq

    @functools.lru_cache(maxsize=None)  # brentq re-evaluates the bracket ends
    def mean_q(rho: float) -> float:
        # Off the diagonal the asymptotic-to-surrogate sd ratio is exactly
        # rho / b_uv; on it the two variance formulas do not cancel.
        acc = float(np.sum(2.0 * ndtr(z * rho / bvals) - 1.0)) if bvals.size else 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.sqrt(v_sq**2 + 2.0 * rho**2 * v_sq * m_sq) / msum
        ratio = np.where(msum == 0.0, 1.0, ratio)
        acc += float(np.sum(2.0 * ndtr(z * ratio) - 1.0))
        return acc / (p * (p + 1) / 2.0)

    lo_r, hi_r = 1.0, 4.0 * sup
    f_lo, f_hi = mean_q(lo_r), mean_q(hi_r)
    # No inflation needed (B is identically 1 up to roundoff).
    if f_lo >= target - 1e-12:
        return lo_r
    if f_hi < target:
        raise BracketFailure(
            f"mean coverage {f_hi:.4f} at rho={hi_r:.3f} never reaches {target}"
        )
    from scipy.optimize import brentq

    return float(brentq(lambda rho: mean_q(rho) - target, lo_r, hi_r, xtol=1e-13))
