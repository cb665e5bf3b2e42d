"""Model fitting: rank selection, noise/signal decomposition, conjugate
posterior hyperparameters, and the coverage-correction factor rho.

The fitted object is a :class:`FableModel`, an immutable bundle of the
per-variable posterior parameters. Everything downstream (sampling,
posterior means, intervals) reads from it and never touches the data
again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._special import erfc, norm_ppf
from .errors import (
    AllZeroSpectrum,
    BracketFailure,
    ConvergenceFailure,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidAlpha,
    InvalidOption,
    InvalidSpectrumFraction,
    NonFinite,
    ZeroResidual,
    ZeroResidualVariance,
)
from .linalg import DataMatrix, _frozen, truncated_svd

__all__ = [
    "FableModel",
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
    from 1 to ``K0``, the spectrum-proportion cap, or to min(n - 1, p) - 1,
    one below the rank of the centered data, if that is smaller.
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
    makes entrywise credible intervals match their asymptotic width; for
    another, use ``dataclasses.replace(model, rho=r)``.
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
            raise InvalidOption("delta_sq must be strictly positive")
        if np.any(self.v_sq < 0) or np.any(self.l_sq < 0):
            raise InvalidOption("l_sq and v_sq must be nonnegative")
        for name in ("tau_sq", "gamma0", "delta0_sq"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0:
                raise InvalidOption(f"{name} must be positive and finite, got {val}")
        # rho 0 is legal: its draws put the loadings at their posterior mean.
        # rho is squared downstream; ``*`` gives inf where ``**`` would raise.
        rho = float(self.rho)
        if not (rho >= 0 and math.isfinite(rho * rho)):
            raise InvalidOption(
                f"rho must be nonnegative with a finite square, got {self.rho}"
            )
        if abs(self.gamma_n - (self.gamma0 + n)) > 1e-9 * max(1.0, self.gamma_n):
            raise InvalidOption("gamma_n must equal gamma0 + n")
        if self.rho_strategy not in RHO_STRATEGIES:
            raise InvalidOption(f"unknown rho_strategy {self.rho_strategy!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)

    @property
    def posterior_scale_sq(self) -> float:
        """The shared loading-scale 1 / (n + 1 / tau_sq)."""
        return 1.0 / (self.n + 1.0 / self.tau_sq)


def _select_rank(n: int, p: int, spectrum: np.ndarray, S0: float) -> RankSelection:
    """Pick the factor rank by scanning the criterion over 1..K0.

    K0 is the smallest rank whose leading singular values reach fraction
    S0 of the spectrum's total mass (sum of singular values, not their
    squares). The criterion at rank k is n p log(RSS_k / (n p)) plus the
    penalty k * max(n, p) * log(min(n, p)), where RSS_k, the squared
    Frobenius norm of the residual after the best rank-k approximation,
    is the tail of the squared spectrum. Ties break toward the smaller
    rank. The spectrum is of centered data, whose rank is at most
    min(n - 1, p); needs that to be at least 2.
    """
    total = spectrum.sum()
    if total <= 0:
        raise AllZeroSpectrum("spectrum sums to zero")
    frac = np.cumsum(spectrum) / total
    # Roundoff can leave the last cumulative fraction a hair under 1.
    frac[-1] = 1.0
    K0 = int(np.searchsorted(frac, S0) + 1)
    # Centering leaves rank min(n - 1, p), which has zero residual up to
    # roundoff, so the scored grid stops one short of it.
    rank = min(n - 1, p)
    top = min(K0, rank - 1)
    if top < 1:
        raise ZeroResidual(
            f"no scorable ranks: centered {n}x{p} data has rank at most {rank}"
        )
    values = []
    for k in range(1, top + 1):
        penalty = k * max(n, p) * np.log(min(n, p))
        rss = float(np.sum(spectrum[k:] ** 2))
        if rss <= 0.0:
            warnings.warn(
                f"zero residual at k={k} < min(n, p); criterion is -inf there",
                RuntimeWarning,
                stacklevel=2,
            )
            values.append(float(-np.inf))
        else:
            values.append(float(n * p * np.log(rss / (n * p)) + penalty))
    k_hat = int(np.argmin(values)) + 1
    return RankSelection(k_hat=k_hat, K0=K0, jic_values=tuple(values), S0=S0)


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
        Centered observations (use :func:`fable.linalg.center_columns`).
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
    # "not 0 < x < inf" refuses NaN as well
    if not 0.0 < gamma0 < math.inf:
        raise InvalidOption(f"gamma0 must be positive and finite, got {gamma0}")
    if not 0.0 < delta0_sq < math.inf:
        raise InvalidOption(f"delta0_sq must be positive and finite, got {delta0_sq}")
    if tau_sq is not None and not 0.0 < tau_sq < math.inf:
        raise InvalidOption(f"tau_sq must be positive and finite, got {tau_sq}")
    if rho_strategy not in RHO_STRATEGIES:
        raise InvalidOption(
            f"rho_strategy must be one of {RHO_STRATEGIES}, got {rho_strategy!r}"
        )
    n, p = data.n, data.p

    if k is None:
        svd = truncated_svd(data, lambda s: _select_rank(n, p, s, S0).k_hat)
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
    mu = np.multiply(np.sqrt(n) / denom, proj.T, order="C")
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


# Rows per block of B. At p = 5000 a (32, p) float64 block is 1.3 MB, so the
# kernel's two block buffers stay near the size of a 2 MB L2 cache.
_BLOCK = 32


def _b_blocks(mu: np.ndarray, v_sq: np.ndarray, block: int):
    """Yield (lo, hi, b) with b = B[lo:hi, lo:], row blocks of the
    inflation matrix B from the diagonal rightwards.

    B is symmetric, so these blocks cover its upper triangle; the part of
    b[:, :hi - lo] below the diagonal mirrors entries above it. Each b is
    a view of a buffer that the next block overwrites.

    The rule b_uv^2 = 1 + (m_u^2 m_v^2 + (mu_u . mu_v)^2) / (V_u^2 m_v^2 +
    V_v^2 m_u^2), divided through by V_u^2 V_v^2, reads b_uv^2 = 1 +
    (a_u a_v + (nu_u . nu_v)^2) / (a_u + a_v) with nu_u = mu_u / V_u and
    a_u = |nu_u|^2; on the diagonal b_uu^2 = 1 + a_u / 2. A row with zero
    residual variance and nonzero loadings leaves B undefined and is an
    error. A row without loadings has b = 1 against every column, as the
    0/0 -> 1 rule of the undivided form gives. The numerator is at most
    2 max(a)^2; where that overflows, so may b, and that is an error too.
    """
    p = v_sq.shape[0]
    m_sq = np.einsum("jk,jk->j", mu, mu)
    if np.any((v_sq == 0.0) & (m_sq > 0.0)):
        raise DegenerateDenominator(
            "inflation undefined where residual variance is zero and loadings are not"
        )
    nu = np.divide(mu, np.sqrt(np.where(v_sq > 0.0, v_sq, 1.0))[:, None], order="C")
    a = np.einsum("jk,jk->j", nu, nu)
    top = float(a.max(initial=0.0))
    if not math.isfinite(2.0 * top * top):
        raise DegenerateDenominator(
            "inflation overflows where residual variance is tiny next to the loadings"
        )
    # a row with a = 0 has a zero numerator, so any positive denominator
    # gives it b = 1
    den = np.where(a > 0.0, a, 1.0)
    bufs = np.empty((2, min(block, p) * p))
    for lo in range(0, p, block):
        hi = min(lo + block, p)
        shape = (hi - lo, p - lo)
        b, t = (buf[: shape[0] * shape[1]].reshape(shape) for buf in bufs)
        np.matmul(nu[lo:hi], nu[lo:].T, out=b)
        b *= b
        np.multiply.outer(a[lo:hi], a[lo:], out=t)
        b += t
        np.add.outer(den[lo:hi], den[lo:], out=t)
        b /= t
        rows = np.arange(hi - lo)
        b[rows, rows] = 0.5 * a[lo:hi]
        b += 1.0
        np.sqrt(b, out=b)
        yield lo, hi, b


def _upper_total(b: np.ndarray) -> float:
    """The sum of B's upper triangle, diagonal included, over the row
    block b = B[lo:hi, lo:]. Its leading square is symmetric, so its
    upper triangle holds half of that square's sum plus half its trace."""
    w = b.shape[0]
    square = b[:, :w]
    return float(b[:, w:].sum()) + 0.5 * (float(square.sum()) + float(square.trace()))


def compute_rho(
    mu: np.ndarray,
    v_sq: np.ndarray,
    *,
    strategy: str = "mean_b",
    alpha: float = 0.05,
) -> float:
    """Collapse the inflation matrix into a single rho.

    "mean_b" averages B over its upper triangle (diagonal included),
    "sup_b" takes the maximum, and "solve_mean_coverage" finds the rho
    in [1, 4 sup B] whose nominal mean entrywise coverage equals
    1 - alpha. Only the upper triangle of B is computed, in row blocks,
    and no strategy holds more than three blocks of it.
    """
    mu = np.asarray(mu, dtype=np.float64)
    v_sq = np.asarray(v_sq, dtype=np.float64)
    if mu.ndim != 2 or v_sq.shape != (mu.shape[0],):
        raise DimensionMismatch("mu must be (p, k) and v_sq (p,)")
    p = mu.shape[0]

    if strategy == "mean_b":
        total = sum(_upper_total(b) for _, _, b in _b_blocks(mu, v_sq, _BLOCK))
        return total / (p * (p + 1) / 2.0)

    if strategy == "sup_b":
        return max(float(b.max()) for _, _, b in _b_blocks(mu, v_sq, _BLOCK))

    if strategy != "solve_mean_coverage":
        raise InvalidOption(f"unknown strategy {strategy!r}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    return _solve_mean_coverage(mu, v_sq, alpha)


def _solve_mean_coverage(mu: np.ndarray, v_sq: np.ndarray, alpha: float) -> float:
    """Safeguarded Newton iteration for mean coverage = 1 - alpha.

    The iteration tracks the mean miscoverage m(rho) = 1 - mean coverage
    through h(rho) = -Phi^{-1}(m / 2), which is linear in rho when B is
    constant, and solves h = -Phi^{-1}(alpha / 2). m is summed as erfc
    values, which keeps its relative precision at small alpha. Every
    evaluation of m streams B again and takes m'(rho) from the same pass. The first
    evaluation, at rho = 1, also gives mean B, where the iteration
    starts, and sup B, which bounds the bracket [1, 4 sup B].
    """
    p = v_sq.shape[0]
    pairs = p * (p + 1) / 2.0
    z = norm_ppf(1.0 - alpha / 2.0)
    if math.isinf(z):  # alpha / 2 rounds away against 1: every interval covers
        return 1.0
    c = z / math.sqrt(2.0)  # 1 - (2 Phi(z x) - 1) = erfc(c x)
    goal = -norm_ppf(alpha / 2.0)
    m_sq = np.einsum("jk,jk->j", mu, mu)
    msum = m_sq + v_sq
    spare = np.empty(min(_BLOCK, p) * p)

    def evaluate(rho: float, first: bool = False):
        """Mean miscoverage and its derivative in rho; when ``first``,
        also mean B and sup B."""
        miss = weight = total = 0.0
        sup = 1.0
        for lo, hi, b in _b_blocks(mu, v_sq, _BLOCK):
            if first:
                sup = max(sup, float(b.max()))
                total += _upper_total(b)
            # Off the diagonal the asymptotic-to-surrogate sd ratio is
            # exactly rho / b_uv; only entries right of the diagonal count.
            lower = np.tri(hi - lo, dtype=bool)
            s = np.divide(c * rho, b, out=b)
            e = spare[: s.size].reshape(s.shape)
            erfc(s, out=e)
            e[:, : hi - lo][lower] = 0.0
            miss += float(e.sum())
            np.multiply(s, s, out=e)
            np.negative(e, out=e)
            np.exp(e, out=e)
            e *= s
            e[:, : hi - lo][lower] = 0.0
            weight += float(e.sum())
        # On the diagonal the two variance formulas do not cancel.
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.sqrt(v_sq**2 + 2.0 * rho**2 * v_sq * m_sq) / msum
            dratio = 2.0 * rho * v_sq * m_sq / (msum * msum * ratio)
        ratio[msum == 0.0] = 1.0
        dratio[msum == 0.0] = 0.0
        miss += float(erfc(c * ratio).sum())
        # d erfc(x) / dx = -2 / sqrt(pi) exp(-x^2), and d s / d rho = s / rho
        slope = weight / rho + c * float(np.sum(np.exp(-((c * ratio) ** 2)) * dratio))
        return miss / pairs, -2.0 / math.sqrt(math.pi) * slope / pairs, total / pairs, sup

    miss, _, mean_b, sup = evaluate(1.0, first=True)
    # No inflation needed (B is identically 1 up to roundoff).
    if miss <= alpha + 1e-12:
        return 1.0
    lo_r, hi_r, top = 1.0, 4.0 * sup, 4.0 * sup
    hi_known = False
    rho = min(max(mean_b, lo_r), top)
    for _ in range(100):
        if hi_known and hi_r - lo_r <= 1e-14 * hi_r:
            return 0.5 * (lo_r + hi_r)
        miss, dmiss, _, _ = evaluate(rho)
        if miss > alpha:
            if rho == top:
                raise BracketFailure(
                    f"mean coverage {1.0 - miss:.4f} at rho={top:.3f} "
                    f"never reaches {1.0 - alpha}"
                )
            lo_r = rho
        else:
            hi_r, hi_known = rho, True
        # h' = -m' / (2 phi(h)), with phi the normal density
        h = -norm_ppf(miss / 2.0)
        pdf = math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)
        step = (goal - h) * 2.0 * pdf / -dmiss if pdf > 0.0 and dmiss < 0.0 else math.nan
        new = rho + step
        if abs(step) <= 1e-9 * rho:
            # h is close to linear, so after a step this short the error
            # is far below 1e-14 relative; a step just past an end the
            # last evaluation set is roundoff in m, so the end is the root
            return min(max(new, lo_r), hi_r)
        if not lo_r <= new <= hi_r:
            # bisect, once the bracket's upper end has been looked at
            new = 0.5 * (lo_r + hi_r) if hi_known else top
        rho = new
    raise ConvergenceFailure("mean-coverage solve did not converge in 100 evaluations")
