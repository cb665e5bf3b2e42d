"""Credible intervals and model diagnostics.

Interval centers are the factored posterior-mean entries. Asymptotic
widths come from the closed-form large-sample variance of the surrogate
draws; sample-quantile intervals rerun the sampler. Coverage against a
known truth is scored by the study harness, one replicate at a time.
The out-of-sample log-likelihood evaluates a fitted target-block
covariance on held-out rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._special import norm_ppf
from .errors import (
    DimensionMismatch,
    EmptyTarget,
    IndexOutOfRange,
    InvalidAlpha,
    InvalidOption,
    NonFinite,
    OverlappingIndexSets,
    TooFewRows,
    TooFewSamples,
)
from .linalg import DataMatrix, StructuredCovariance, _as_float_matrix, _frozen, gaussian_loglik
from .model import FableModel, fit
from .sampler import (_RESERVOIR, RngSpec, _entry_set, _entry_values, posterior_mean,
                      sample_entry_stats)

__all__ = [
    "AsymptoticVariances",
    "IntervalGrid",
    "asymptotic_variances",
    "credible_intervals",
    "fitted_loglik",
    "variance_explained",
    "predictive_coverage",
    "oos_loglik",
]

# Sample-quantile intervals below this draw count are too noisy to report.
_MIN_QUANTILE_SAMPLES = 100


@dataclass(frozen=True)
class AsymptoticVariances:
    """Large-sample variances (times n) of covariance-entry estimators,
    as (m,) arrays in entry order.

    ``l0_sq`` is the variance of the surrogate posterior draws, which
    scales with rho; ``s0_sq`` is the variance of the frequentist
    sampling distribution of the plug-in estimator. Their ratio at
    rho = b_uv is one by construction.
    """

    l0_sq: np.ndarray
    s0_sq: np.ndarray


@dataclass(frozen=True)
class IntervalGrid:
    """Equal-tailed credible intervals for a fixed set of entries: entry
    e is (u[e], v[e]), and every array is read-only with shape (m,)."""

    u: np.ndarray
    v: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    asym_sd: np.ndarray
    alpha: float
    method: str

    def __post_init__(self) -> None:
        m = len(self.u)
        for name in ("u", "v", "center", "lower", "upper", "asym_sd"):
            dtype = np.intp if name in ("u", "v") else np.float64
            arr = _frozen(getattr(self, name), dtype)
            if arr.shape != (m,):
                raise DimensionMismatch(f"{name} must have shape ({m},)")
            object.__setattr__(self, name, arr)
        if np.any(self.lower > self.upper):
            raise InvalidOption("interval lower bounds exceed upper bounds")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


def _variance_terms(model: FableModel, u_idx, v_idx):
    """The entries' centres mu_u . mu_v + delta_u^2 1(u=v), and l0^2 and S0^2."""
    m_sq = np.einsum("jk,jk->j", model.mu, model.mu)
    center = _entry_values(model.mu, model.delta_sq, u_idx, v_idx)
    vu, vv = model.v_sq[u_idx], model.v_sq[v_idx]
    mu2, mv2 = m_sq[u_idx], m_sq[v_idx]
    diag = u_idx == v_idx
    cross = vv * mu2 + vu * mv2
    l0 = np.where(diag, 2.0 * vu * vu + 4.0 * model.rho**2 * vu * mu2, model.rho**2 * cross)
    # off the diagonal the centre is mu_u . mu_v
    s0 = np.where(diag, 2.0 * (mu2 + vu) ** 2, cross + mu2 * mv2 + center * center)
    return center, l0, s0


def asymptotic_variances(
    model: FableModel, indices: Sequence[tuple[int, int]] | np.ndarray
) -> AsymptoticVariances:
    """Closed-form plug-in variances for the entries ``indices``, a list
    of (u, v) pairs or an (m, 2) array, at the model's rho.

    Off-diagonal: l0^2 = rho^2 (V_v^2 |mu_u|^2 + V_u^2 |mu_v|^2) and
    S0^2 adds |mu_u|^2 |mu_v|^2 + (mu_u . mu_v)^2. Diagonal: l0^2 =
    2 V_u^4 + 4 rho^2 V_u^2 |mu_u|^2 and S0^2 = 2 (|mu_u|^2 + V_u^2)^2.
    """
    u, v = _entry_set(indices, model.p)
    _, l0, s0 = _variance_terms(model, u, v)
    return AsymptoticVariances(l0_sq=l0, s0_sq=s0)


def credible_intervals(
    model: FableModel,
    indices: Sequence[tuple[int, int]] | np.ndarray,
    *,
    alpha: float = 0.05,
    method: str = "asymptotic",
    n_samples: int | None = None,
    rng: RngSpec | None = None,
    threads: int = 1,
) -> IntervalGrid:
    """Equal-tailed (1 - alpha) intervals for the covariance entries
    ``indices``, a list of (u, v) pairs or an (m, 2) array.

    method="asymptotic" centers at mu_u . mu_v (plus delta_u^2 on the
    diagonal) and uses the closed-form sd over sqrt(n); no sampling.
    method="sample_quantile" takes empirical alpha/2 and 1 - alpha/2
    quantiles over the first min(``n_samples``, 10,000) posterior draws
    from ``rng`` (``n_samples`` at least 100). Both report the same
    centers and asymptotic sd column.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    u, v = _entry_set(indices, model.p)
    center, l0, _ = _variance_terms(model, u, v)
    sd = np.sqrt(l0 / model.n)

    if method == "asymptotic":
        z = norm_ppf(1.0 - alpha / 2.0)
        half = z * sd
        lower, upper = center - half, center + half
    elif method == "sample_quantile":
        if n_samples is None or rng is None:
            raise InvalidOption("sample_quantile needs n_samples and rng")
        if n_samples < _MIN_QUANTILE_SAMPLES:
            raise TooFewSamples(
                f"sample_quantile needs at least {_MIN_QUANTILE_SAMPLES} draws"
            )
        # the quantiles read only the first _RESERVOIR draws, so no more are made
        stats = sample_entry_stats(
            model,
            min(n_samples, _RESERVOIR),
            rng,
            indices,
            quantiles=(alpha / 2.0, 1.0 - alpha / 2.0),
            threads=threads,
        )
        lower = stats.quantiles[alpha / 2.0]
        upper = stats.quantiles[1.0 - alpha / 2.0]
    else:
        raise InvalidOption(f"unknown method {method!r}")
    bad = np.flatnonzero(~(np.isfinite(sd) & np.isfinite(lower) & np.isfinite(upper)))
    if bad.size:
        e = bad[0]
        raise NonFinite(
            f"interval of entry ({u[e]}, {v[e]}) is not finite at rho={model.rho!r}: "
            f"sd {float(sd[e])}, bounds {float(lower[e])}, {float(upper[e])} "
            f"({bad.size} of {len(u)} entries)"
        )

    return IntervalGrid(
        u=u,
        v=v,
        center=center,
        lower=lower,
        upper=upper,
        asym_sd=sd,
        alpha=alpha,
        method=method,
    )


def fitted_loglik(model: FableModel, data: DataMatrix) -> float:
    """Gaussian log-likelihood of the data under the factored posterior mean."""
    return gaussian_loglik(data, posterior_mean(model))


def variance_explained(model: FableModel) -> np.ndarray:
    """Per-variable share of fitted variance carried by the factors:
    |mu_j|^2 / (|mu_j|^2 + delta_j^2)."""
    m_sq = np.einsum("jk,jk->j", model.mu, model.mu)
    return m_sq / (m_sq + model.delta_sq)


def predictive_coverage(
    model: FableModel, data: DataMatrix, alpha: float = 0.05
) -> float:
    """Fraction of observations inside their marginal (1 - alpha) band.

    Entry (i, j) counts as covered when |y_ij| < z_{1-alpha/2} times the
    fitted marginal sd sqrt(|mu_j|^2 + delta_j^2), y_ij being centered, as
    a DataMatrix is; a well-calibrated model scores close to 1 - alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    if data.p != model.p:
        raise DimensionMismatch(f"data has p={data.p}, model has p={model.p}")
    z = norm_ppf(1.0 - alpha / 2.0)
    m_sq = np.einsum("jk,jk->j", model.mu, model.mu)
    band = z * np.sqrt(m_sq + model.delta_sq)
    return float(np.mean(np.abs(data.values) < band))


def _check_disjoint_indices(
    target_indices: Sequence[int], extra_indices: Sequence[int], p: int
) -> tuple[list[int], list[int]]:
    targets = [int(j) for j in target_indices]
    extras = [int(j) for j in extra_indices]
    if not targets:
        raise EmptyTarget("target index set is empty")
    for j in targets + extras:
        if not 0 <= j < p:
            raise IndexOutOfRange(f"column {j} outside [0, {p})")
    if len(set(targets)) != len(targets) or len(set(extras)) != len(extras):
        raise OverlappingIndexSets("index sets contain duplicates")
    if set(targets) & set(extras):
        raise OverlappingIndexSets("target and extra column sets overlap")
    return targets, extras


def oos_loglik(
    train: DataMatrix,
    test: np.ndarray,
    target_indices: Sequence[int],
    extra_indices: Sequence[int] = (),
    **fit_options,
) -> float:
    """Held-out log-likelihood of the fitted target-block covariance.

    Fits on the train rows of the target columns plus any extra columns
    (extras sharpen the factor estimate but are not scored), extracts
    the target block of the factored posterior mean, and evaluates the
    test rows under it. ``test`` holds the raw held-out rows (one is
    enough) of exactly the target columns, in order; they are centered
    with the train means.
    """
    targets, extras = _check_disjoint_indices(target_indices, extra_indices, train.p)
    test = _as_float_matrix(test, "test rows")
    if test.shape[0] < 1:
        raise TooFewRows("test has no rows")
    if test.shape[1] != len(targets):
        raise DimensionMismatch(
            f"test has {test.shape[1]} columns but {len(targets)} targets were named"
        )
    cols = targets + extras
    sub = DataMatrix._adopt(train.values[:, cols], train.column_means[cols])
    model = fit(sub, **fit_options)
    t = len(targets)
    block = StructuredCovariance(model.mu[:t], model.delta_sq[:t])
    return gaussian_loglik(test - train.column_means[targets], block)
