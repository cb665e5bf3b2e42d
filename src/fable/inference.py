"""Credible intervals, coverage audits, and model diagnostics.

Interval centers are the factored posterior-mean entries. Asymptotic
widths come from the closed-form large-sample variance of the surrogate
draws; sample-quantile intervals rerun the sampler. The audit utilities
score collections of interval grids against a known truth, and the
out-of-sample log-likelihood evaluates a fitted target-block covariance
on held-out rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._special import norm_ppf
from .errors import (
    DimensionMismatch,
    EmptyTarget,
    IndexOutOfRange,
    IndexSetMismatch,
    InvalidAlpha,
    OverlappingIndexSets,
    TooFewSamples,
)
from .linalg import DataMatrix, StructuredCovariance, _frozen, gaussian_loglik
from .model import FableModel, fit
from .sampler import RngSpec, _check_pairs, posterior_mean, sample_entry_stats

__all__ = [
    "AsymptoticVariances",
    "IntervalGrid",
    "CoverageSummary",
    "asymptotic_variances",
    "credible_intervals",
    "coverage_audit",
    "fitted_loglik",
    "variance_explained",
    "predictive_coverage",
    "oos_loglik",
]

# Sample-quantile intervals below this draw count are too noisy to report.
_MIN_QUANTILE_SAMPLES = 100


@dataclass(frozen=True)
class AsymptoticVariances:
    """Large-sample variances (times n) of covariance-entry estimators.

    ``l0_sq[(u, v)]`` is the variance of the surrogate posterior draws,
    which scales with rho; ``s0_sq[(u, v)]`` is the variance of the
    frequentist sampling distribution of the plug-in estimator. Their
    ratio at rho = b_uv is one by construction.
    """

    l0_sq: dict[tuple[int, int], float]
    s0_sq: dict[tuple[int, int], float]


@dataclass(frozen=True)
class IntervalGrid:
    """Equal-tailed credible intervals for a fixed set of entries."""

    pairs: tuple[tuple[int, int], ...]
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    asym_sd: np.ndarray
    alpha: float
    method: str

    def __post_init__(self) -> None:
        m = len(self.pairs)
        for name in ("center", "lower", "upper", "asym_sd"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (m,):
                raise DimensionMismatch(f"{name} must have shape ({m},)")
            object.__setattr__(self, name, _frozen(arr))
        if np.any(self.lower > self.upper):
            raise ValueError("interval lower bounds exceed upper bounds")
        object.__setattr__(self, "pairs", tuple((int(u), int(v)) for u, v in self.pairs))

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class CoverageSummary:
    """Entrywise empirical coverage of repeated interval grids."""

    pairs: tuple[tuple[int, int], ...]
    per_entry: np.ndarray
    mean_coverage: float
    median_coverage: float
    mean_width: float
    n_grids: int


def _entry_arrays(pairs: Sequence[tuple[int, int]]):
    u = np.fromiter((p[0] for p in pairs), dtype=np.intp, count=len(pairs))
    v = np.fromiter((p[1] for p in pairs), dtype=np.intp, count=len(pairs))
    return u, v


def _variance_terms(model: FableModel, pairs, rho: float):
    u_idx, v_idx = _entry_arrays(pairs)
    m_sq = np.einsum("jk,jk->j", model.mu, model.mu)
    dots = np.einsum("ek,ek->e", model.mu[u_idx], model.mu[v_idx])
    vu, vv = model.v_sq[u_idx], model.v_sq[v_idx]
    mu2, mv2 = m_sq[u_idx], m_sq[v_idx]
    diag = u_idx == v_idx
    cross = vv * mu2 + vu * mv2
    l0 = np.where(
        diag,
        2.0 * vu * vu + 4.0 * rho**2 * vu * mu2,
        rho**2 * cross,
    )
    s0 = np.where(
        diag,
        2.0 * (mu2 + vu) ** 2,
        cross + mu2 * mv2 + dots * dots,
    )
    return u_idx, v_idx, dots, l0, s0


def asymptotic_variances(
    model: FableModel,
    indices: Sequence[tuple[int, int]],
    *,
    rho: float | None = None,
) -> AsymptoticVariances:
    """Closed-form plug-in variances for the requested entries.

    Off-diagonal: l0^2 = rho^2 (V_v^2 |mu_u|^2 + V_u^2 |mu_v|^2) and
    S0^2 adds |mu_u|^2 |mu_v|^2 + (mu_u . mu_v)^2. Diagonal: l0^2 =
    2 V_u^4 + 4 rho^2 V_u^2 |mu_u|^2 and S0^2 = 2 (|mu_u|^2 + V_u^2)^2.
    """
    pairs = _check_pairs(indices, model.p)
    r = model.rho if rho is None else float(rho)
    _, _, _, l0, s0 = _variance_terms(model, pairs, r)
    return AsymptoticVariances(
        l0_sq={pair: float(x) for pair, x in zip(pairs, l0)},
        s0_sq={pair: float(x) for pair, x in zip(pairs, s0)},
    )


def credible_intervals(
    model: FableModel,
    indices: Sequence[tuple[int, int]],
    *,
    alpha: float = 0.05,
    method: str = "asymptotic",
    n_samples: int | None = None,
    rng: RngSpec | None = None,
    threads: int = 1,
) -> IntervalGrid:
    """Equal-tailed (1 - alpha) intervals for selected covariance entries.

    method="asymptotic" centers at mu_u . mu_v (plus delta_u^2 on the
    diagonal) and uses the closed-form sd over sqrt(n); no sampling.
    method="sample_quantile" takes empirical alpha/2 and 1 - alpha/2
    quantiles over ``n_samples`` posterior draws (at least 100) from
    ``rng``. Both report the same centers and asymptotic sd column.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    pairs = _check_pairs(indices, model.p)
    u_idx, v_idx, dots, l0, _ = _variance_terms(model, pairs, model.rho)
    center = dots + np.where(u_idx == v_idx, model.delta_sq[u_idx], 0.0)
    sd = np.sqrt(l0 / model.n)

    if method == "asymptotic":
        z = norm_ppf(1.0 - alpha / 2.0)
        half = z * sd
        lower, upper = center - half, center + half
    elif method == "sample_quantile":
        if n_samples is None or rng is None:
            raise ValueError("sample_quantile needs n_samples and rng")
        if n_samples < _MIN_QUANTILE_SAMPLES:
            raise TooFewSamples(
                f"sample_quantile needs at least {_MIN_QUANTILE_SAMPLES} draws"
            )
        stats = sample_entry_stats(
            model,
            n_samples,
            rng,
            pairs,
            quantiles=(alpha / 2.0, 1.0 - alpha / 2.0),
            threads=threads,
        )
        lower = np.array([stats[pair].quantiles[alpha / 2.0] for pair in pairs])
        upper = np.array([stats[pair].quantiles[1.0 - alpha / 2.0] for pair in pairs])
    else:
        raise ValueError(f"unknown method {method!r}")

    return IntervalGrid(
        pairs=tuple(pairs),
        center=center,
        lower=lower,
        upper=upper,
        asym_sd=sd,
        alpha=alpha,
        method=method,
    )


def _truth_values(
    truth: Mapping[tuple[int, int], float] | np.ndarray,
    pairs: Sequence[tuple[int, int]],
) -> np.ndarray:
    if isinstance(truth, np.ndarray):
        if truth.ndim != 2 or truth.shape[0] != truth.shape[1]:
            raise DimensionMismatch("dense truth must be a square matrix")
        top = max(max(u, v) for u, v in pairs)
        if top >= truth.shape[0]:
            raise IndexOutOfRange(
                f"pair index {top} outside truth of size {truth.shape[0]}"
            )
        return np.array([truth[u, v] for u, v in pairs], dtype=np.float64)
    try:
        return np.array([truth[u, v] for u, v in pairs], dtype=np.float64)
    except KeyError as missing:
        raise IndexSetMismatch(f"truth lacks entry {missing.args[0]}") from None


def coverage_audit(
    truth: Mapping[tuple[int, int], float] | np.ndarray,
    grids: Sequence[IntervalGrid],
) -> CoverageSummary:
    """Fraction of grids whose intervals strictly contain the truth.

    All grids must share one pair set. Containment is strict, so a
    zero-width interval never covers and an infinite one always does.
    ``mean_width`` averages over entries and grids together.
    """
    if not grids:
        raise IndexSetMismatch("need at least one interval grid")
    pairs = grids[0].pairs
    for g in grids[1:]:
        if g.pairs != pairs:
            raise IndexSetMismatch("interval grids disagree on their entries")
    target = _truth_values(truth, pairs)
    hits = np.zeros(len(pairs))
    width_total = 0.0
    for g in grids:
        hits += (g.lower < target) & (target < g.upper)
        width_total += float(np.mean(g.width))
    per_entry = hits / len(grids)
    return CoverageSummary(
        pairs=pairs,
        per_entry=_frozen(per_entry),
        mean_coverage=float(per_entry.mean()),
        median_coverage=float(np.median(per_entry)),
        mean_width=width_total / len(grids),
        n_grids=len(grids),
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
    fitted marginal sd sqrt(|mu_j|^2 + delta_j^2). Rows are assumed
    centered; a well-calibrated model scores close to 1 - alpha.
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
    test: DataMatrix,
    target_indices: Sequence[int],
    extra_indices: Sequence[int] = (),
    **fit_options,
) -> float:
    """Held-out log-likelihood of the fitted target-block covariance.

    Fits on the train rows of the target columns plus any extra columns
    (extras sharpen the factor estimate but are not scored), extracts
    the target block of the factored posterior mean, and evaluates the
    test rows under it. Test columns are centered with the train means;
    the test matrix must have exactly the target columns, in order.
    """
    if not train.centered:
        raise ValueError("train data must be centered")
    targets, extras = _check_disjoint_indices(target_indices, extra_indices, train.p)
    if test.p != len(targets):
        raise DimensionMismatch(
            f"test has {test.p} columns but {len(targets)} targets were named"
        )
    cols = targets + extras
    sub = DataMatrix(
        train.values[:, cols],
        centered=True,
        column_means=train.column_means[cols],
    )
    model = fit(sub, **fit_options)
    t = len(targets)
    block = StructuredCovariance(model.mu[:t], model.delta_sq[:t])
    if test.centered:
        test_vals = test.values
    else:
        test_vals = test.values - train.column_means[targets]
    return gaussian_loglik(test_vals, block)
