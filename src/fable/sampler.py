"""Monte Carlo draws from the fitted covariance posterior.

Each draw t is an independent (loadings, noise) pair: noise variances
come from per-variable Inverse-Gamma marginals and loading rows from
Gaussians centered at the posterior mean, inflated by the model's rho.
Draws are generated from counter-based substreams keyed by (seed, t)
with variable j reading row j of the draw's uniform block, so results
are bit-identical for any thread count, chunking, or subset of draw
indices, and all randomness flows through fixed-consumption inverse-CDF
transforms.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._special import gammaincinv, ndtri
from .errors import (
    GammaTooSmall,
    IndexOutOfRange,
    InvalidSampleCount,
    TooFewSamples,
)
from .linalg import StructuredCovariance
from .model import FableModel

__all__ = [
    "RngSpec",
    "CovarianceSample",
    "EntryStats",
    "draw_sample",
    "draw_samples",
    "posterior_mean",
    "sample_entry_stats",
]

# Clip uniforms away from {0, 1}: the inverse CDFs map the endpoints to
# +/- infinity.
_UNIFORM_LO = 2.0**-53
_UNIFORM_HI = 1.0 - 2.0**-53

# Tag mixed into the seed for auxiliary randomness (reservoir slots);
# far larger than any plausible draw index, so the streams never collide.
_RESERVOIR_TAG = int.from_bytes(b"reservoir", "big")


@dataclass(frozen=True)
class RngSpec:
    """Root seed for the sampling streams.

    ``uniform_block(t, p, k)`` returns the (p, k + 1) uniform block that
    draw t consumes: column 0 drives the noise variances, the rest the
    loading rows.
    """

    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def generator(self, t: int) -> np.random.Generator:
        if t < 0:
            raise ValueError(f"draw index must be nonnegative, got {t}")
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence((self.seed, t)))
        )

    def uniform_block(self, t: int, p: int, k: int) -> np.ndarray:
        block = self.generator(t).random((p, k + 1))
        return np.clip(block, _UNIFORM_LO, _UNIFORM_HI)


@dataclass(frozen=True)
class CovarianceSample:
    """One posterior draw: covariance = loadings @ loadings.T + diag(noise_sq)."""

    index: int
    loadings: np.ndarray
    noise_sq: np.ndarray

    def entry(self, u: int, v: int) -> float:
        val = float(self.loadings[u] @ self.loadings[v])
        if u == v:
            val += float(self.noise_sq[u])
        return val

    def dense(self) -> np.ndarray:
        return self.loadings @ self.loadings.T + np.diag(self.noise_sq)


@dataclass(frozen=True)
class EntryStats:
    """Streamed summaries of one covariance entry across draws.

    ``exact`` is False when quantiles came from a reservoir subsample
    rather than the full draw sequence (mean and sd always use every
    draw).
    """

    mean: float
    sd: float
    quantiles: dict[float, float]
    n_samples: int
    exact: bool


def _effective_rho(model: FableModel, rho: float | None) -> float:
    if rho is None:
        return model.rho
    if rho < 0 or not np.isfinite(rho):
        raise ValueError(f"rho must be finite and nonnegative, got {rho}")
    return float(rho)


def draw_sample(
    model: FableModel,
    t: int,
    rng: RngSpec,
    *,
    rho: float | None = None,
) -> CovarianceSample:
    """Draw number t from the surrogate posterior.

    Noise variance j inverts the Inverse-Gamma CDF at the block's first
    uniform; the loading row then adds rho * sigma_j / sqrt(n + 1/tau^2)
    times a standard normal vector. ``rho=0`` collapses the loadings to
    their posterior mean, which is occasionally useful for testing.
    """
    return _draw_rows(model, t, rng, _effective_rho(model, rho), slice(None))


def _draw_rows(
    model: FableModel, t: int, rng: RngSpec, r: float, rows: slice | np.ndarray
) -> CovarianceSample:
    """Rows ``rows`` of draw t, in that order.

    The whole uniform block is generated so that row j reads the same
    uniforms whichever rows are asked for; only the selected rows are
    clipped as in ``RngSpec.uniform_block`` and go through the inverse
    CDFs. Every step is elementwise, so the result equals the same rows
    of the full draw bit for bit.
    """
    block = rng.generator(t).random((model.p, model.k + 1))[rows]
    np.clip(block, _UNIFORM_LO, _UNIFORM_HI, out=block)
    gamma_draw = gammaincinv(model.gamma_n / 2.0, block[:, 0])
    noise_sq = (model.gamma_n * model.delta_sq[rows] / 2.0) / gamma_draw
    scale = r * np.sqrt(noise_sq * model.posterior_scale_sq)
    loadings = model.mu[rows] + scale[:, None] * ndtri(block[:, 1:])
    return CovarianceSample(index=t, loadings=loadings, noise_sq=noise_sq)


def _check_count(n_samples: int) -> int:
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise InvalidSampleCount(f"n_samples must be a positive integer, got {n_samples!r}")
    return int(n_samples)


def _iter_draws(
    model: FableModel,
    indices: Sequence[int],
    rng: RngSpec,
    rho: float | None,
    threads: int,
    rows: np.ndarray | None = None,
) -> Iterator[CovarianceSample]:
    """Draws ``indices`` in order; only ``rows`` of each when given."""
    r = _effective_rho(model, rho)

    def draw(t: int) -> CovarianceSample:
        if rows is None:  # full draws stay visible to wrappers of draw_sample
            return draw_sample(model, t, rng, rho=r)
        return _draw_rows(model, t, rng, r, rows)

    if threads <= 1:
        for t in indices:
            yield draw(t)
        return
    chunk = 4 * threads
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for lo in range(0, len(indices), chunk):
            yield from pool.map(draw, indices[lo : lo + chunk])


def draw_samples(
    model: FableModel,
    n_samples: int,
    rng: RngSpec,
    *,
    rho: float | None = None,
    threads: int = 1,
    start: int = 1,
) -> Iterator[CovarianceSample]:
    """Lazily stream n_samples posterior draws with indices start,
    start+1, ...

    Thread count affects wall time only, never values.
    """
    n_samples = _check_count(n_samples)
    indices = range(start, start + n_samples)
    return _iter_draws(model, indices, rng, rho, threads)


def _check_pairs(
    indices: Sequence[tuple[int, int]], p: int
) -> list[tuple[int, int]]:
    pairs = []
    for pair in indices:
        u, v = int(pair[0]), int(pair[1])
        if not (0 <= u < p and 0 <= v < p):
            raise IndexOutOfRange(f"entry ({u}, {v}) outside a {p} x {p} matrix")
        pairs.append((u, v))
    return pairs


def posterior_mean(
    model: FableModel,
    *,
    form: str = "factored",
    indices: Sequence[tuple[int, int]] | None = None,
):
    """Closed-form posterior mean of the covariance.

    form="factored" returns the low-rank-plus-diagonal surrogate
    mu @ mu.T + diag(delta_sq) as a :class:`StructuredCovariance`; this
    is the estimator used throughout and what the simulation studies
    score. form="dense_entrywise" returns the exact entrywise mean
    E[lambda_u . lambda_v + sigma_u^2 1(u=v)] for the requested index
    pairs as a dict; on the diagonal it exceeds the factored value by
    the mean noise inflation, which vanishes at rate 1/n.
    """
    if form == "factored":
        return StructuredCovariance(model.mu, model.delta_sq)
    if form != "dense_entrywise":
        raise ValueError(f"unknown form {form!r}")
    if indices is None:
        raise ValueError("dense_entrywise needs explicit index pairs")
    if model.gamma_n <= 2:
        raise GammaTooSmall(
            f"noise mean needs gamma_n > 2, got {model.gamma_n}"
        )
    pairs = _check_pairs(indices, model.p)
    noise_mean = model.gamma_n * model.delta_sq / (model.gamma_n - 2.0)
    inflation = 1.0 + model.k * model.rho**2 * model.posterior_scale_sq
    out: dict[tuple[int, int], float] = {}
    for u, v in pairs:
        val = float(model.mu[u] @ model.mu[v])
        if u == v:
            val += float(inflation * noise_mean[u])
        out[(u, v)] = val
    return out


def sample_entry_stats(
    model: FableModel,
    n_samples: int,
    rng: RngSpec,
    indices: Sequence[tuple[int, int]],
    *,
    rho: float | None = None,
    quantiles: Sequence[float] = (0.025, 0.5, 0.975),
    threads: int = 1,
    reservoir: int = 10_000,
) -> dict[tuple[int, int], EntryStats]:
    """Mean, sd, and quantiles of selected covariance entries over draws.

    Mean and sd are streamed over every draw. Quantiles use the full
    draw sequence when n_samples <= ``reservoir`` and an Algorithm-R
    subsample of that size otherwise (results then carry exact=False).
    Reservoir decisions consume a dedicated substream, so outputs stay
    independent of the thread count. Each draw runs the inverse CDFs on
    the distinct rows of ``indices`` only; the values equal those of
    :func:`draw_sample`.
    """
    n_samples = _check_count(n_samples)
    if n_samples < 2:
        raise TooFewSamples("need at least 2 samples for a standard deviation")
    pairs = _check_pairs(indices, model.p)
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile levels must lie in [0, 1], got {q}")
    uv = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    # u_loc / v_loc index into the distinct rows, the only ones drawn
    rows, inverse = np.unique(uv, return_inverse=True)
    u_loc, v_loc = inverse.reshape(uv.shape).T
    diag_mask = (uv[:, 0] == uv[:, 1]).astype(np.float64)

    cap = min(n_samples, reservoir)
    buf = np.empty((cap, len(pairs)))
    res_rng = np.random.default_rng(
        np.random.SeedSequence((rng.seed, _RESERVOIR_TAG))
    )
    s1 = np.zeros(len(pairs))
    s2 = np.zeros(len(pairs))
    seen = 0
    draws = _iter_draws(model, range(1, n_samples + 1), rng, rho, threads, rows)
    for sample in draws:
        vals = (
            np.einsum("ek,ek->e", sample.loadings[u_loc], sample.loadings[v_loc])
            + diag_mask * sample.noise_sq[u_loc]
        )
        s1 += vals
        s2 += vals * vals
        if seen < cap:
            buf[seen] = vals
        else:
            slot = int(res_rng.integers(0, seen + 1))
            if slot < cap:
                buf[slot] = vals
        seen += 1

    mean = s1 / n_samples
    var = (s2 - n_samples * mean * mean) / (n_samples - 1)
    sd = np.sqrt(np.maximum(var, 0.0))
    exact = n_samples <= cap
    qlevels = list(quantiles)
    qvals = (
        np.quantile(buf, qlevels, axis=0) if qlevels else np.empty((0, len(pairs)))
    )
    out: dict[tuple[int, int], EntryStats] = {}
    for e, pair in enumerate(pairs):
        out[pair] = EntryStats(
            mean=float(mean[e]),
            sd=float(sd[e]),
            quantiles={q: float(qvals[i, e]) for i, q in enumerate(qlevels)},
            n_samples=n_samples,
            exact=exact,
        )
    return out
