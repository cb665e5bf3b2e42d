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

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._special import gammaincinv, ndtri
from .errors import (
    GammaTooSmall,
    IndexOutOfRange,
    InvalidOption,
    InvalidSampleCount,
    NonFinite,
    TooFewSamples,
)
from .linalg import StructuredCovariance, _frozen
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

# Draws kept for the quantiles of sample_entry_stats: the first ones.
_RESERVOIR = 10_000


@dataclass(frozen=True)
class RngSpec:
    """Root seed for the sampling streams.

    ``uniform_block(t, p, k, rows)`` returns rows ``rows`` (default all)
    of the (p, k + 1) uniform block that draw t consumes: column 0 drives
    the noise variances, the rest the loading rows.
    """

    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidOption(f"seed must be a nonnegative integer, got {self.seed!r}")

    def generator(self, t: int) -> np.random.Generator:
        if t < 0:
            raise InvalidOption(f"draw index must be nonnegative, got {t}")
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence((self.seed, t)))
        )

    def uniform_block(
        self, t: int, p: int, k: int, rows: slice | np.ndarray = slice(None)
    ) -> np.ndarray:
        # The whole block is drawn, so row j reads the same uniforms
        # whichever rows are asked for; only those rows are clipped.
        block = self.generator(t).random((p, k + 1))[rows]
        return np.clip(block, _UNIFORM_LO, _UNIFORM_HI, out=block)


@dataclass(frozen=True)
class CovarianceSample:
    """One posterior draw: covariance = loadings @ loadings.T + diag(noise_sq)."""

    index: int
    loadings: np.ndarray
    noise_sq: np.ndarray


@dataclass(frozen=True)
class EntryStats:
    """Streamed summaries of m covariance entries across draws.

    ``mean`` and ``sd`` are (m,) arrays in entry order, and ``quantiles``
    maps each level to an (m,) array. ``exact`` is False when quantiles
    came from the first 10,000 draws rather than every draw (mean and sd
    always use every draw).
    """

    mean: np.ndarray
    sd: np.ndarray
    quantiles: dict[float, np.ndarray]
    n_samples: int
    exact: bool


def draw_sample(model: FableModel, t: int, rng: RngSpec) -> CovarianceSample:
    """Draw number t from the surrogate posterior.

    Noise variance j inverts the Inverse-Gamma CDF at the block's first
    uniform; the loading row then adds rho * sigma_j / sqrt(n + 1/tau^2)
    times a standard normal vector. A model with rho 0 collapses the
    loadings to their posterior mean, which is occasionally useful.
    """
    return _draw_rows(model, t, rng, slice(None))


def _draw_rows(
    model: FableModel, t: int, rng: RngSpec, rows: slice | np.ndarray
) -> CovarianceSample:
    """Rows ``rows`` of draw t, in that order.

    Only the rows' uniforms go through the inverse CDFs. Every step is
    elementwise, so the result equals the same rows of the full draw bit
    for bit. A draw past the double range raises :class:`NonFinite`.
    """
    block = rng.uniform_block(t, model.p, model.k, rows)
    gamma_draw = gammaincinv(model.gamma_n / 2.0, block[:, 0])
    noise_sq = (model.gamma_n * model.delta_sq[rows] / 2.0) / gamma_draw
    scale = model.rho * np.sqrt(noise_sq * model.posterior_scale_sq)
    loadings = model.mu[rows] + scale[:, None] * ndtri(block[:, 1:])
    if not (np.isfinite(noise_sq).all() and np.isfinite(loadings).all()):
        j = np.flatnonzero(~(np.isfinite(noise_sq) & np.isfinite(loadings).all(axis=1)))[0]
        raise NonFinite(f"draw {t} is not finite at row {np.arange(model.p)[rows][j]}")
    return CovarianceSample(index=t, loadings=loadings, noise_sq=noise_sq)


def _check_count(n_samples: int) -> int:
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise InvalidSampleCount(f"n_samples must be a positive integer, got {n_samples!r}")
    return int(n_samples)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _in_order(fn: Callable, items: Iterable, threads: int) -> Iterator:
    """Yield ``fn(item)`` for each of ``items``, in order: made here at one
    thread, else by min(threads, CPUs) pool threads with 4 calls per thread
    in flight, so they keep going while the consumer handles a result."""
    workers = min(threads, _cpu_count())
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    todo = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            pending.extend(pool.submit(fn, item) for item in islice(todo, 4 * workers))
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(fn, item) for item in islice(todo, 1))
                yield result
        finally:  # an error or an early close leaves no queued call behind
            for future in pending:
                future.cancel()


def draw_samples(
    model: FableModel,
    n_samples: int,
    rng: RngSpec,
    *,
    threads: int = 1,
    start: int = 1,
) -> Iterator[CovarianceSample]:
    """Lazily stream n_samples posterior draws with indices start,
    start+1, ...

    Thread count affects wall time only, never values.
    """
    n_samples = _check_count(n_samples)
    # the index range is checked now, not when the stream is first read,
    # so a refused run opens no output; a stream stores each index in 64 bits
    if not isinstance(start, (int, np.integer)) or not 0 <= start <= 2**64 - n_samples:
        raise InvalidOption(
            f"draw indices must lie in [0, 2**64), got {start} to {start + n_samples - 1}"
        )
    indices = range(start, start + n_samples)
    # draw_sample is looked up per call, so wrappers of it see every draw
    return _in_order(lambda t: draw_sample(model, t, rng), indices, threads)


def _entry_set(
    indices: Sequence[tuple[int, int]] | np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """The covariance entries ``indices``, a list of (u, v) pairs or an
    (m, 2) integer array, as two read-only intp arrays u and v in entry
    order, every index checked against [0, p)."""
    uv = np.asarray(indices if len(indices) else np.empty((0, 2), np.intp))
    if uv.ndim != 2 or uv.shape[1] != 2 or uv.dtype.kind not in "iu":
        raise InvalidOption(f"entries must be integer (u, v) pairs, got {uv.shape} {uv.dtype}")
    if len(uv) and (uv.min() < 0 or uv.max() >= p):
        first = np.flatnonzero(((uv < 0) | (uv >= p)).any(axis=1))[0]
        u, v = uv[first].tolist()
        raise IndexOutOfRange(f"entry ({u}, {v}) outside a {p} x {p} matrix")
    return _frozen(uv[:, 0], np.intp), _frozen(uv[:, 1], np.intp)


def _upper_pairs(idx: Sequence[int]) -> np.ndarray:
    """The (m, 2) entries (idx[i], idx[j]), i <= j, row by row: the upper
    triangle of the submatrix that the index list ``idx`` selects."""
    return np.asarray(idx, dtype=np.intp)[np.stack(np.triu_indices(len(idx)), axis=1)]


def _entry_values(
    loadings: np.ndarray, diag: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Entries (u[e], v[e]) of loadings @ loadings.T + diag(diag): the one
    kernel every covariance entry fable reports goes through."""
    out = np.einsum("ek,ek->e", loadings[u], loadings[v])
    on_diag = u == v
    out[on_diag] += diag[u[on_diag]]
    return out


def posterior_mean(
    model: FableModel,
    *,
    form: str = "factored",
    indices: Sequence[tuple[int, int]] | np.ndarray | None = None,
):
    """Closed-form posterior mean of the covariance.

    form="factored" returns the low-rank-plus-diagonal surrogate
    mu @ mu.T + diag(delta_sq) as a :class:`StructuredCovariance`; this
    is the estimator used throughout and what the simulation studies
    score. form="dense_entrywise" returns the exact entrywise mean
    E[lambda_u . lambda_v + sigma_u^2 1(u=v)] of the entries ``indices``
    (a list of (u, v) pairs or an (m, 2) array) as an (m,) array; on the
    diagonal it exceeds the factored value by the mean noise inflation,
    which vanishes at rate 1/n.
    """
    if form == "factored":
        return StructuredCovariance(model.mu, model.delta_sq)
    if form != "dense_entrywise":
        raise InvalidOption(f"unknown form {form!r}")
    if indices is None:
        raise InvalidOption("dense_entrywise needs explicit index pairs")
    if model.gamma_n <= 2:
        raise GammaTooSmall(
            f"noise mean needs gamma_n > 2, got {model.gamma_n}"
        )
    noise_mean = model.gamma_n * model.delta_sq / (model.gamma_n - 2.0)
    inflation = 1.0 + model.k * model.rho**2 * model.posterior_scale_sq
    u, v = _entry_set(indices, model.p)
    means = _entry_values(model.mu, inflation * noise_mean, u, v)
    bad = np.flatnonzero(~np.isfinite(means))
    if bad.size:
        e = bad[0]
        raise NonFinite(
            f"posterior mean of entry ({u[e]}, {v[e]}) overflows at rho={model.rho!r} "
            f"({bad.size} of {means.size} entries)"
        )
    return means


def sample_entry_stats(
    model: FableModel,
    n_samples: int,
    rng: RngSpec,
    indices: Sequence[tuple[int, int]] | np.ndarray,
    *,
    quantiles: Sequence[float] = (0.025, 0.5, 0.975),
    threads: int = 1,
) -> EntryStats:
    """Mean, sd, and quantiles of the entries ``indices`` (a list of
    (u, v) pairs or an (m, 2) array) over draws, as (m,) arrays.

    Mean and sd are streamed over every draw; a draw, mean or sd past
    the double range is refused as :class:`NonFinite`. Quantiles use
    every draw when n_samples <= 10,000 and the first 10,000 otherwise
    (results then carry exact=False): the draws are independent, so any
    fixed 10,000 of them are a simple random sample. Each draw runs the
    inverse CDFs on the distinct rows of ``indices`` only; the values
    equal those of :func:`draw_sample`.
    """
    n_samples = _check_count(n_samples)
    if n_samples < 2:
        raise TooFewSamples("need at least 2 samples for a standard deviation")
    u, v = _entry_set(indices, model.p)
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise InvalidOption(f"quantile levels must lie in [0, 1], got {q}")
    # u_loc / v_loc index into the distinct rows, the only ones drawn
    rows, inverse = np.unique(np.concatenate((u, v)), return_inverse=True)
    u_loc, v_loc = inverse.reshape(2, -1)

    cap = min(n_samples, _RESERVOIR)
    buf = np.empty((cap, len(u)))
    s1, d1, d2 = np.zeros(len(u)), np.zeros(len(u)), np.zeros(len(u))
    draws = _in_order(lambda t: _draw_rows(model, t, rng, rows), range(1, n_samples + 1), threads)
    with np.errstate(over="ignore", invalid="ignore"):  # refused or mended below
        for seen, sample in enumerate(draws):
            vals = _entry_values(sample.loadings, sample.noise_sq, u_loc, v_loc)
            s1 += vals
            # deviations from the first draw, at the power of two of its values,
            # so their squares stay in range whatever the entries' scale
            if not seen:
                shift, scale = vals, -np.frexp(vals)[1]
            dev = np.ldexp(vals - shift, scale)
            d1 += dev
            d2 += dev * dev
            if seen < cap:
                buf[seen] = vals

        mean, var = s1 / n_samples, (d2 - d1 * d1 / n_samples) / (n_samples - 1)
        # where only the sum overflows, the mean comes from the deviations
        mean = np.where(np.isfinite(s1), mean, shift + np.ldexp(d1 / n_samples, -scale))
        sd = np.ldexp(np.sqrt(np.maximum(var, 0.0)), -scale)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(sd)))
    if bad.size:
        e = bad[0]
        raise NonFinite(f"entry ({u[e]}, {v[e]}) has mean {mean[e]} and sd {sd[e]} over the draws")
    qlevels = list(quantiles)
    # buf is not read again, so the quantiles may partition it in place
    qvals = np.quantile(buf, qlevels, axis=0, overwrite_input=True) if qlevels else []
    return EntryStats(
        mean=mean,
        sd=sd,
        quantiles=dict(zip(qlevels, qvals)),
        n_samples=n_samples,
        exact=n_samples <= cap,
    )
