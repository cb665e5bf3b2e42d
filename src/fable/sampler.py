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
from itertools import chain, islice
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
# What one chunk of sample_entry_stats' draws may hold (README, "Sampling").
_CHUNK_BYTES = 2**22
# From rows * _CROSSOVER >= p on, numpy's C generator makes the whole block
# faster than the kernel makes the rows (a sweep at p = 5000 and 20000).
_CROSSOVER = 10
# Philox4x64-10 (Salmon et al., SC 2011): round multipliers, key bumps.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(m: int, x):
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi, x_lo, x_hi = m & 0xFFFFFFFF, m >> 32, x & 0xFFFFFFFF, x >> 32
    t = x_hi * m_lo + (x_lo * m_lo >> 32)
    w = (t & 0xFFFFFFFF) + x_lo * m_hi
    return x_hi * m_hi + (t >> 32) + (w >> 32), x * m


@dataclass(frozen=True)
class RngSpec:
    """Root seed for the sampling streams.

    ``uniform_block(t, p, k, rows)`` returns rows ``rows`` (default all)
    of the (p, k + 1) uniform block that draw t consumes: column 0 drives
    the noise variances, the rest the loading rows. For a sequence of
    draws t it returns their blocks' rows as one (len(t), r, k + 1) array.
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
        self, t: int | Sequence[int], p: int, k: int, rows: slice | np.ndarray = slice(None)
    ) -> np.ndarray:
        # Row j reads the same uniforms whichever rows are asked for, from
        # the whole block or from its own counters; only they are clipped.
        ts, picked = ([t] if np.ndim(t) == 0 else t), np.arange(p)[rows]
        if len(picked) * _CROSSOVER < p and min(ts) >= 0:  # generator refuses t < 0
            block = self._philox_rows(ts, k, picked)
        else:
            blocks = [self.generator(s).random((p, k + 1))[rows] for s in ts]
            block = np.stack(blocks) if len(blocks) > 1 else blocks[0][None]
        np.clip(block, _UNIFORM_LO, _UNIFORM_HI, out=block)
        return block if np.ndim(t) else block[0]

    def _philox_rows(self, ts: Sequence[int], k: int, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of the blocks of draws ``ts`` as numpy's Philox fills
        them, running only their counters: word i = j (k + 1) + c of draw t is
        word i % 4 at counter (i // 4 + 1, 0, 0, 0), keyed by SeedSequence((seed, t))."""
        words = rows[:, None] * (k + 1) + np.arange(k + 1)
        counters, at = np.unique(words // 4, return_inverse=True)
        keys = [np.random.SeedSequence((self.seed, t)).generate_state(2, np.uint64) for t in ts]
        k0, k1 = np.array(keys).reshape(-1, 2).T[:, :, None]
        x0, x1, x2, x3 = counters.astype(np.uint64) + 1, 0, 0, 0
        for _ in range(10):  # the key is bumped after each round
            (hi0, lo0), (hi1, lo1) = _mulhilo(_PHILOX_M[0], x0), _mulhilo(_PHILOX_M[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        out = np.stack((x0, x1, x2, x3), axis=-1).reshape(len(ts), -1)
        return (out[:, at.reshape(words.shape) * 4 + words % 4] >> 11) * 2.0**-53


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
    """Rows ``rows`` of draw t, in that order."""
    loadings, noise_sq = _draw_chunk(model, [t], rng, rows)
    return CovarianceSample(index=t, loadings=loadings[0], noise_sq=noise_sq[0])


def _draw_chunk(
    model: FableModel, ts: Sequence[int], rng: RngSpec, rows: slice | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of each draw in ``ts``: loadings (len(ts), r, k) and
    noise variances (len(ts), r).

    Only the rows' uniforms go through the inverse CDFs. Every step is
    elementwise, so the result equals the same rows of the full draws bit
    for bit. A draw past the double range raises :class:`NonFinite`.
    """
    block = rng.uniform_block(ts, model.p, model.k, rows)
    gamma_draw = gammaincinv(model.gamma_n / 2.0, block[..., 0].ravel()).reshape(block.shape[:2])
    noise_sq = (model.gamma_n * model.delta_sq[rows] / 2.0) / gamma_draw
    scale = model.rho * np.sqrt(noise_sq * model.posterior_scale_sq)
    loadings = model.mu[rows] + scale[..., None] * ndtri(block[..., 1:])
    if not (np.isfinite(noise_sq).all() and np.isfinite(loadings).all()):
        i, j = np.argwhere(~(np.isfinite(noise_sq) & np.isfinite(loadings).all(axis=-1)))[0]
        raise NonFinite(f"draw {ts[i]} is not finite at row {np.arange(model.p)[rows][j]}")
    return loadings, noise_sq


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
    out = np.einsum("ek,ek->e", loadings.take(u, axis=0), loadings.take(v, axis=0))
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
    fixed 10,000 of them are a simple random sample. Draws are made a
    chunk at a time, each running the inverse CDFs on the distinct rows
    of ``indices`` only; the values equal those of :func:`draw_sample`.
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
    # chunks of about _CHUNK_BYTES, none running past the reservoir's end
    size = max(1, _CHUNK_BYTES // (8 * len(u) + 48 * len(rows) * (model.k + 1)))
    starts = [*range(1, cap + 1, size), *range(cap + 1, n_samples + 1, size)]

    def entries(ts: range) -> np.ndarray:  # in the reservoir while it lasts
        loadings, noise_sq = _draw_chunk(model, ts, rng, rows)
        vals = buf[ts[0] - 1 : ts[-1]] if ts[-1] <= cap else np.empty((len(ts), len(u)))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            for i in range(len(ts)):
                vals[i] = _entry_values(loadings[i], noise_sq[i], u_loc, v_loc)
        return vals

    s1, d1, d2 = np.zeros(len(u)), np.zeros(len(u)), np.zeros(len(u))
    chunks = _in_order(entries, map(range, starts, [*starts[1:], n_samples + 1]), threads)
    with np.errstate(over="ignore", invalid="ignore"):  # refused or mended below
        for seen, vals in enumerate(chain.from_iterable(chunks)):
            s1 += vals
            # deviations from the first draw, at the power of two of its values,
            # so their squares stay in range whatever the entries' scale
            if not seen:
                shift, scale = vals, -np.frexp(vals)[1]
            dev = np.ldexp(vals - shift, scale)
            d1 += dev
            d2 += dev * dev

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
