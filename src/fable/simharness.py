"""Synthetic-truth studies: estimation error, coverage, and runtime.

A study draws one spike-and-slab truth per configuration, simulates R
data sets from it, fits the pipeline on each, and scores relative
spectral error of the factored posterior mean plus entrywise interval
coverage over a tracked submatrix. Every random stream is keyed off the
configuration seed, so rerunning a study reproduces it exactly, on any
thread count.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch, FableError, InvalidAlpha, InvalidOption, TooFewSamples
)
from .inference import _MIN_QUANTILE_SAMPLES, credible_intervals
from .linalg import (
    DataMatrix,
    LinearMap,
    StructuredCovariance,
    _center_in_place,
    covariance_difference,
    spectral_norm,
)
from .model import fit
from .sampler import (
    RngSpec, _check_count, _entry_values, _in_order, _upper_pairs, draw_samples,
    posterior_mean,
)

__all__ = [
    "SimulationConfig",
    "MetricRecord",
    "ConfigSummary",
    "StudyResult",
    "BenchmarkRow",
    "generate_truth",
    "generate_data",
    "generate_data_with_scores",
    "rel_spectral_error",
    "run_study",
    "runtime_benchmark",
]

# Stream tags: (seed, _TRUTH), (seed, _TRACKED), (seed, _DATA, r), ...
_TRUTH, _TRACKED, _DATA, _SAMPLER = 0, 1, 2, 3

# The truth's shape: a loading is zero with probability _ZERO_PROB, else
# a centered normal with sd _LOADING_SD; noise variances are uniform on
# _NOISE_RANGE.
_ZERO_PROB, _LOADING_SD, _NOISE_RANGE = 0.5, 0.5, (0.5, 5.0)

# Noise values drawn per block (whole rows, at least one) when building
# a data set: 256 KB, so the reused buffer stays small next to the data.
_NOISE_BLOCK = 1 << 15


@dataclass(frozen=True)
class SimulationConfig:
    """One cell of a simulation study; a ``fable simulate`` flag sets
    each field.

    The truth has ``k_true`` spike-and-slab factors (zero with
    probability 0.5, else normal with sd 0.5) and noise variances uniform
    on [0.5, 5]; every replicate is fitted at rank ``k_true``.
    """

    n: int
    p: int
    k_true: int = 10
    replicates: int = 100
    seed: int = 0
    tracked: int = 100
    alpha: float = 0.05
    interval_method: str = "asymptotic"
    n_samples: int = 1000

    def __post_init__(self) -> None:
        if self.n < 2 or self.p < 1:
            raise DimensionMismatch(f"need n >= 2 and p >= 1, got {self.n}, {self.p}")
        if not 1 <= self.k_true <= min(self.n, self.p):
            raise InvalidOption(f"k_true={self.k_true} outside [1, min(n, p)]")
        # numpy cannot shape the n x p data past this; p * k_true <= n * p
        if self.n * self.p > sys.maxsize // 8:
            raise InvalidOption(f"n x p = {self.n} x {self.p} is too large for one array")
        if self.seed < 0:
            raise InvalidOption(f"seed must be nonnegative, got {self.seed}")
        if self.replicates < 1:
            raise InvalidOption("replicates must be >= 1")
        if not 1 <= self.tracked <= self.p:
            raise InvalidOption(f"tracked={self.tracked} outside [1, p]")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidAlpha(f"alpha must be in (0, 1), got {self.alpha}")
        if self.interval_method not in ("asymptotic", "sample_quantile"):
            raise InvalidOption(f"unknown interval_method {self.interval_method!r}")
        sampled = self.interval_method == "sample_quantile"
        if sampled and self.n_samples < _MIN_QUANTILE_SAMPLES:
            raise TooFewSamples(
                f"sample_quantile needs n_samples >= {_MIN_QUANTILE_SAMPLES}, got {self.n_samples}"
            )

    @property
    def config_id(self) -> str:
        return f"n{self.n}_p{self.p}_k{self.k_true}"


@dataclass
class MetricRecord:
    """Per-replicate outcomes; NaNs plus an error string on failure."""

    config_id: str
    replicate: int
    rel_error: float = np.nan
    coverage: float = np.nan
    mean_width: float = np.nan
    fit_seconds: float = np.nan
    sample_seconds: float = np.nan
    error: str | None = None


@dataclass(frozen=True)
class ConfigSummary:
    config_id: str
    n: int
    p: int
    k_true: int
    replicates_done: int
    failures: int
    mean_rel_error: float
    median_rel_error: float
    mean_coverage: float
    median_coverage: float
    mean_width: float


@dataclass(frozen=True)
class StudyResult:
    records: list[MetricRecord]
    summaries: list[ConfigSummary]


@dataclass(frozen=True)
class BenchmarkRow:
    """Median wall-clock seconds at one problem size."""

    n: int
    p: int
    n_samples: int
    fit_seconds: float
    sample_seconds: float
    mean_seconds: float


def generate_truth(
    config: SimulationConfig, rng: np.random.Generator
) -> StructuredCovariance:
    """Draw the spike-and-slab truth for a configuration.

    Consumption order is fixed (spike uniforms, slab normals, noise
    uniforms) so a given generator state always yields the same truth.
    """
    p, k = config.p, config.k_true
    spikes = rng.random((p, k))
    slabs = rng.normal(0.0, _LOADING_SD, (p, k))
    loadings = np.where(spikes < _ZERO_PROB, 0.0, slabs)
    noise = rng.uniform(*_NOISE_RANGE, p)
    return StructuredCovariance(loadings, noise)


def generate_data_with_scores(
    truth: StructuredCovariance, n: int, rng: np.random.Generator
) -> tuple[DataMatrix, np.ndarray]:
    """Like :func:`generate_data`, but also return the n x k factor scores.

    The data set is one n x p array: the loading product ``eta @ L'`` is
    formed once, the noise is drawn in row blocks into one reused buffer,
    scaled and added in place, and the sum is centered in place. The
    generator fills in sequence, so every noise value is the one a single
    (n, p) draw gives, and the data have the bits of
    ``eps * sqrt(diag) + eta @ L'``, centered.

    The scores are the raw draws, not centered; callers comparing against
    the fitted column basis should center them the same way the data is.
    """
    eta = rng.standard_normal((n, truth.k))
    y = eta @ truth.loadings.T
    sd = np.sqrt(truth.diag)
    rows = max(1, _NOISE_BLOCK // truth.p)
    buf = np.empty((min(rows, n), truth.p))
    for start in range(0, n, rows):
        block = buf[: min(rows, n - start)]
        rng.standard_normal(out=block)
        block *= sd
        y[start : start + len(block)] += block
    return _center_in_place(y, stacklevel=3), eta


def generate_data(
    truth: StructuredCovariance, n: int, rng: np.random.Generator
) -> DataMatrix:
    """Draw n rows y = eta @ loadings.T + eps from the truth, then center."""
    data, _ = generate_data_with_scores(truth, n, rng)
    return data


def rel_spectral_error(
    truth: StructuredCovariance,
    estimate: StructuredCovariance,
    *,
    truth_norm: float | None = None,
    tol: float = 1e-6,
) -> float:
    """Spectral norm of (truth - estimate) over the spectral norm of truth.

    Both operands stay in factored form; the p x p matrices are never
    assembled. Pass ``truth_norm`` to reuse a precomputed denominator
    across replicates.
    """
    num = spectral_norm(covariance_difference(truth, estimate), tol=tol)
    if truth_norm is None:
        truth_norm = spectral_norm(
            LinearMap(shape=(truth.p, truth.p), matvec=truth.matvec), tol=tol
        )
    return num / truth_norm


def _tracked_pairs(config: SimulationConfig) -> np.ndarray:
    """The (m, 2) entries of the tracked submatrix's upper triangle."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _TRACKED)))
    return _upper_pairs(rng.permutation(config.p)[: config.tracked])


def _sampler_seed(config_seed: int, replicate: int) -> int:
    state = np.random.SeedSequence((config_seed, _SAMPLER, replicate)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _run_replicate(config, truth, truth_norm, pairs, truth_vals, replicate):
    record = MetricRecord(config.config_id, replicate)
    try:
        data_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, _DATA, replicate))
        )
        dm = generate_data(truth, config.n, data_rng)
        t0 = time.perf_counter()
        model = fit(dm, k=config.k_true)
        record.fit_seconds = time.perf_counter() - t0
        estimate = posterior_mean(model)
        record.rel_error = rel_spectral_error(truth, estimate, truth_norm=truth_norm)
        t1 = time.perf_counter()
        # asymptotic intervals draw nothing and read neither n_samples nor rng
        grid = credible_intervals(
            model,
            pairs,
            alpha=config.alpha,
            method=config.interval_method,
            n_samples=config.n_samples,
            rng=RngSpec(_sampler_seed(config.seed, replicate)),
        )
        sampled = config.interval_method == "sample_quantile"
        record.sample_seconds = time.perf_counter() - t1 if sampled else 0.0
        covered = (grid.lower < truth_vals) & (truth_vals < grid.upper)
        record.coverage = float(np.mean(covered))
        record.mean_width = float(np.mean(grid.width))
    except FableError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def run_study(
    configs: Sequence[SimulationConfig], *, threads: int = 1
) -> StudyResult:
    """Run every configuration and aggregate per-config summaries.

    Replicate failures are captured in their records (``error`` set,
    metrics NaN) and counted in the summary; the study keeps going.
    Thread count affects wall time only.
    """
    records: list[MetricRecord] = []
    summaries: list[ConfigSummary] = []
    for config in configs:
        truth_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, _TRUTH))
        )
        truth = generate_truth(config, truth_rng)
        truth_norm = spectral_norm(
            LinearMap(shape=(truth.p, truth.p), matvec=truth.matvec), tol=1e-6
        )
        pairs = _tracked_pairs(config)
        truth_vals = _entry_values(truth.loadings, truth.diag, *pairs.T)
        reps = range(1, config.replicates + 1)
        one = partial(_run_replicate, config, truth, truth_norm, pairs, truth_vals)
        config_records = list(_in_order(one, reps, threads))
        records.extend(config_records)
        ok = [r for r in config_records if r.error is None]
        failures = len(config_records) - len(ok)
        rel = np.array([r.rel_error for r in ok])
        cov = np.array([r.coverage for r in ok])
        wid = np.array([r.mean_width for r in ok])
        summaries.append(
            ConfigSummary(
                config_id=config.config_id,
                n=config.n,
                p=config.p,
                k_true=config.k_true,
                replicates_done=len(ok),
                failures=failures,
                mean_rel_error=float(rel.mean()) if ok else np.nan,
                median_rel_error=float(np.median(rel)) if ok else np.nan,
                mean_coverage=float(cov.mean()) if ok else np.nan,
                median_coverage=float(np.median(cov)) if ok else np.nan,
                mean_width=float(wid.mean()) if ok else np.nan,
            )
        )
    return StudyResult(records=records, summaries=summaries)


def runtime_benchmark(
    p_grid: Sequence[int],
    *,
    n: int = 500,
    k_true: int = 10,
    n_samples: int = 1000,
    repeats: int = 3,
    seed: int = 0,
) -> list[BenchmarkRow]:
    """Median wall-clock time of fitting, sampling, and the posterior
    mean across a grid of dimensions.

    One truth and one data set per p; ``repeats`` (at least 1) timed
    passes each.
    """
    if not repeats >= 1:
        raise InvalidOption(f"repeats must be at least 1, got {repeats}")
    _check_count(n_samples)
    rows = []
    for p in p_grid:
        # tracked is unused here; 1 keeps the config valid at any p
        config = SimulationConfig(
            n=n, p=int(p), k_true=k_true, replicates=1, seed=seed, tracked=1
        )
        truth = generate_truth(
            config,
            np.random.default_rng(np.random.SeedSequence((seed, _TRUTH, int(p)))),
        )
        data_rng = np.random.default_rng(
            np.random.SeedSequence((seed, _DATA, int(p)))
        )
        dm = generate_data(truth, n, data_rng)
        fit_times, sample_times, mean_times = [], [], []
        for rep in range(repeats):
            t0 = time.perf_counter()
            model = fit(dm, k=k_true)
            fit_times.append(time.perf_counter() - t0)

            t1 = time.perf_counter()
            rng = RngSpec(_sampler_seed(seed, int(p) * 1000 + rep))
            for _ in draw_samples(model, n_samples, rng):
                pass
            sample_times.append(time.perf_counter() - t1)

            t2 = time.perf_counter()
            posterior_mean(model)
            mean_times.append(time.perf_counter() - t2)
        rows.append(
            BenchmarkRow(
                n=n,
                p=int(p),
                n_samples=n_samples,
                fit_seconds=float(np.median(fit_times)),
                sample_seconds=float(np.median(sample_times)),
                mean_seconds=float(np.median(mean_times)),
            )
        )
    return rows
