"""Synthetic-truth studies: estimation error, coverage, and runtime.

A study draws one spike-and-slab truth per configuration, simulates R
data sets from it, fits the pipeline on each, and scores relative
spectral error of the factored posterior mean plus entrywise interval
coverage over a tracked submatrix. Every random stream is keyed off the
configuration seed, so rerunning a study reproduces it exactly, on any
thread count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, FableError
from .inference import CoverageSummary, coverage_audit, credible_intervals
from .linalg import (
    DataMatrix,
    LinearMap,
    StructuredCovariance,
    center_columns,
    covariance_difference,
    spectral_norm,
)
from .model import fit
from .sampler import RngSpec, draw_samples, posterior_mean

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


@dataclass(frozen=True)
class SimulationConfig:
    """One cell of a simulation study.

    The truth has spike-and-slab loadings (a zero atom with probability
    ``spike_prob``, else a centered normal with sd ``slab_sd``) and
    noise variances uniform on [noise_lo, noise_hi]. ``fit_rank`` is
    "true" to fix the rank at ``k_true``, "select" for the information
    criterion, or an explicit integer.
    """

    n: int
    p: int
    k_true: int = 10
    replicates: int = 100
    seed: int = 0
    spike_prob: float = 0.5
    slab_sd: float = 0.5
    noise_lo: float = 0.5
    noise_hi: float = 5.0
    tracked: int = 100
    alpha: float = 0.05
    fit_rank: int | str = "true"
    interval_method: str = "asymptotic"
    n_samples: int = 1000

    def __post_init__(self) -> None:
        if self.n < 2 or self.p < 1:
            raise DimensionMismatch(f"need n >= 2 and p >= 1, got {self.n}, {self.p}")
        if not 1 <= self.k_true <= min(self.n, self.p):
            raise ValueError(f"k_true={self.k_true} outside [1, min(n, p)]")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 1 <= self.tracked <= self.p:
            raise ValueError(f"tracked={self.tracked} outside [1, p]")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError("spike_prob must lie in [0, 1]")
        if not 0.0 < self.noise_lo <= self.noise_hi:
            raise ValueError("noise bounds must satisfy 0 < lo <= hi")
        if isinstance(self.fit_rank, str) and self.fit_rank not in ("true", "select"):
            raise ValueError(f"fit_rank must be 'true', 'select', or an int, got {self.fit_rank!r}")
        if self.interval_method not in ("asymptotic", "sample_quantile"):
            raise ValueError(f"unknown interval_method {self.interval_method!r}")

    @property
    def config_id(self) -> str:
        return f"n{self.n}_p{self.p}_k{self.k_true}"


@dataclass
class MetricRecord:
    """Per-replicate outcomes; NaNs plus an error string on failure."""

    config_id: str
    replicate: int
    rel_error: float
    coverage: float
    mean_width: float
    fit_seconds: float
    sample_seconds: float
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
    audits: dict[str, CoverageSummary]


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
    slabs = rng.normal(0.0, config.slab_sd, (p, k))
    loadings = np.where(spikes < config.spike_prob, 0.0, slabs)
    noise = rng.uniform(config.noise_lo, config.noise_hi, p)
    return StructuredCovariance(loadings, noise)


def generate_data_with_scores(
    truth: StructuredCovariance, n: int, rng: np.random.Generator
) -> tuple[DataMatrix, np.ndarray]:
    """Like :func:`generate_data`, but also return the n x k factor scores.

    The scores are the raw draws, not centered; callers comparing against
    the fitted column basis should center them the same way the data is.
    """
    eta = rng.standard_normal((n, truth.k))
    eps = rng.standard_normal((n, truth.p)) * np.sqrt(truth.diag)
    return center_columns(eta @ truth.loadings.T + eps), eta


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
    seed: int = 0,
) -> float:
    """Spectral norm of (truth - estimate) over the spectral norm of truth.

    Both operands stay in factored form; the p x p matrices are never
    assembled. Pass ``truth_norm`` to reuse a precomputed denominator
    across replicates.
    """
    num = spectral_norm(covariance_difference(truth, estimate), tol=tol, seed=seed)
    if truth_norm is None:
        truth_norm = spectral_norm(
            LinearMap(shape=(truth.p, truth.p), matvec=truth.matvec),
            tol=tol,
            seed=seed,
        )
    return num / truth_norm


def _tracked_pairs(config: SimulationConfig) -> list[tuple[int, int]]:
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _TRACKED)))
    subset = rng.permutation(config.p)[: config.tracked]
    return [
        (int(subset[i]), int(subset[j]))
        for i in range(len(subset))
        for j in range(i, len(subset))
    ]


def _truth_entries(
    truth: StructuredCovariance, pairs: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], float]:
    out = {}
    for u, v in pairs:
        val = float(truth.loadings[u] @ truth.loadings[v])
        if u == v:
            val += float(truth.diag[u])
        out[(u, v)] = val
    return out


def _sampler_seed(config_seed: int, replicate: int) -> int:
    state = np.random.SeedSequence((config_seed, _SAMPLER, replicate)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _run_replicate(config, truth, truth_norm, pairs, truth_vals, replicate):
    record = MetricRecord(
        config_id=config.config_id,
        replicate=replicate,
        rel_error=np.nan,
        coverage=np.nan,
        mean_width=np.nan,
        fit_seconds=np.nan,
        sample_seconds=np.nan,
    )
    grid = None
    try:
        data_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, _DATA, replicate))
        )
        dm = generate_data(truth, config.n, data_rng)
        t0 = time.perf_counter()
        if config.fit_rank == "true":
            k = config.k_true
        elif config.fit_rank == "select":
            k = None
        else:
            k = int(config.fit_rank)
        model = fit(dm, k=k)
        record.fit_seconds = time.perf_counter() - t0
        estimate = posterior_mean(model)
        record.rel_error = rel_spectral_error(truth, estimate, truth_norm=truth_norm)
        t1 = time.perf_counter()
        if config.interval_method == "sample_quantile":
            grid = credible_intervals(
                model,
                pairs,
                alpha=config.alpha,
                method="sample_quantile",
                n_samples=config.n_samples,
                rng=RngSpec(_sampler_seed(config.seed, replicate)),
            )
            record.sample_seconds = time.perf_counter() - t1
        else:
            grid = credible_intervals(model, pairs, alpha=config.alpha)
            record.sample_seconds = 0.0
        target = np.array([truth_vals[pair] for pair in pairs])
        covered = (grid.lower < target) & (target < grid.upper)
        record.coverage = float(np.mean(covered))
        record.mean_width = float(np.mean(grid.width))
    except (FableError, np.linalg.LinAlgError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        grid = None
    return record, grid


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
    audits: dict[str, CoverageSummary] = {}
    for config in configs:
        truth_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, _TRUTH))
        )
        truth = generate_truth(config, truth_rng)
        truth_norm = spectral_norm(
            LinearMap(shape=(truth.p, truth.p), matvec=truth.matvec), tol=1e-6
        )
        pairs = _tracked_pairs(config)
        truth_vals = _truth_entries(truth, pairs)
        reps = range(1, config.replicates + 1)

        def one(r, _cfg=config, _t=truth, _tn=truth_norm, _pr=pairs, _tv=truth_vals):
            return _run_replicate(_cfg, _t, _tn, _pr, _tv, r)

        if threads <= 1:
            outcomes = [one(r) for r in reps]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outcomes = list(pool.map(one, reps))
        config_records = [rec for rec, _ in outcomes]
        grids = [g for _, g in outcomes if g is not None]
        records.extend(config_records)
        if grids:
            audits[config.config_id] = coverage_audit(truth_vals, grids)
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
    return StudyResult(records=records, summaries=summaries, audits=audits)


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

    One truth and one data set per p; ``repeats`` timed passes each.
    """
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
