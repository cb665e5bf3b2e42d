"""Tests for the synthetic-truth study harness."""

import numpy as np
import numpy.testing as npt
import pytest
from dataclasses import replace

from fable.errors import DimensionMismatch, InvalidAlpha, InvalidOption, TooFewSamples
from fable.inference import _MIN_QUANTILE_SAMPLES
from fable.linalg import StructuredCovariance
from fable.sampler import _entry_values
from test_linalg import decompositions_fail, dense, lapack_reset  # noqa: F401 (fixtures)
from test_sampler import counting_pool
from fable.simharness import (
    _NOISE_BLOCK,
    _TRACKED,
    _tracked_pairs,
    BenchmarkRow,
    SimulationConfig,
    generate_data,
    generate_data_with_scores,
    generate_truth,
    rel_spectral_error,
    run_study,
    runtime_benchmark,
)


def truth_rng(seed):
    return np.random.default_rng(np.random.SeedSequence((seed, 0)))


def metric_fields(records):
    keys = ("config_id", "replicate", "rel_error", "coverage", "mean_width", "error")
    return [tuple(getattr(r, k) for k in keys) for r in records]


class TestSimulationConfig:
    def test_config_id(self):
        cfg = SimulationConfig(n=500, p=1000, k_true=10, replicates=2)
        assert cfg.config_id == "n500_p1000_k10"

    def test_defaults(self):
        cfg = SimulationConfig(n=50, p=200)
        assert cfg.k_true == 10
        assert cfg.alpha == 0.05
        assert cfg.interval_method == "asymptotic"

    def test_rejects_tiny_n(self):
        with pytest.raises(DimensionMismatch):
            SimulationConfig(n=1, p=10)

    def test_rejects_rank_above_dimensions(self):
        with pytest.raises(ValueError, match="k_true"):
            SimulationConfig(n=20, p=10, k_true=11)

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            SimulationConfig(n=20, p=10, k_true=2, replicates=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidOption, match="seed must be nonnegative, got -1"):
            SimulationConfig(n=20, p=10, k_true=2, tracked=5, seed=-1)

    def test_rejects_tracked_above_p(self):
        with pytest.raises(ValueError, match="tracked"):
            SimulationConfig(n=20, p=10, k_true=2, tracked=11)

    @pytest.mark.parametrize("p", [2 * 10**17, 10**30])
    def test_rejects_sizes_numpy_cannot_shape(self, p):
        with pytest.raises(InvalidOption, match=f"n x p = 20 x {p} is too large"):
            SimulationConfig(n=20, p=p, tracked=5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, float("nan")])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        # refused before any replicate runs, not recorded as n failures
        with pytest.raises(InvalidAlpha, match="alpha"):
            SimulationConfig(n=20, p=10, k_true=2, tracked=5, alpha=alpha)

    def test_rejects_too_few_quantile_samples(self):
        least = _MIN_QUANTILE_SAMPLES
        with pytest.raises(TooFewSamples, match=f">= {least}, got {least - 1}"):
            SimulationConfig(n=20, p=10, k_true=2, tracked=5,
                             interval_method="sample_quantile",
                             n_samples=least - 1)
        SimulationConfig(n=20, p=10, k_true=2, tracked=5,
                         interval_method="sample_quantile", n_samples=least)
        # asymptotic intervals draw nothing, so n_samples is not read
        SimulationConfig(n=20, p=10, k_true=2, tracked=5, n_samples=5)

    def test_rejects_unknown_interval_method(self):
        with pytest.raises(ValueError, match="interval_method"):
            SimulationConfig(n=20, p=10, k_true=2, tracked=5,
                             interval_method="bootstrap")


class TestGenerateTruth:
    def test_shapes(self):
        cfg = SimulationConfig(n=50, p=80, k_true=4, tracked=10)
        truth = generate_truth(cfg, truth_rng(0))
        assert truth.loadings.shape == (80, 4)
        assert truth.diag.shape == (80,)

    def test_zero_fraction_matches_spike_prob(self):
        # 1e5 loading entries; binomial sd is about 0.0016
        cfg = SimulationConfig(n=50, p=10_000, k_true=10, tracked=10, seed=3)
        truth = generate_truth(cfg, truth_rng(3))
        frac = np.mean(truth.loadings == 0.0)
        assert abs(frac - 0.5) < 0.01

    def test_noise_uniform_on_interval(self):
        # 1e5 uniform draws; sd of the mean is about 0.004
        cfg = SimulationConfig(n=50, p=100_000, k_true=1, tracked=10, seed=4)
        truth = generate_truth(cfg, truth_rng(4))
        assert truth.diag.min() >= 0.5
        assert truth.diag.max() <= 5.0
        assert abs(truth.diag.mean() - 2.75) < 0.02

    def test_slab_scale(self):
        cfg = SimulationConfig(n=50, p=1000, k_true=5, tracked=10, seed=5)
        truth = generate_truth(cfg, truth_rng(5))
        nonzero = truth.loadings[truth.loadings != 0.0]
        assert abs(nonzero.std() - 0.5) < 0.03

    def test_deterministic(self):
        cfg = SimulationConfig(n=50, p=70, k_true=3, tracked=10, seed=8)
        a = generate_truth(cfg, truth_rng(8))
        b = generate_truth(cfg, truth_rng(8))
        npt.assert_array_equal(a.loadings, b.loadings)
        npt.assert_array_equal(a.diag, b.diag)


class TestGenerateData:
    def test_shape_and_centered(self):
        cfg = SimulationConfig(n=40, p=30, k_true=2, tracked=10)
        truth = generate_truth(cfg, truth_rng(0))
        dm = generate_data(truth, 40, np.random.default_rng(1))
        assert dm.values.shape == (40, 30)
        npt.assert_allclose(dm.values.mean(axis=0), 0.0, atol=1e-12)

    def test_scores_variant_matches_and_exposes_factors(self):
        cfg = SimulationConfig(n=60, p=25, k_true=3, tracked=10)
        truth = generate_truth(cfg, truth_rng(5))
        dm, scores = generate_data_with_scores(truth, 60, np.random.default_rng(9))
        plain = generate_data(truth, 60, np.random.default_rng(9))
        npt.assert_array_equal(dm.values, plain.values)
        assert scores.shape == (60, 3)
        # The scores are the pre-centering draws: data minus the factor
        # part must be centered white noise scaled by the truth diagonal.
        resid = dm.values - (scores - scores.mean(axis=0)) @ truth.loadings.T
        npt.assert_allclose(resid.mean(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("n, p", [(100, 700), (5, _NOISE_BLOCK + 7)],
                             ids=["partial-last-block", "one-row-blocks"])
    def test_bits_of_a_one_shot_draw(self, n, p):
        # a twin generator draws all the noise at once:
        # y = eps * sqrt(diag) + eta @ L', then centered
        rows = max(1, _NOISE_BLOCK // p)
        assert n % rows if rows > 1 else p > _NOISE_BLOCK
        truth = generate_truth(SimulationConfig(n=n, p=p, k_true=3, tracked=1), truth_rng(4))
        dm, scores = generate_data_with_scores(truth, n, np.random.default_rng(21))
        twin = np.random.default_rng(21)
        eta = twin.standard_normal((n, 3))
        y = twin.standard_normal((n, p)) * np.sqrt(truth.diag) + eta @ truth.loadings.T
        means = y.mean(axis=0)
        assert scores.tobytes() == eta.tobytes()
        assert dm.column_means.tobytes() == means.tobytes()
        assert dm.values.tobytes() == (y - means).tobytes()

    def test_zero_loadings_give_independent_noise(self):
        noise = np.random.default_rng(1).uniform(0.5, 5.0, 40)
        truth = StructuredCovariance(np.zeros((40, 3)), noise)
        dm = generate_data(truth, 5000, np.random.default_rng(3))
        var = dm.values.var(axis=0, ddof=1)
        # per-column sample variance has sd sigma^2 * sqrt(2/(n-1))
        bands = 5 * truth.diag * np.sqrt(2.0 / 4999)
        npt.assert_array_less(np.abs(var - truth.diag), bands)

    def test_sample_covariance_matches_truth(self):
        # entrywise 3 MC SEs against the law-of-large-numbers limit
        cfg = SimulationConfig(n=50, p=5, k_true=3, tracked=5, seed=12)
        truth = generate_truth(cfg, truth_rng(12))
        m = 100_000
        big = generate_data(truth, m, np.random.default_rng(2)).values
        sample_cov = np.cov(big, rowvar=False)
        cov = dense(truth)
        d = np.diag(cov)
        se = np.sqrt((np.outer(d, d) + cov**2) / m)
        bad = np.abs(sample_cov - cov) > 3 * se
        # a 25-entry grid can brush a 3-SE band; allow one excursion
        assert bad.sum() <= 1

    def test_deterministic(self):
        cfg = SimulationConfig(n=30, p=20, k_true=2, tracked=10)
        truth = generate_truth(cfg, truth_rng(0))
        a = generate_data(truth, 30, np.random.default_rng(7)).values
        b = generate_data(truth, 30, np.random.default_rng(7)).values
        assert a.tobytes() == b.tobytes()


class TestRelSpectralError:
    def test_zero_for_identical(self):
        cfg = SimulationConfig(n=30, p=25, k_true=2, tracked=10)
        truth = generate_truth(cfg, truth_rng(0))
        assert rel_spectral_error(truth, truth) < 1e-12

    def test_doubled_truth_gives_one(self):
        cfg = SimulationConfig(n=30, p=25, k_true=2, tracked=10, seed=20)
        truth = generate_truth(cfg, truth_rng(20))
        doubled = StructuredCovariance(
            truth.loadings * np.sqrt(2.0), truth.diag * 2.0
        )
        npt.assert_allclose(rel_spectral_error(truth, doubled), 1.0, rtol=1e-6)

    def test_matches_dense_oracle(self):
        cfg = SimulationConfig(n=30, p=10, k_true=3, tracked=10, seed=21)
        truth = generate_truth(cfg, truth_rng(21))
        other = generate_truth(cfg, truth_rng(22))
        got = rel_spectral_error(truth, other, tol=1e-12)
        diff = dense(truth) - dense(other)
        want = np.abs(np.linalg.eigvalsh(diff)).max()
        want /= np.abs(np.linalg.eigvalsh(dense(truth))).max()
        npt.assert_allclose(got, want, rtol=1e-8)

    def test_precomputed_norm_agrees(self):
        cfg = SimulationConfig(n=30, p=35, k_true=3, tracked=10, seed=23)
        truth = generate_truth(cfg, truth_rng(23))
        other = generate_truth(cfg, truth_rng(24))
        norm = np.abs(np.linalg.eigvalsh(dense(truth))).max()
        free = rel_spectral_error(truth, other)
        pinned = rel_spectral_error(truth, other, truth_norm=norm)
        npt.assert_allclose(free, pinned, rtol=1e-5)


def reference_tracked_pairs(config):
    """The tracked entries as they were built before entry sets became
    index arrays: a list of int tuples, one pair at a time."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _TRACKED)))
    subset = rng.permutation(config.p)[: config.tracked]
    return [
        (int(subset[i]), int(subset[j]))
        for i in range(len(subset))
        for j in range(i, len(subset))
    ]


def reference_truth_entries(truth, pairs):
    """The true entries one pair at a time, a dict keyed by pair with the
    entry kernel's einsum on each pair."""
    out = {}
    for u, v in pairs:
        val = float(np.einsum("ek,ek->e", truth.loadings[[u]], truth.loadings[[v]])[0])
        if u == v:
            val += float(truth.diag[u])
        out[(u, v)] = val
    return out


def truth_entries(truth, pairs):
    """The true entries as the study computes them."""
    return _entry_values(truth.loadings, truth.diag, *pairs.T)


class TestTrackedEntriesOracle:
    @pytest.mark.parametrize("tracked", [1, 2, 17, 40])
    @pytest.mark.parametrize("k_true", [1, 4, 10])
    def test_match_per_pair(self, tracked, k_true):
        cfg = SimulationConfig(n=60, p=40, k_true=k_true, seed=31 + tracked, tracked=tracked)
        truth = generate_truth(cfg, truth_rng(cfg.seed))
        want_pairs = reference_tracked_pairs(cfg)
        pairs = _tracked_pairs(cfg)
        assert [tuple(pair) for pair in pairs.tolist()] == want_pairs
        want = reference_truth_entries(truth, want_pairs)
        assert truth_entries(truth, pairs).tolist() == [want[pair] for pair in want_pairs]

    def test_entries_of_a_column_major_truth(self):
        # a truth built from column-major loadings holds them row-major,
        # so its entries are those of the row-major truth, bit for bit
        cfg = SimulationConfig(n=60, p=40, k_true=10, seed=5, tracked=40)
        truth = generate_truth(cfg, truth_rng(5))
        fortran = type(truth)(np.asfortranarray(truth.loadings), truth.diag)
        assert fortran.loadings.flags.c_contiguous
        pairs = _tracked_pairs(cfg)
        want_pairs = [tuple(pair) for pair in pairs.tolist()]
        want = reference_truth_entries(truth, want_pairs)
        got = truth_entries(fortran, pairs)
        assert got.tolist() == [want[pair] for pair in want_pairs]
        assert got.tobytes() == truth_entries(truth, pairs).tobytes()


@pytest.fixture(scope="module")
def small_result():
    cfg = SimulationConfig(n=150, p=200, k_true=4, replicates=4, seed=7,
                           tracked=25)
    return cfg, run_study([cfg])


class TestRunStudy:
    def test_record_count_and_health(self, small_result):
        cfg, res = small_result
        assert len(res.records) == 4
        for rec in res.records:
            assert rec.error is None
            assert 0.0 < rec.rel_error < 1.0
            assert 0.8 <= rec.coverage <= 1.0
            assert rec.mean_width > 0.0
            assert rec.fit_seconds > 0.0
            assert rec.sample_seconds == 0.0

    def test_summary_aggregates(self, small_result):
        cfg, res = small_result
        s = res.summaries[0]
        assert s.config_id == cfg.config_id
        assert (s.n, s.p, s.k_true) == (150, 200, 4)
        assert s.replicates_done == 4 and s.failures == 0
        rels = [r.rel_error for r in res.records]
        npt.assert_allclose(s.mean_rel_error, np.mean(rels))
        npt.assert_allclose(s.median_rel_error, np.median(rels))
        covs = [r.coverage for r in res.records]
        npt.assert_allclose(s.mean_coverage, np.mean(covs))
        npt.assert_allclose(s.median_coverage, np.median(covs))

    def test_deterministic_metrics(self, small_result):
        cfg, res = small_result
        again = run_study([cfg])
        assert metric_fields(res.records) == metric_fields(again.records)

    def test_thread_count_does_not_change_metrics(self, small_result):
        cfg, res = small_result
        threaded = run_study([cfg], threads=3)
        assert metric_fields(res.records) == metric_fields(threaded.records)
        assert res.summaries == threaded.summaries

    def test_workers_capped_by_the_cpus(self, monkeypatch):
        pool = counting_pool(monkeypatch, cpus=2)
        cfg = SimulationConfig(n=20, p=10, k_true=2, replicates=13, seed=5, tracked=4)
        res = run_study([cfg], threads=50)
        assert [r.replicate for r in res.records] == list(range(1, 14))
        assert pool.max_workers == [2]
        assert pool.submitted == list(range(1, 14))
        # 8 replicates in flight whenever a result is taken, until none is left
        assert pool.taken_at == [min(8 + i, 13) for i in range(13)]

    def test_coverage_near_nominal(self):
        cfg = SimulationConfig(n=200, p=400, k_true=5, replicates=6, seed=11,
                               tracked=30)
        s = run_study([cfg]).summaries[0]
        assert 0.90 <= s.mean_coverage <= 0.99

    def test_error_decreases_with_n(self):
        small = SimulationConfig(n=100, p=300, k_true=4, replicates=4, seed=3,
                                 tracked=20)
        large = replace(small, n=400)
        res = run_study([small, large])
        assert res.summaries[1].mean_rel_error < res.summaries[0].mean_rel_error
        assert res.summaries[1].median_rel_error < res.summaries[0].median_rel_error

    def test_multiple_configs_ordered(self):
        a = SimulationConfig(n=60, p=40, k_true=2, replicates=2, seed=1, tracked=10)
        b = SimulationConfig(n=60, p=80, k_true=2, replicates=2, seed=1, tracked=10)
        res = run_study([a, b])
        assert [s.config_id for s in res.summaries] == [a.config_id, b.config_id]
        assert [r.config_id for r in res.records] == [a.config_id] * 2 + [b.config_id] * 2

    def test_failures_are_captured_not_raised(self):
        # rank n-1 leaves no residual, so the noise floor trips every time
        cfg = SimulationConfig(n=150, p=200, k_true=149, replicates=2, seed=7,
                               tracked=25)
        res = run_study([cfg])
        s = res.summaries[0]
        assert s.failures == 2 and s.replicates_done == 0
        assert all(r.error is not None for r in res.records)
        assert all(np.isnan(r.rel_error) for r in res.records)
        assert np.isnan(s.mean_rel_error)

    def test_decomposition_failure_is_a_typed_record(self, decompositions_fail):
        cfg = SimulationConfig(n=60, p=40, k_true=2, replicates=2, seed=1, tracked=10)
        res = run_study([cfg])
        assert res.summaries[0].failures == 2
        assert all(r.error.startswith("ConvergenceFailure: SVD of the 60 x 40")
                   for r in res.records)

    def test_sample_quantile_intervals(self):
        cfg = SimulationConfig(n=150, p=200, k_true=4, replicates=2, seed=7,
                               tracked=25, interval_method="sample_quantile",
                               n_samples=300)
        res = run_study([cfg])
        s = res.summaries[0]
        assert s.failures == 0
        assert 0.85 <= s.mean_coverage <= 1.0
        assert all(r.sample_seconds > 0.0 for r in res.records)


class TestRuntimeBenchmark:
    def test_sampling_time_grows_with_p(self):
        # 10x gap in p so scheduler noise cannot flip the ordering
        rows = runtime_benchmark([200, 2000], n=100, k_true=3, n_samples=200,
                                 repeats=5, seed=13)
        assert rows[0].sample_seconds < rows[1].sample_seconds
        assert rows[0].fit_seconds < rows[1].fit_seconds

    def test_rows_and_fields(self):
        rows = runtime_benchmark([60, 120], n=80, k_true=3, n_samples=50,
                                 repeats=2, seed=9)
        assert [r.p for r in rows] == [60, 120]
        for row in rows:
            assert isinstance(row, BenchmarkRow)
            assert row.n == 80
            assert row.n_samples == 50
            assert row.fit_seconds > 0.0
            assert row.sample_seconds > 0.0
            assert row.mean_seconds > 0.0
