"""Distributional, determinism, and streaming tests for the sampler."""

import dataclasses
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fable.errors import (
    GammaTooSmall,
    IndexOutOfRange,
    InvalidOption,
    InvalidSampleCount,
    NonFinite,
    TooFewSamples,
)
from fable.linalg import StructuredCovariance, center_columns
from fable.model import FableModel, fit
import fable.sampler
from fable.sampler import (
    _check_count,
    _draw_rows,
    _entry_set,
    _entry_values,
    CovarianceSample,
    EntryStats,
    RngSpec,
    draw_sample,
    draw_samples,
    posterior_mean,
    sample_entry_stats,
)
from test_model import make_factor_data


def sample_dense(sample):
    """The p x p covariance of one posterior draw."""
    return sample.loadings @ sample.loadings.T + np.diag(sample.noise_sq)


def sample_entries(sample, u, v):
    """Covariance entries (u[e], v[e]) of one posterior draw, from the
    entry kernel."""
    return _entry_values(sample.loadings, sample.noise_sq,
                         np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp))


@pytest.fixture(scope="module")
def small_model():
    _, _, y = make_factor_data(40, 3, 2, seed=101)
    return fit(center_columns(y), k=2)


@pytest.fixture(scope="module")
def mid_model():
    _, _, y = make_factor_data(60, 8, 2, seed=102)
    return fit(center_columns(y), k=2)


class TestDrawSample:
    def test_rho_zero_collapses_loadings(self, small_model):
        s = draw_sample(dataclasses.replace(small_model, rho=0.0), 1, RngSpec(3))
        np.testing.assert_array_equal(s.loadings, small_model.mu)
        assert np.all(s.noise_sq > 0)

    def test_deterministic(self, small_model):
        a = draw_sample(small_model, 5, RngSpec(9))
        b = draw_sample(small_model, 5, RngSpec(9))
        assert a.loadings.tobytes() == b.loadings.tobytes()
        assert a.noise_sq.tobytes() == b.noise_sq.tobytes()

    def test_distinct_indices_differ(self, small_model):
        a = draw_sample(small_model, 1, RngSpec(9))
        b = draw_sample(small_model, 2, RngSpec(9))
        assert not np.array_equal(a.loadings, b.loadings)

    def test_non_finite_draw_refused(self, small_model):
        # gamma_n * delta_sq / 2 overflows in row 2 alone
        delta_sq = small_model.delta_sq.copy()
        delta_sq[2] = 1e308
        model = dataclasses.replace(small_model, delta_sq=delta_sq)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFinite, match="draw 4 is not finite at row 2"):
                draw_sample(model, 4, RngSpec(9))
            with pytest.raises(NonFinite, match="draw 1 is not finite at row 2"):
                sample_entry_stats(model, 5, RngSpec(9), [(2, 2)])
            # a draw of the other rows alone is as it was
            a = sample_entry_stats(model, 5, RngSpec(9), [(0, 1)])
        b = sample_entry_stats(small_model, 5, RngSpec(9), [(0, 1)])
        assert a.mean.tobytes() == b.mean.tobytes() and a.sd.tobytes() == b.sd.tobytes()

    def test_noise_mean_matches_inverse_gamma(self, small_model):
        n_draws = 20_000
        rng = RngSpec(11)
        acc = np.zeros(small_model.p)
        for s in draw_samples(small_model, n_draws, rng):
            acc += s.noise_sq
        est = acc / n_draws
        g = small_model.gamma_n
        want = g * small_model.delta_sq / (g - 2.0)
        # Inverse-Gamma variance, valid because gamma_n = 41 > 4 here.
        sd = want * np.sqrt(2.0 / (g - 4.0))
        err = np.abs(est - want)
        assert np.all(err < 5.0 * sd / np.sqrt(n_draws))

    def test_standardized_loadings_standard_normal(self, small_model):
        n_draws = 20_000
        rng = RngSpec(13)
        m = small_model
        zs = []
        for s in draw_samples(m, n_draws, rng):
            scale = m.rho * np.sqrt(s.noise_sq * m.posterior_scale_sq)
            zs.append(((s.loadings - m.mu) / scale[:, None]).ravel())
        z = np.concatenate(zs)
        n = z.size
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)

    def test_total_variance_law(self, small_model):
        # Unconditionally Var(lambda_jl) = rho^2 E[sigma_j^2] / (n + 1/tau^2).
        n_draws = 20_000
        m = small_model
        vals = np.empty((n_draws, m.p))
        for i, s in enumerate(draw_samples(m, n_draws, RngSpec(17))):
            vals[i] = s.loadings[:, 0]
        g = m.gamma_n
        noise_mean = g * m.delta_sq / (g - 2.0)
        want = m.rho**2 * noise_mean * m.posterior_scale_sq
        got = vals.var(axis=0, ddof=1)
        assert np.all(np.abs(got / want - 1.0) < 0.1)

    def test_entry_and_dense_agree(self, mid_model):
        s = draw_sample(mid_model, 3, RngSpec(7))
        d = sample_dense(s)
        np.testing.assert_allclose(sample_entries(s, [2, 4], [5, 4]), d[[2, 4], [5, 4]],
                                   rtol=1e-12)

    def test_draws_positive_definite(self, mid_model):
        for t in range(1, 6):
            s = draw_sample(mid_model, t, RngSpec(23))
            assert np.linalg.eigvalsh(sample_dense(s)).min() > 0


class TestDrawSamples:
    def test_matches_single_draws(self, small_model):
        rng = RngSpec(31)
        batch = list(draw_samples(small_model, 4, rng))
        for t, s in zip(range(1, 5), batch):
            lone = draw_sample(small_model, t, rng)
            assert s.index == t
            assert s.loadings.tobytes() == lone.loadings.tobytes()

    def test_thread_count_irrelevant(self, mid_model):
        seq = list(draw_samples(mid_model, 10, RngSpec(37), threads=1))
        par = list(draw_samples(mid_model, 10, RngSpec(37), threads=4))
        for a, b in zip(seq, par):
            assert a.index == b.index
            assert a.loadings.tobytes() == b.loadings.tobytes()
            assert a.noise_sq.tobytes() == b.noise_sq.tobytes()

    def test_start_offset(self, small_model):
        shifted = next(iter(draw_samples(small_model, 1, RngSpec(41), start=7)))
        assert shifted.index == 7
        lone = draw_sample(small_model, 7, RngSpec(41))
        assert shifted.loadings.tobytes() == lone.loadings.tobytes()

    def test_zero_count_rejected(self, small_model):
        with pytest.raises(InvalidSampleCount):
            draw_samples(small_model, 0, RngSpec(1))

    def test_negative_start_rejected_before_reading(self, small_model):
        with pytest.raises(InvalidOption, match="draw indices"):
            draw_samples(small_model, 3, RngSpec(1), start=-1)


class TestSubmitAhead:
    """The threaded stream keeps 4 * threads draws in flight and yields
    them in order. 13 draws are not a multiple of the 8-draw window at
    two threads, so the last window is partial."""

    def test_stream_is_thread_invariant(self, mid_model):
        one = list(draw_samples(mid_model, 13, RngSpec(43), threads=1))
        two = list(draw_samples(mid_model, 13, RngSpec(43), threads=2))
        assert [s.index for s in two] == list(range(1, 14))
        for a, b in zip(one, two, strict=True):
            assert a.loadings.tobytes() == b.loadings.tobytes()
            assert a.noise_sq.tobytes() == b.noise_sq.tobytes()

    def test_entry_stats_are_thread_invariant(self, mid_model):
        pairs = [(0, 0), (1, 5), (7, 2)]
        one = sample_entry_stats(mid_model, 13, RngSpec(47), pairs, threads=1)
        two = sample_entry_stats(mid_model, 13, RngSpec(47), pairs, threads=2)
        assert same_stats(one, two)

    def test_failed_draw_raises_its_error_and_ends_the_pool(self, mid_model, monkeypatch):
        baseline = threading.active_count()
        real = fable.sampler.draw_sample

        def failing(model, t, rng, **kw):
            if t == 6:
                raise NonFinite(f"draw {t} failed")
            return real(model, t, rng, **kw)

        monkeypatch.setattr(fable.sampler, "draw_sample", failing)
        seen = []
        with pytest.raises(NonFinite, match="draw 6 failed"):
            for sample in draw_samples(mid_model, 13, RngSpec(53), threads=2):
                seen.append(sample.index)
        assert seen == [1, 2, 3, 4, 5]
        assert threading.active_count() == baseline

    def test_window_holds_four_draws_per_thread(self, mid_model, monkeypatch):
        pool = counting_pool(monkeypatch, cpus=2)
        stream = draw_samples(mid_model, 13, RngSpec(61), threads=2)
        assert next(stream).index == 1
        # the first 8 draws, then one more for the draw handed out
        assert pool.submitted == list(range(1, 10))
        stream.close()

    def test_workers_capped_by_the_cpus(self, mid_model, monkeypatch):
        pool = counting_pool(monkeypatch, cpus=2)
        stream = draw_samples(mid_model, 13, RngSpec(61), threads=50)
        assert next(stream).index == 1
        assert pool.max_workers == [2]
        assert pool.submitted == list(range(1, 10))
        assert [s.index for s in stream] == list(range(2, 14))
        # 8 calls in flight whenever a result is taken, until none is left
        assert pool.taken_at == [min(8 + i, 13) for i in range(13)]

    def test_early_close_ends_the_pool(self, mid_model):
        baseline = threading.active_count()
        stream = draw_samples(mid_model, 13, RngSpec(59), threads=2)
        assert next(stream).index == 1
        stream.close()
        assert threading.active_count() == baseline

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngSpec(-1)


def counting_pool(monkeypatch, cpus):
    """Swap the sampler's thread pool for one that records its worker
    counts, the items submitted to it, and how many had been submitted
    when each result was taken; the sampler sees ``cpus`` CPUs."""

    class CountingPool(ThreadPoolExecutor):
        max_workers, submitted, taken_at = [], [], []

        def __init__(self, max_workers):
            self.max_workers.append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, fn, item):
            self.submitted.append(item)
            future = super().submit(fn, item)
            result = future.result

            def taken():
                self.taken_at.append(len(self.submitted))
                return result()

            future.result = taken
            return future

    monkeypatch.setattr(fable.sampler, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(fable.sampler, "ThreadPoolExecutor", CountingPool)
    return CountingPool


class TestPosteriorMean:
    def test_factored_fields(self, mid_model):
        cov = posterior_mean(mid_model)
        assert isinstance(cov, StructuredCovariance)
        np.testing.assert_array_equal(cov.loadings, mid_model.mu)
        np.testing.assert_array_equal(cov.diag, mid_model.delta_sq)

    def test_offdiagonal_forms_agree(self, mid_model):
        pairs = [(0, 1), (2, 7), (5, 3)]
        dense = posterior_mean(mid_model, form="dense_entrywise", indices=pairs)
        cov = posterior_mean(mid_model)
        for e, (u, v) in enumerate(pairs):
            assert dense[e] == pytest.approx(
                float(cov.loadings[u] @ cov.loadings[v]), rel=1e-12
            )

    def test_diagonal_gap_formula(self, mid_model):
        m = mid_model
        dense = posterior_mean(m, form="dense_entrywise", indices=[(4, 4)])
        factored = float(m.mu[4] @ m.mu[4] + m.delta_sq[4])
        noise_mean = m.gamma_n * m.delta_sq[4] / (m.gamma_n - 2.0)
        want_gap = (
            m.k * m.rho**2 * m.posterior_scale_sq * noise_mean
            + noise_mean
            - m.delta_sq[4]
        )
        assert dense[0] - factored == pytest.approx(want_gap, rel=1e-12)

    def test_diagonal_gap_shrinks_like_one_over_n(self):
        gaps = []
        for n in (200, 400, 800, 1600):
            _, _, y = make_factor_data(n, 10, 2, seed=301)
            m = fit(center_columns(y), k=2)
            dense = posterior_mean(m, form="dense_entrywise", indices=[(0, 0)])
            factored = float(m.mu[0] @ m.mu[0] + m.delta_sq[0])
            gaps.append(dense[0] - factored)
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all(ratios > 1.5) and np.all(ratios < 2.6)

    def test_mc_agreement(self, small_model):
        pairs = [(0, 0), (0, 1), (1, 2), (2, 2)]
        stats = sample_entry_stats(small_model, 20_000, RngSpec(53), pairs)
        dense = posterior_mean(small_model, form="dense_entrywise", indices=pairs)
        for e in range(len(pairs)):
            se = stats.sd[e] / np.sqrt(stats.n_samples)
            assert abs(stats.mean[e] - dense[e]) < 5.0 * se

    def test_gamma_too_small(self):
        m = FableModel(
            n=1,
            p=2,
            k=1,
            tau_sq=1.0,
            gamma0=1.0,
            delta0_sq=1.0,
            gamma_n=2.0,
            rho=1.0,
            rho_strategy="mean_b",
            mu=np.ones((2, 1)),
            delta_sq=np.ones(2),
            v_sq=np.ones(2),
            l_sq=np.ones(2),
            u=np.ones((1, 1)),
            spectrum=np.ones(1),
        )
        with pytest.raises(GammaTooSmall):
            posterior_mean(m, form="dense_entrywise", indices=[(0, 0)])

    def test_bad_indices(self, mid_model):
        with pytest.raises(IndexOutOfRange):
            posterior_mean(mid_model, form="dense_entrywise", indices=[(0, 99)])


def gathered_entry_stats(model, n_samples, seed, pairs, *, rho=None,
                         quantiles=(0.025, 0.5, 0.975), reservoir=10_000):
    """Oracle for sample_entry_stats: every row of each draw from
    draw_sample, the pairs' rows gathered afterwards, then the same
    streaming sums (the second moments shifted and scaled by the first
    draw); the quantiles come from the first ``reservoir`` draws."""
    if rho is not None:
        model = dataclasses.replace(model, rho=rho)
    u = np.array([a for a, _ in pairs])
    v = np.array([b for _, b in pairs])
    diag = (u == v).astype(np.float64)
    cap = min(n_samples, reservoir)
    buf = np.empty((cap, len(pairs)))
    s1, d1, d2 = np.zeros(len(pairs)), np.zeros(len(pairs)), np.zeros(len(pairs))
    for seen, t in enumerate(range(1, n_samples + 1)):
        d = draw_sample(model, t, RngSpec(seed))
        vals = np.einsum("ek,ek->e", d.loadings[u], d.loadings[v]) + diag * d.noise_sq[u]
        s1 += vals
        if not seen:
            shift, scale = vals, -np.frexp(vals)[1]
        dev = np.ldexp(vals - shift, scale)
        d1 += dev
        d2 += dev * dev
        if seen < cap:
            buf[seen] = vals
    mean = s1 / n_samples
    sd = np.ldexp(np.sqrt(np.maximum((d2 - d1 * d1 / n_samples) / (n_samples - 1), 0.0)),
                  -scale)
    q = np.quantile(buf, list(quantiles), axis=0)
    return EntryStats(
        mean=mean,
        sd=sd,
        quantiles=dict(zip(quantiles, q)),
        n_samples=n_samples,
        exact=n_samples <= cap,
    )


def same_stats(a, b):
    """Whether two EntryStats hold the same values, bit for bit."""
    return (
        a.mean.tobytes() == b.mean.tobytes()
        and a.sd.tobytes() == b.sd.tobytes()
        and a.quantiles.keys() == b.quantiles.keys()
        and all(a.quantiles[q].tobytes() == b.quantiles[q].tobytes() for q in a.quantiles)
        and (a.n_samples, a.exact) == (b.n_samples, b.exact)
    )


class TestSampleEntryStats:
    def test_transforms_only_tracked_rows(self, mid_model, monkeypatch):
        calls = []
        real = fable.sampler.gammaincinv

        def counting(a, x):
            calls.append(len(x))
            return real(a, x)

        monkeypatch.setattr(fable.sampler, "gammaincinv", counting)
        pairs = [(5, 1), (1, 5), (3, 3), (5, 3)]  # rows {1, 3, 5} of 8
        sample_entry_stats(mid_model, 40, RngSpec(73), pairs, threads=2)
        # draws come a chunk at a time, each call on 3 rows per draw
        assert sum(calls) == 3 * 40 and all(n % 3 == 0 for n in calls)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize(
        "pairs",
        [
            [(5, 1), (1, 5), (3, 3), (5, 1), (7, 0)],
            [(6, 6), (2, 2), (6, 6)],
            [(7, 2)],
        ],
        ids=["mixed", "diagonal", "single"],
    )
    @pytest.mark.parametrize(
        "options",
        [{}, {"rho": 0.0}, {"reservoir": 40}],
        ids=["default", "rho0", "reservoir"],
    )
    def test_bit_identical_to_gathered_full_draws(self, mid_model, threads, pairs, options,
                                                  monkeypatch):
        model = mid_model
        if "rho" in options:
            model = dataclasses.replace(mid_model, rho=options["rho"])
        if "reservoir" in options:
            monkeypatch.setattr(fable.sampler, "_RESERVOIR", options["reservoir"])
        got = sample_entry_stats(model, 120, RngSpec(79), pairs, threads=threads)
        assert same_stats(got, gathered_entry_stats(mid_model, 120, 79, pairs, **options))
        assert got.exact == ("reservoir" not in options)

    def test_matches_manual_streaming(self, small_model):
        pairs = [(0, 1), (2, 2)]
        stats = sample_entry_stats(small_model, 500, RngSpec(61), pairs)
        us, vs = zip(*pairs)
        vals = np.array([sample_entries(s, us, vs)
                         for s in draw_samples(small_model, 500, RngSpec(61))])
        for e, arr in enumerate(vals.T):
            assert stats.mean[e] == pytest.approx(arr.mean(), rel=1e-10)
            assert stats.sd[e] == pytest.approx(arr.std(ddof=1), rel=1e-10)
            assert stats.quantiles[0.5][e] == pytest.approx(
                np.quantile(arr, 0.5), rel=1e-10
            )
            assert stats.exact

    @pytest.mark.parametrize("delta0_sq", [1.0, 1e200])
    def test_sd_matches_two_pass_at_any_scale(self, delta0_sq):
        # at 1e200 the entries near 1e198 square past the double range
        _, _, y = make_factor_data(40, 6, 2, seed=104)
        model = fit(center_columns(y), k=2, delta0_sq=delta0_sq)
        pairs = [(0, 0), (0, 1), (3, 5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = sample_entry_stats(model, 50, RngSpec(1), pairs)
        us, vs = zip(*pairs)
        vals = np.array([sample_entries(s, us, vs)
                         for s in draw_samples(model, 50, RngSpec(1))])
        assert stats.mean.tobytes() == (vals.sum(axis=0) / 50).tobytes()
        assert (stats.mean[0] > 1e190) == (delta0_sq > 1)
        # numpy's two-pass sd, on the draws scaled by a power of two so
        # that their squares stay finite
        e = int(np.frexp(np.abs(vals).max())[1])
        want = np.ldexp(np.ldexp(vals, -e).std(axis=0, ddof=1), e)
        np.testing.assert_allclose(stats.sd, want, rtol=1e-12)

    def test_mean_whose_sum_overflows_is_finite(self, small_model):
        # each draw of entry (0, 0) is finite, but their sum is not
        model = dataclasses.replace(small_model, delta_sq=small_model.delta_sq * 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = sample_entry_stats(model, 20, RngSpec(1), [(0, 0)])
            vals = np.array([sample_entries(_draw_rows(model, t, RngSpec(1), np.array([0])),
                                            [0], [0]) for t in range(1, 21)])
        with np.errstate(over="ignore"):
            assert np.isinf(vals.sum()) and stats.mean[0] > 1e307
        # numpy's two-pass mean, on the draws scaled by a power of two
        e = int(np.frexp(np.abs(vals).max())[1])
        want = np.ldexp(np.ldexp(vals, -e).mean(axis=0), e)
        np.testing.assert_allclose(stats.mean, want, rtol=1e-12)

    def test_mean_past_the_double_range_refused(self, small_model):
        # the draws' loadings are finite, but entry (0, 0) of each is not
        model = dataclasses.replace(small_model, delta_sq=small_model.delta_sq * 1e308,
                                    rho=1e154)
        with pytest.raises(NonFinite, match=r"entry \(0, 0\) has mean"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sample_entry_stats(model, 20, RngSpec(1), [(0, 0)])

    def test_reservoir_flagged(self, small_model, monkeypatch):
        monkeypatch.setattr(fable.sampler, "_RESERVOIR", 200)
        stats = sample_entry_stats(small_model, 600, RngSpec(67), [(0, 0)])
        st = stats
        assert not st.exact
        assert st.n_samples == 600
        lo, hi = st.quantiles[0.025][0], st.quantiles[0.975][0]
        assert lo < st.mean[0] < hi

    def test_thread_invariance(self, small_model):
        a = sample_entry_stats(small_model, 300, RngSpec(71), [(0, 1)], threads=1)
        b = sample_entry_stats(small_model, 300, RngSpec(71), [(0, 1)], threads=3)
        assert same_stats(a, b)

    def test_too_few(self, small_model):
        with pytest.raises(TooFewSamples):
            sample_entry_stats(small_model, 1, RngSpec(1), [(0, 0)])

    def test_bad_pair(self, small_model):
        with pytest.raises(IndexOutOfRange):
            sample_entry_stats(small_model, 10, RngSpec(1), [(-1, 0)])


class TestUniformBlocks:
    def test_block_shape_and_range(self):
        rng = RngSpec(5)
        block = rng.uniform_block(3, 7, 2)
        assert block.shape == (7, 3)
        assert block.min() > 0.0 and block.max() < 1.0

    def test_blocks_keyed_by_index(self):
        rng = RngSpec(5)
        assert not np.array_equal(rng.uniform_block(1, 4, 1), rng.uniform_block(2, 4, 1))
        np.testing.assert_array_equal(
            rng.uniform_block(1, 4, 1), RngSpec(5).uniform_block(1, 4, 1)
        )

    @pytest.mark.parametrize(
        "rows", [slice(None), slice(2, 5), np.array([5, 1, 5, 7]), np.arange(8)[::-1]]
    )
    def test_row_selection_reads_the_full_block(self, rows):
        # row j reads the same uniforms whichever rows are asked for
        rng = RngSpec(9)
        full = rng.uniform_block(4, 8, 2)
        picked = rng.uniform_block(4, 8, 2, rows)
        assert picked.tobytes() == full[rows].tobytes()

    @staticmethod
    def transformed(model, block, rows, r):
        """Rows ``rows`` of a draw, from a clipped uniform block.

        The transforms are fable's own: this checks which uniforms a row
        reads, not the transforms (tests/test_special.py does).
        """
        from scipy.special import ndtri

        from fable._special import gammaincinv

        block = block[rows]
        noise_sq = (model.gamma_n * model.delta_sq[rows] / 2.0) / gammaincinv(
            model.gamma_n / 2.0, block[:, 0]
        )
        scale = r * np.sqrt(noise_sq * model.posterior_scale_sq)
        return model.mu[rows] + scale[:, None] * ndtri(block[:, 1:]), noise_sq

    @pytest.mark.parametrize(
        "rows", [slice(None), np.array([5, 1, 5, 7]), np.array([0]), np.arange(8)[::-1]]
    )
    @pytest.mark.parametrize("t", [0, 3])
    def test_draw_rows_read_uniform_block(self, mid_model, rows, t):
        # _draw_rows clips only the rows it gathers; the values are those
        # of the same rows of uniform_block through the transforms
        rng = RngSpec(17)
        for r in (mid_model.rho, 0.7):
            draw = _draw_rows(dataclasses.replace(mid_model, rho=r), t, rng, rows)
            loadings, noise_sq = self.transformed(
                mid_model, rng.uniform_block(t, mid_model.p, mid_model.k), rows, r
            )
            assert draw.loadings.tobytes() == loadings.tobytes()
            assert draw.noise_sq.tobytes() == noise_sq.tobytes()

    def test_gathered_rows_are_clipped(self, mid_model, monkeypatch):
        # a generator that returns exact zeros: unclipped, ndtri(0) is -inf
        class Zeros:
            def random(self, shape):
                block = np.random.default_rng(4).random(shape)
                block[::2, :] = 0.0
                return block

        monkeypatch.setattr(RngSpec, "generator", lambda self, t: Zeros())
        rng, rows = RngSpec(1), np.array([6, 2, 3])
        block = rng.uniform_block(0, mid_model.p, mid_model.k)
        assert block.min() == 2.0**-53
        draw = _draw_rows(mid_model, 0, rng, rows)
        assert np.isfinite(draw.loadings).all()
        loadings, noise_sq = self.transformed(mid_model, block, rows, mid_model.rho)
        assert draw.loadings.tobytes() == loadings.tobytes()
        assert draw.noise_sq.tobytes() == noise_sq.tobytes()


def numpy_rows(seed, ts, p, k, rows):
    """Rows ``rows`` of numpy's whole (p, k + 1) Philox block for each
    draw t of ``ts``: the stream the row kernel must reproduce."""
    return np.stack([
        np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, t))))
        .random((p, k + 1))[rows] for t in ts
    ])


@pytest.fixture(scope="module")
def wide_model():
    # 3 or 4 rows of 48 stay under the crossover, so they take the kernel
    _, _, y = make_factor_data(60, 48, 2, seed=105)
    return fit(center_columns(y), k=2)


class TestPhiloxRows:
    """The row kernel gives numpy's Philox uniforms bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63, 2**99 + 12345])
    @pytest.mark.parametrize("k", [1, 3, 10, 17])
    @pytest.mark.parametrize(
        "rows",
        [[40, 3, 3, 0], [], [96], [1, 2, 3, 4, 5], [33, 7, 61]],
        ids=["unsorted-duplicated", "empty", "last", "consecutive", "straddling"],
    )
    def test_equals_numpy_block(self, seed, k, rows):
        # at k + 1 = 2, 4, 11 and 18 words a row, rows 1-5 and 7, 33 and 61
        # begin and end inside Philox's 4-word blocks
        ts = [0, 1, 2**40, 2**64 - 1]
        rows = np.array(rows, dtype=np.intp)
        got = RngSpec(seed)._philox_rows(ts, k, rows)
        assert got.shape == (len(ts), len(rows), k + 1)
        assert got.tobytes() == numpy_rows(seed, ts, 97, k, rows).tobytes()

    @pytest.mark.parametrize("rows", [np.array([9]), np.array([60, 2, 2, 30])])
    def test_both_routes_clip_the_same_rows(self, rows):
        # 1 and 4 rows of 97 take the kernel, and the same rows of 12 the
        # whole block; both equal numpy's block, clipped
        rng = RngSpec(5)
        for p in (97, 72):
            got = rng.uniform_block(range(3, 7), p, 4, rows)
            want = np.clip(numpy_rows(5, range(3, 7), p, 4, rows), 2.0**-53, 1.0 - 2.0**-53)
            assert got.tobytes() == want.tobytes()
            assert rng.uniform_block(4, p, 4, rows).tobytes() == want[1].tobytes()

    def test_negative_draw_refused_on_either_route(self):
        for rows in (np.array([1]), slice(None)):
            with pytest.raises(InvalidOption, match="draw index must be nonnegative, got -1"):
                RngSpec(0).uniform_block([2, -1], 97, 2, rows)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n_samples", [37, 120])
    @pytest.mark.parametrize("reservoir", [10_000, 50])
    def test_entry_stats_equal_gathered_full_draws(self, wide_model, threads, n_samples,
                                                   reservoir, monkeypatch):
        # chunks of 8 draws: the last one short, and one cut short at the
        # reservoir's end
        monkeypatch.setattr(fable.sampler, "_CHUNK_BYTES", 8 * (8 * 6 + 48 * 3 * 3))
        monkeypatch.setattr(fable.sampler, "_RESERVOIR", reservoir)
        pairs = [(40, 3), (3, 3), (17, 40), (40, 40), (3, 17), (17, 3)]
        got = sample_entry_stats(wide_model, n_samples, RngSpec(81), pairs, threads=threads)
        want = gathered_entry_stats(wide_model, n_samples, 81, pairs, reservoir=reservoir)
        assert same_stats(got, want)
        assert got.exact == (n_samples <= reservoir)

    def test_non_finite_names_the_draw_and_row(self, wide_model, monkeypatch):
        monkeypatch.setattr(fable.sampler, "_CHUNK_BYTES", 8 * (8 * 3 + 48 * 2 * 3))
        delta_sq = wide_model.delta_sq.copy()
        delta_sq[30] = 1e308  # gamma_n * delta_sq / 2 overflows in row 30 alone
        model = dataclasses.replace(wide_model, delta_sq=delta_sq)
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # pool threads' overflow
            with pytest.raises(NonFinite, match="draw 3 is not finite at row 30"):
                draw_sample(model, 3, RngSpec(9))
            for threads in (1, 2):
                with pytest.raises(NonFinite, match="draw 1 is not finite at row 30"):
                    sample_entry_stats(model, 20, RngSpec(9), [(5, 30), (30, 30)],
                                       threads=threads)


# Oracles: the entry-set code as it was before an entry set became two
# index arrays, one (u, v) tuple at a time into lists and dicts keyed by
# pair. The array paths must give the same values bit for bit.


def pair_dot(loadings, u, v):
    """Row u of ``loadings`` dotted with row v: the entry kernel's einsum
    on one pair."""
    return float(np.einsum("ek,ek->e", loadings[[u]], loadings[[v]])[0])


def reference_check_pairs(indices, p):
    pairs = []
    for pair in indices:
        u, v = int(pair[0]), int(pair[1])
        if not (0 <= u < p and 0 <= v < p):
            raise IndexOutOfRange(f"entry ({u}, {v}) outside a {p} x {p} matrix")
        pairs.append((u, v))
    return pairs


def reference_dense_mean(model, indices):
    pairs = reference_check_pairs(indices, model.p)
    noise_mean = model.gamma_n * model.delta_sq / (model.gamma_n - 2.0)
    inflation = 1.0 + model.k * model.rho**2 * model.posterior_scale_sq
    out = {}
    for u, v in pairs:
        val = pair_dot(model.mu, u, v)
        if u == v:
            val += float(inflation * noise_mean[u])
        out[(u, v)] = val
    return out


def reference_sample_entry_stats(model, n_samples, rng, indices, *, rho=None,
                                 quantiles=(0.025, 0.5, 0.975), reservoir=10_000):
    n_samples = _check_count(n_samples)
    if rho is not None:
        model = dataclasses.replace(model, rho=rho)
    pairs = reference_check_pairs(indices, model.p)
    uv = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    rows, inverse = np.unique(uv, return_inverse=True)
    u_loc, v_loc = inverse.reshape(uv.shape).T
    diag_mask = (uv[:, 0] == uv[:, 1]).astype(np.float64)
    cap = min(n_samples, reservoir)
    buf = np.empty((cap, len(pairs)))
    s1, d1, d2 = np.zeros(len(pairs)), np.zeros(len(pairs)), np.zeros(len(pairs))
    for seen, t in enumerate(range(1, n_samples + 1)):
        sample = _draw_rows(model, t, rng, rows)
        vals = (
            np.einsum("ek,ek->e", sample.loadings[u_loc], sample.loadings[v_loc])
            + diag_mask * sample.noise_sq[u_loc]
        )
        s1 += vals
        if not seen:
            shift, scale = vals, -np.frexp(vals)[1]
        dev = np.ldexp(vals - shift, scale)
        d1 += dev
        d2 += dev * dev
        if seen < cap:
            buf[seen] = vals
    mean = s1 / n_samples
    var = (d2 - d1 * d1 / n_samples) / (n_samples - 1)
    sd = np.ldexp(np.sqrt(np.maximum(var, 0.0)), -scale)
    qlevels = list(quantiles)
    qvals = np.quantile(buf, qlevels, axis=0, overwrite_input=True)
    return {
        pair: EntryStats(
            mean=float(mean[e]),
            sd=float(sd[e]),
            quantiles={q: float(qvals[i, e]) for i, q in enumerate(qlevels)},
            n_samples=n_samples,
            exact=n_samples <= cap,
        )
        for e, pair in enumerate(pairs)
    }


ENTRY_SETS = {
    "duplicate": [(5, 1), (2, 6), (5, 1), (5, 1)],
    "unsorted": [(4, 6), (0, 7), (3, 3), (1, 2)],
    "diagonal": [(6, 6), (2, 2), (6, 6), (0, 0)],
    "u_above_v": [(7, 0), (5, 3), (3, 5), (6, 6)],
    "single": [(4, 1)],
}


def entry_input(name, form):
    pairs = ENTRY_SETS[name]
    return pairs if form == "tuples" else np.array(pairs, dtype=np.int32)


entry_sets = pytest.mark.parametrize("name", list(ENTRY_SETS))
entry_forms = pytest.mark.parametrize("form", ["tuples", "array"])


class TestEntrySetOracles:
    @entry_sets
    @entry_forms
    def test_entry_set_matches_check_pairs(self, name, form):
        u, v = _entry_set(entry_input(name, form), 8)
        assert list(zip(u.tolist(), v.tolist())) == reference_check_pairs(ENTRY_SETS[name], 8)
        for arr in (u, v):
            assert arr.dtype == np.intp and not arr.flags.writeable

    @pytest.mark.parametrize(
        "bad", [[(0, 1), (8, 2), (-1, 0)], [(3, -1)], [(2, 9), (9, 2)]]
    )
    @entry_forms
    def test_entry_set_refuses_as_check_pairs(self, bad, form):
        with pytest.raises(IndexOutOfRange) as want:
            reference_check_pairs(bad, 8)
        with pytest.raises(IndexOutOfRange) as got:
            _entry_set(bad if form == "tuples" else np.array(bad), 8)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "bad", [np.array([0, 1]), np.zeros((2, 3), dtype=int), np.array([[0.0, 1.0]])],
        ids=["flat", "three-columns", "float"],
    )
    def test_entry_set_refuses_other_shapes(self, bad):
        with pytest.raises(InvalidOption):
            _entry_set(bad, 8)

    def test_empty_entry_set(self):
        u, v = _entry_set([], 8)
        assert u.shape == v.shape == (0,) and u.dtype == np.intp

    @entry_sets
    @entry_forms
    def test_dense_mean_matches_per_pair(self, mid_model, name, form):
        want = reference_dense_mean(mid_model, ENTRY_SETS[name])
        got = posterior_mean(mid_model, form="dense_entrywise",
                             indices=entry_input(name, form))
        assert got.tolist() == [want[pair] for pair in ENTRY_SETS[name]]

    @pytest.mark.parametrize("k", [1, 3, 10, 17, 50])
    @pytest.mark.parametrize("order", ["F", "C"], ids=["column-major", "row-major"])
    def test_dense_mean_matches_per_pair_at_rank(self, k, order):
        # a model holds mu row-major whatever layout it is built from, so
        # both give the per-pair entries, bit for bit, at every width
        _, _, y = make_factor_data(max(4 * k, 40), 60, min(k, 5), seed=103)
        fitted = fit(center_columns(y), k=k)
        mu = np.asarray(fitted.mu, order=order)
        assert mu.flags[f"{order}_CONTIGUOUS"]
        model = dataclasses.replace(fitted, mu=mu)
        assert model.mu.flags.c_contiguous
        pairs = [(u, v) for u in range(60) for v in range(u, 60)]
        want = reference_dense_mean(model, pairs)
        got = posterior_mean(model, form="dense_entrywise", indices=pairs)
        assert got.tolist() == [want[pair] for pair in pairs]
        assert got.tobytes() == posterior_mean(
            fitted, form="dense_entrywise", indices=pairs
        ).tobytes()

    @entry_sets
    @entry_forms
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rho", [None, 0.0], ids=["model-rho", "rho0"])
    def test_sample_entry_stats_matches_per_pair(self, mid_model, name, form, threads, rho):
        want = reference_sample_entry_stats(mid_model, 60, RngSpec(83), ENTRY_SETS[name],
                                            rho=rho)
        model = mid_model if rho is None else dataclasses.replace(mid_model, rho=rho)
        got = sample_entry_stats(model, 60, RngSpec(83), entry_input(name, form),
                                 threads=threads)
        for e, pair in enumerate(ENTRY_SETS[name]):
            assert got.mean[e] == want[pair].mean
            assert got.sd[e] == want[pair].sd
            assert {q: vals[e] for q, vals in got.quantiles.items()} == want[pair].quantiles
            assert (got.n_samples, got.exact) == (want[pair].n_samples, want[pair].exact)
