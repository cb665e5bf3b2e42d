"""Distributional, determinism, and streaming tests for the sampler."""

import numpy as np
import pytest

from fable.errors import (
    GammaTooSmall,
    IndexOutOfRange,
    InvalidSampleCount,
    TooFewSamples,
)
from fable.linalg import StructuredCovariance, center_columns
from fable.model import FableModel, fit
import fable.sampler
from fable.sampler import (
    _RESERVOIR_TAG,
    _draw_rows,
    CovarianceSample,
    EntryStats,
    RngSpec,
    draw_sample,
    draw_samples,
    posterior_mean,
    sample_entry_stats,
)
from test_model import make_factor_data


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
        s = draw_sample(small_model, 1, RngSpec(3), rho=0.0)
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
        d = s.dense()
        assert s.entry(2, 5) == pytest.approx(d[2, 5], rel=1e-12)
        assert s.entry(4, 4) == pytest.approx(d[4, 4], rel=1e-12)

    def test_draws_positive_definite(self, mid_model):
        for t in range(1, 6):
            s = draw_sample(mid_model, t, RngSpec(23))
            assert np.linalg.eigvalsh(s.dense()).min() > 0


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngSpec(-1)


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
        for u, v in pairs:
            assert dense[(u, v)] == pytest.approx(
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
        assert dense[(4, 4)] - factored == pytest.approx(want_gap, rel=1e-12)

    def test_diagonal_gap_shrinks_like_one_over_n(self):
        gaps = []
        for n in (200, 400, 800, 1600):
            _, _, y = make_factor_data(n, 10, 2, seed=301)
            m = fit(center_columns(y), k=2)
            dense = posterior_mean(m, form="dense_entrywise", indices=[(0, 0)])
            factored = float(m.mu[0] @ m.mu[0] + m.delta_sq[0])
            gaps.append(dense[(0, 0)] - factored)
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all(ratios > 1.5) and np.all(ratios < 2.6)

    def test_mc_agreement(self, small_model):
        pairs = [(0, 0), (0, 1), (1, 2), (2, 2)]
        stats = sample_entry_stats(small_model, 20_000, RngSpec(53), pairs)
        dense = posterior_mean(small_model, form="dense_entrywise", indices=pairs)
        for pair in pairs:
            se = stats[pair].sd / np.sqrt(stats[pair].n_samples)
            assert abs(stats[pair].mean - dense[pair]) < 5.0 * se

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
            rho_strategy="manual",
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
    streaming sums and Algorithm-R reservoir substream."""
    u = np.array([a for a, _ in pairs])
    v = np.array([b for _, b in pairs])
    diag = (u == v).astype(np.float64)
    cap = min(n_samples, reservoir)
    buf = np.empty((cap, len(pairs)))
    res_rng = np.random.default_rng(np.random.SeedSequence((seed, _RESERVOIR_TAG)))
    s1, s2 = np.zeros(len(pairs)), np.zeros(len(pairs))
    for seen, t in enumerate(range(1, n_samples + 1)):
        d = draw_sample(model, t, RngSpec(seed), rho=rho)
        vals = np.einsum("ek,ek->e", d.loadings[u], d.loadings[v]) + diag * d.noise_sq[u]
        s1 += vals
        s2 += vals * vals
        if seen < cap:
            buf[seen] = vals
        else:
            slot = int(res_rng.integers(0, seen + 1))
            if slot < cap:
                buf[slot] = vals
    mean = s1 / n_samples
    sd = np.sqrt(np.maximum((s2 - n_samples * mean * mean) / (n_samples - 1), 0.0))
    q = np.quantile(buf, list(quantiles), axis=0)
    return {
        pair: EntryStats(
            mean=float(mean[e]),
            sd=float(sd[e]),
            quantiles={lv: float(q[i, e]) for i, lv in enumerate(quantiles)},
            n_samples=n_samples,
            exact=n_samples <= cap,
        )
        for e, pair in enumerate(pairs)
    }


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
        assert calls == [3] * 40

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
    def test_bit_identical_to_gathered_full_draws(self, mid_model, threads, pairs, options):
        got = sample_entry_stats(
            mid_model, 120, RngSpec(79), pairs, threads=threads, **options
        )
        assert got == gathered_entry_stats(mid_model, 120, 79, pairs, **options)
        assert all(st.exact == ("reservoir" not in options) for st in got.values())

    def test_matches_manual_streaming(self, small_model):
        pairs = [(0, 1), (2, 2)]
        stats = sample_entry_stats(small_model, 500, RngSpec(61), pairs)
        vals = {pair: [] for pair in pairs}
        for s in draw_samples(small_model, 500, RngSpec(61)):
            for pair in pairs:
                vals[pair].append(s.entry(*pair))
        for pair in pairs:
            arr = np.array(vals[pair])
            assert stats[pair].mean == pytest.approx(arr.mean(), rel=1e-10)
            assert stats[pair].sd == pytest.approx(arr.std(ddof=1), rel=1e-10)
            assert stats[pair].quantiles[0.5] == pytest.approx(
                np.quantile(arr, 0.5), rel=1e-10
            )
            assert stats[pair].exact

    def test_reservoir_flagged(self, small_model):
        stats = sample_entry_stats(
            small_model, 600, RngSpec(67), [(0, 0)], reservoir=200
        )
        st = stats[(0, 0)]
        assert not st.exact
        assert st.n_samples == 600
        lo, hi = st.quantiles[0.025], st.quantiles[0.975]
        assert lo < st.mean < hi

    def test_thread_invariance(self, small_model):
        a = sample_entry_stats(small_model, 300, RngSpec(71), [(0, 1)], threads=1)
        b = sample_entry_stats(small_model, 300, RngSpec(71), [(0, 1)], threads=3)
        assert a[(0, 1)] == b[(0, 1)]

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

    @staticmethod
    def transformed(model, block, rows, r):
        """Rows ``rows`` of a draw, from a clipped uniform block."""
        from scipy.special import gammaincinv, ndtri

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
            draw = _draw_rows(mid_model, t, rng, r, rows)
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
        draw = _draw_rows(mid_model, 0, rng, mid_model.rho, rows)
        assert np.isfinite(draw.loadings).all()
        loadings, noise_sq = self.transformed(mid_model, block, rows, mid_model.rho)
        assert draw.loadings.tobytes() == loadings.tobytes()
        assert draw.noise_sq.tobytes() == noise_sq.tobytes()
