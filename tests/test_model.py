"""Oracle and property tests for rank selection, fitting, and rho."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from fable.errors import (
    AllZeroSpectrum,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidAlpha,
    InvalidOption,
    InvalidSpectrumFraction,
    NonFinite,
    RankOutOfRange,
    ZeroResidual,
    ZeroResidualVariance,
)
from fable.linalg import DataMatrix, center_columns, truncated_svd
from fable.model import (
    RHO_STRATEGIES,
    FableModel,
    _b_blocks,
    _select_rank,
    compute_rho,
    fit,
    hyperparameters_from_factors,
)


def compute_b_matrix(model, *, block=512):
    """The full p x p inflation matrix B, mirrored from the same
    upper-triangle row blocks that :func:`compute_rho` streams; the
    whole-matrix oracle for its summaries (O(p^2) memory)."""
    out = np.empty((model.p, model.p))
    for lo, hi, b in _b_blocks(model.mu, model.v_sq, block):
        out[lo:, lo:hi] = b.T
        out[lo:hi, lo:] = b
    return out


def factor_estimate(svd, *, c=None):
    """Latent factor representative M = A @ inv(C.T); the explicit-root
    oracle for :func:`fit` and :func:`hyperparameters_from_factors`.

    ``A`` is the SVD-based score matrix U diag(s) / sqrt(p). Any k x k
    matrix ``c`` with c @ c.T = diag(s^2) / (n p) is a valid square root
    of the implied loading Gram matrix; the default is the diagonal one,
    which collapses to sqrt(n) * U.
    """
    n = svd.u.shape[0]
    p = svd.v.shape[0]
    if c is None:
        return np.sqrt(n) * svd.u
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (svd.k, svd.k):
        raise DimensionMismatch(f"c must be {(svd.k, svd.k)}, got {c.shape}")
    gram = svd.singvals**2 / (n * p)
    err = np.abs(c @ c.T - np.diag(gram)).max()
    if err > 1e-8 * max(1.0, gram.max()):
        raise ValueError("c @ c.T does not match the singular value Gram matrix")
    a = svd.u * (svd.singvals / np.sqrt(p))
    return np.linalg.solve(c, a.T).T


def make_factor_data(n, p, k, seed, spike_prob=0.5, slab_sd=0.5):
    """Spike-and-slab loadings, uniform noise variances, Gaussian factors."""
    rng = np.random.default_rng(seed)
    lam = np.where(
        rng.random((p, k)) < spike_prob, 0.0, rng.normal(0.0, slab_sd, (p, k))
    )
    sig = rng.uniform(0.5, 5.0, p)
    y = rng.normal(size=(n, k)) @ lam.T + rng.normal(size=(n, p)) * np.sqrt(sig)
    return lam, sig, y


def select_rank(dm, S0=0.75):
    """The rank selection that fit runs on the spectrum of dm."""
    return _select_rank(dm.n, dm.p, truncated_svd(dm, 1).spectrum, S0)


def criterion(dm):
    """The criterion values of dm over the whole scored grid."""
    return select_rank(dm, S0=1.0).jic_values


class TestSelectK0:
    SPECTRUM = np.array([4.0, 2.0, 1.0, 1.0])  # cumulative fractions .5 .75 .875 1

    def K0(self, S0):
        return _select_rank(4, 4, self.SPECTRUM, S0).K0

    def test_default_threshold(self):
        assert self.K0(0.75) == 2

    def test_half(self):
        assert self.K0(0.5) == 1

    def test_point_nine(self):
        assert self.K0(0.9) == 4

    def test_full_mass(self):
        assert self.K0(1.0) == 4

    def test_all_zero(self):
        with pytest.raises(AllZeroSpectrum):
            _select_rank(10, 10, np.zeros(3), 0.75)

    def test_bad_threshold(self):
        # fit checks S0 before any spectrum is computed
        dm = center_columns(np.random.default_rng(4).normal(size=(6, 4)))
        with pytest.raises(InvalidSpectrumFraction):
            fit(dm, S0=0.0)


class TestJic:
    def test_formula(self):
        rng = np.random.default_rng(5)
        dm = center_columns(rng.normal(size=(6, 4)))
        s = truncated_svd(dm, k=2).spectrum
        rss = float(s[2] ** 2 + s[3] ** 2)
        want = 24.0 * math.log(rss / 24.0) + 2 * 6 * math.log(4.0)
        assert criterion(dm)[1] == pytest.approx(want, rel=1e-12)

    def test_rank_one_signal_wins(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=80)
        v = rng.normal(size=30)
        y = np.outer(u, v) + 0.05 * rng.normal(size=(80, 30))
        vals = criterion(center_columns(y))[:6]
        assert int(np.argmin(vals)) == 0

    def test_pure_noise_prefers_small_rank(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            vals = criterion(center_columns(rng.normal(size=(100, 50))))
            if vals[0] < vals[4]:
                wins += 1
        assert wins >= 95

    def test_zero_residual_below_full_rank_warns(self):
        # a hand-built spectrum with an exactly zero trailing value; an
        # SVD computed in floating point never produces one
        with pytest.warns(RuntimeWarning, match="zero residual"):
            sel = _select_rank(6, 3, np.array([3.0, 2.0, 0.0]), 1.0)
        assert sel.jic_values[1] == -np.inf
        assert sel.k_hat == 2

    def test_penalty_monotone_in_k(self):
        rng = np.random.default_rng(9)
        dm = center_columns(rng.normal(size=(40, 20)))
        s = truncated_svd(dm, k=10).spectrum
        n, p = 40, 20
        vals = criterion(dm)
        pens = [
            vals[k - 1] - n * p * math.log(np.sum(s[k:] ** 2) / (n * p))
            for k in range(1, 11)
        ]
        assert np.all(np.diff(pens) > 0)

    def test_matches_spectrum_expression(self):
        # the criterion values, bit for bit, and the rank they pick
        _, _, y = make_factor_data(60, 40, 3, seed=15)
        dm = center_columns(y)
        s = truncated_svd(dm, 1).spectrum
        n, p = dm.n, dm.p
        sel = _select_rank(n, p, s, 0.75)
        want = [
            float(n * p * np.log(float(np.sum(s[k:] ** 2)) / (n * p))
                  + k * max(n, p) * np.log(min(n, p)))
            for k in range(1, len(sel.jic_values) + 1)
        ]
        assert list(sel.jic_values) == want
        assert sel.k_hat == int(np.argmin(want)) + 1 == fit(dm).k


def test_fit_does_not_see_the_input_layout():
    # row-major and column-major copies of one matrix fit the same model
    _, _, y = make_factor_data(60, 200, 3, seed=17)
    a = fit(center_columns(np.ascontiguousarray(y)))
    b = fit(center_columns(np.asfortranarray(y)))
    assert a.rho == b.rho and a.k == b.k
    for name in ("mu", "delta_sq", "v_sq", "l_sq", "u", "spectrum"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestSelectRank:
    def test_recovers_planted_rank(self):
        hits = 0
        for rep in range(20):
            _, _, y = make_factor_data(500, 1000, 10, seed=1000 + rep)
            hits += select_rank(center_columns(y)).k_hat == 10
        assert hits >= 18

    def test_noiseless_exact_rank(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(20, 2)) @ rng.normal(size=(2, 10))
        # The trailing singular values are only zero up to roundoff, so
        # the criterion is finite but hugely negative from rank 2 on and
        # the penalty decides among those ranks.
        sel = select_rank(center_columns(y))
        assert sel.k_hat == 2

    def test_cap_respected(self):
        _, _, y = make_factor_data(100, 60, 5, seed=13)
        sel = select_rank(center_columns(y), S0=0.001)
        assert sel.K0 == 1
        assert sel.k_hat == 1
        assert len(sel.jic_values) == 1

    def test_grid_length(self):
        _, _, y = make_factor_data(50, 30, 2, seed=14)
        sel = select_rank(center_columns(y), S0=0.75)
        assert len(sel.jic_values) == min(sel.K0, 29)

    def test_one_scorable_rank_at_min_dimension_two(self):
        rng = np.random.default_rng(16)
        sel = select_rank(center_columns(rng.normal(size=(30, 2))), S0=1.0)
        assert sel.k_hat == 1 and len(sel.jic_values) == 1

    def test_wide_data_stops_below_the_centered_rank(self):
        # centering leaves rank n - 1 = 3, whose residual is only roundoff:
        # scored, k = 3 would win at -inf and leave every column with zero
        # residual variance (ZeroResidualVariance)
        dm = center_columns(np.random.default_rng(0).normal(size=(4, 50)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sel = select_rank(dm)
            m = fit(dm)
        assert len(sel.jic_values) == 2 and np.all(np.isfinite(sel.jic_values))
        assert m.k == sel.k_hat

    def test_fit_refuses_a_constant_matrix(self):
        with pytest.warns(RuntimeWarning, match="constant"):
            dm = center_columns(np.full((5, 4), 3.0))
        with pytest.raises(AllZeroSpectrum):
            fit(dm)

    def test_fit_without_rank_refuses_one_column(self):
        dm = center_columns(np.random.default_rng(17).normal(size=(8, 1)))
        with pytest.raises(ZeroResidual, match="no scorable ranks"):
            fit(dm)


class TestEstimateTauSq:
    """The moment-matched tau_sq and the signal/residual split, as fit
    computes them when no tau_sq is given."""

    def test_projection_oracle(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=(6, 3))
        dm = center_columns(y)
        m = fit(dm, k=1)
        u1 = truncated_svd(dm, k=1).u[:, 0]
        for j in range(3):
            col = dm.values[:, j]
            proj = float(u1 @ col)
            np.testing.assert_allclose(m.l_sq[j], proj**2 / 6.0, rtol=1e-12)
            np.testing.assert_allclose(
                m.v_sq[j], (col @ col - proj**2) / 6.0, rtol=1e-10
            )
        np.testing.assert_allclose(m.tau_sq, np.mean(m.l_sq / m.v_sq), rtol=1e-12)

    def test_pythagoras(self):
        for seed in range(5):
            rng = np.random.default_rng(30 + seed)
            dm = center_columns(rng.normal(size=(15, 8)))
            m = fit(dm, k=3)
            ysq = (dm.values**2).sum(axis=0) / dm.n
            np.testing.assert_allclose(m.l_sq + m.v_sq, ysq, rtol=1e-10)

    def test_zero_residual_variance(self, monkeypatch):
        rng = np.random.default_rng(22)
        y = np.outer(rng.normal(size=10), rng.normal(size=4))
        dm = center_columns(y)

        def no_rho(*args, **kwargs):
            raise AssertionError("rho computed for an unidentifiable fit")

        monkeypatch.setattr("fable.model.compute_rho", no_rho)
        with pytest.raises(ZeroResidualVariance):
            fit(dm, k=1)


class TestFactorEstimate:
    def test_canonical_is_scaled_u(self):
        rng = np.random.default_rng(41)
        dm = center_columns(rng.normal(size=(30, 12)))
        svd = truncated_svd(dm, k=4)
        np.testing.assert_allclose(
            factor_estimate(svd), np.sqrt(30) * svd.u, rtol=1e-14
        )

    def test_gram_identities_any_root(self):
        rng = np.random.default_rng(42)
        dm = center_columns(rng.normal(size=(25, 18)))
        svd = truncated_svd(dm, k=3)
        n, p = 25, 18
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        c = np.diag(svd.singvals / np.sqrt(n * p)) @ q
        mhat = factor_estimate(svd, c=c)
        np.testing.assert_allclose(mhat.T @ mhat, n * np.eye(3), atol=1e-8)
        np.testing.assert_allclose(
            mhat @ mhat.T, n * svd.u @ svd.u.T, atol=1e-8
        )

    def test_invalid_root_rejected(self):
        rng = np.random.default_rng(43)
        dm = center_columns(rng.normal(size=(10, 6)))
        svd = truncated_svd(dm, k=2)
        with pytest.raises(ValueError):
            factor_estimate(svd, c=np.eye(2))


class TestFit:
    def test_gamma_n(self):
        _, _, y = make_factor_data(99, 20, 2, seed=51)
        m = fit(center_columns(y), k=2)
        assert m.gamma_n == pytest.approx(100.0)
        assert m.gamma0 == 1.0 and m.delta0_sq == 1.0

    def test_matches_general_solver(self):
        _, _, y = make_factor_data(50, 20, 3, seed=52)
        dm = center_columns(y)
        m = fit(dm, k=3, tau_sq=0.7)
        svd = truncated_svd(dm, k=3)
        mu, delta_sq, gamma_n = hyperparameters_from_factors(
            factor_estimate(svd), dm.values, 0.7
        )
        np.testing.assert_allclose(m.mu, mu, atol=1e-10)
        np.testing.assert_allclose(m.delta_sq, delta_sq, rtol=1e-10)
        assert m.gamma_n == gamma_n

    def test_large_tau_limit(self):
        _, _, y = make_factor_data(40, 15, 2, seed=53)
        dm = center_columns(y)
        m = fit(dm, k=2, tau_sq=1e8)
        svd = truncated_svd(dm, k=2)
        want = (svd.u.T @ dm.values).T / np.sqrt(40)
        np.testing.assert_allclose(m.mu, want, rtol=1e-6)

    def test_all_delta_positive(self):
        _, _, y = make_factor_data(60, 40, 4, seed=54)
        m = fit(center_columns(y), k=4)
        assert np.all(m.delta_sq > 0)
        assert np.all(m.v_sq > 0)

    def test_deterministic(self):
        _, _, y = make_factor_data(30, 25, 2, seed=55)
        a = fit(center_columns(y), k=2)
        b = fit(center_columns(y), k=2)
        assert a.mu.tobytes() == b.mu.tobytes()
        assert a.delta_sq.tobytes() == b.delta_sq.tobytes()
        assert a.rho == b.rho

    def test_requires_centered(self):
        with pytest.raises(InvalidOption, match="not centered"):
            fit(DataMatrix(np.ones((5, 3)) + np.eye(5, 3), np.ones(3)), k=1)

    def test_fits_any_centered_data_matrix(self):
        # the type is the guarantee: centered values with their means fit
        # as center_columns' output of the same values does
        _, _, y = make_factor_data(20, 6, 1, seed=57)
        dm = center_columns(y)
        a = fit(DataMatrix(dm.values, dm.column_means), k=1)
        b = fit(dm, k=1)
        assert a.mu.tobytes() == b.mu.tobytes() and a.rho == b.rho

    def test_rank_out_of_range(self):
        _, _, y = make_factor_data(10, 5, 1, seed=56)
        with pytest.raises(RankOutOfRange):
            fit(center_columns(y), k=6)

    def test_rank_selection_inside_fit(self):
        _, _, y = make_factor_data(500, 1000, 10, seed=57)
        m = fit(center_columns(y))
        assert m.k == 10

    def test_noise_variance_calibration(self):
        _, sig, y = make_factor_data(500, 1000, 10, seed=7)
        m = fit(center_columns(y), k=10)
        assert np.median(np.abs(m.delta_sq - sig)) < 0.15

    def test_rho_at_least_one(self):
        for strategy in ("mean_b", "sup_b", "solve_mean_coverage"):
            _, _, y = make_factor_data(80, 30, 2, seed=60)
            m = fit(center_columns(y), k=2, rho_strategy=strategy)
            assert m.rho >= 1.0


class TestFactorInvariance:
    """The posterior must not depend on which Gram square root defines
    the factors; only inner products of mu and delta_sq are exposed."""

    def test_hyperparameters_invariant(self):
        rng = np.random.default_rng(71)
        _, _, y = make_factor_data(40, 15, 3, seed=71)
        dm = center_columns(y)
        svd = truncated_svd(dm, k=3)
        mu0, d0, _ = hyperparameters_from_factors(factor_estimate(svd), dm.values, 0.5)
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            c = np.diag(svd.singvals / np.sqrt(40 * 15)) @ q
            mu1, d1, _ = hyperparameters_from_factors(
                factor_estimate(svd, c=c), dm.values, 0.5
            )
            np.testing.assert_allclose(mu1 @ mu1.T, mu0 @ mu0.T, atol=1e-8)
            np.testing.assert_allclose(d1, d0, rtol=1e-8)


class TestBMatrix:
    @staticmethod
    def manual_model(mu, v_sq, n=10, rho=1.0):
        mu = np.asarray(mu, dtype=float)
        p, k = mu.shape
        return FableModel(
            n=n,
            p=p,
            k=k,
            tau_sq=1.0,
            gamma0=1.0,
            delta0_sq=1.0,
            gamma_n=float(n + 1),
            rho=rho,
            rho_strategy="mean_b",
            mu=mu,
            delta_sq=np.ones(p),
            v_sq=np.asarray(v_sq, dtype=float),
            l_sq=np.zeros(p),
            u=np.zeros((n, k)),
            spectrum=np.ones(1),
        )

    def test_hand_example(self):
        m = self.manual_model([[1.0], [2.0]], [0.5, 0.25])
        b = compute_b_matrix(m)
        assert b[0, 1] == pytest.approx(math.sqrt(1 + 8 / 2.25), rel=1e-12)
        assert b[1, 0] == b[0, 1]
        assert b[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert b[1, 1] == pytest.approx(3.0, rel=1e-12)

    def test_zero_loadings_give_ones(self):
        m = self.manual_model(np.zeros((4, 2)), np.ones(4))
        np.testing.assert_allclose(compute_b_matrix(m), np.ones((4, 4)))

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(81)
        mu = rng.normal(size=(6, 3))
        v_sq = rng.uniform(0.2, 2.0, 6)
        m = self.manual_model(mu, v_sq)
        b = compute_b_matrix(m)
        for u in range(6):
            for v in range(6):
                mu_u, mu_v = mu[u], mu[v]
                m2u, m2v = mu_u @ mu_u, mu_v @ mu_v
                if u == v:
                    want = math.sqrt(1 + m2u / (2 * v_sq[u]))
                else:
                    num = m2u * m2v + (mu_u @ mu_v) ** 2
                    den = v_sq[u] * m2v + v_sq[v] * m2u
                    want = math.sqrt(1 + num / den)
                assert b[u, v] == pytest.approx(want, rel=1e-12)

    def test_everywhere_at_least_one(self):
        _, _, y = make_factor_data(50, 40, 3, seed=82)
        m = fit(center_columns(y), k=3)
        assert compute_b_matrix(m).min() >= 1.0

    def test_block_size_irrelevant(self):
        rng = np.random.default_rng(83)
        m = self.manual_model(rng.normal(size=(7, 2)), rng.uniform(0.5, 1, 7))
        a = compute_b_matrix(m, block=2)
        b = compute_b_matrix(m, block=512)
        assert a.tobytes() == b.tobytes()

    def test_degenerate_denominator(self):
        m = self.manual_model([[1.0], [1.0]], [0.0, 1.0])
        with pytest.raises(DegenerateDenominator):
            compute_b_matrix(m)


def mean_coverage(m, b, rho, alpha=0.05):
    """Nominal mean entrywise coverage over the upper triangle of B."""
    z = ndtri(1 - alpha / 2)
    m_sq = (m.mu**2).sum(axis=1)
    q_off = 2 * ndtr(z * rho / b[np.triu_indices(m.p, 1)]) - 1
    ratio_d = np.sqrt(m.v_sq**2 + 2 * rho**2 * m.v_sq * m_sq) / (m_sq + m.v_sq)
    q_d = 2 * ndtr(z * ratio_d) - 1
    return (q_off.sum() + q_d.sum()) / (m.p * (m.p + 1) / 2)


def count_b_passes(monkeypatch):
    """A list that gains one entry per pass over B in fable.model."""
    import fable.model as model

    passes = []
    real_blocks = model._b_blocks

    def counted_blocks(*args, **kwargs):
        passes.append(1)
        return real_blocks(*args, **kwargs)

    monkeypatch.setattr(model, "_b_blocks", counted_blocks)
    return passes


class TestComputeRho:
    def test_mean_matches_materialized(self):
        _, _, y = make_factor_data(60, 25, 2, seed=91)
        m = fit(center_columns(y), k=2)
        b = compute_b_matrix(m)
        want = float(np.mean(b[np.triu_indices(m.p)]))
        assert compute_rho(m.mu, m.v_sq, strategy="mean_b") == pytest.approx(
            want, rel=1e-12
        )

    def test_sup_matches_materialized(self):
        _, _, y = make_factor_data(60, 25, 2, seed=92)
        m = fit(center_columns(y), k=2)
        want = float(compute_b_matrix(m).max())
        assert compute_rho(m.mu, m.v_sq, strategy="sup_b") == pytest.approx(
            want, rel=1e-14
        )

    def test_zero_loadings(self):
        mu = np.zeros((5, 2))
        v_sq = np.ones(5)
        assert compute_rho(mu, v_sq, strategy="mean_b") == 1.0
        assert compute_rho(mu, v_sq, strategy="sup_b") == 1.0
        assert compute_rho(mu, v_sq, strategy="solve_mean_coverage") == 1.0

    def test_solve_achieves_target(self):
        _, _, y = make_factor_data(500, 50, 5, seed=11)
        m = fit(center_columns(y), k=5)
        rho = compute_rho(m.mu, m.v_sq, strategy="solve_mean_coverage", alpha=0.05)
        # Independent recomputation of the nominal mean coverage from the
        # materialized matrix.
        qbar = mean_coverage(m, compute_b_matrix(m), rho)
        assert qbar == pytest.approx(0.95, abs=1e-3)

    def test_solve_close_to_mean(self):
        _, _, y = make_factor_data(500, 50, 5, seed=11)
        m = fit(center_columns(y), k=5, rho_strategy="mean_b")
        rho = compute_rho(m.mu, m.v_sq, strategy="solve_mean_coverage", alpha=0.05)
        assert abs(rho - m.rho) / m.rho < 0.15

    def test_solve_streams_b_in_few_evaluations(self, monkeypatch):
        # each evaluation of the mean coverage streams B once (the first
        # also yields mean B and sup B), Newton steps from mean B need few
        # of them, and the solve holds a few row blocks of B, never its
        # p (p + 1) / 2 values
        import tracemalloc

        p = 2000
        _, _, y = make_factor_data(100, p, 3, seed=95)
        m = fit(center_columns(y), k=3)
        passes = count_b_passes(monkeypatch)
        tracemalloc.start()
        try:
            rho = compute_rho(m.mu, m.v_sq, strategy="solve_mean_coverage")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 <= len(passes) <= 8
        assert peak < 8 * (p * (p + 1) // 2) / 4
        assert mean_coverage(m, compute_b_matrix(m), rho) == pytest.approx(0.95, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 0.01, 1e-4, 1e-8])
    def test_solve_meets_small_alpha(self, alpha, monkeypatch):
        # the mean miscoverage, summed as erfc so it keeps its relative
        # precision, hits alpha at any alpha in few evaluations
        from scipy.special import erfc

        _, _, y = make_factor_data(200, 120, 4, seed=97)
        m = fit(center_columns(y), k=4)
        passes = count_b_passes(monkeypatch)
        rho = compute_rho(m.mu, m.v_sq, strategy="solve_mean_coverage", alpha=alpha)
        assert len(passes) <= 8
        b = compute_b_matrix(m)
        c = ndtri(1 - alpha / 2) / math.sqrt(2)
        m_sq = (m.mu**2).sum(axis=1)
        ratio = np.sqrt(m.v_sq**2 + 2 * rho**2 * m.v_sq * m_sq) / (m_sq + m.v_sq)
        miss = erfc(c * rho / b[np.triu_indices(m.p, 1)]).sum() + erfc(c * ratio).sum()
        assert miss / (m.p * (m.p + 1) / 2) == pytest.approx(alpha, rel=1e-9)

    def test_block_size_irrelevant(self):
        # sup B takes the same entries at any block size, so it is the
        # same float; mean B adds whole-block totals, so another block
        # size sums in another order and moves only roundoff (measured:
        # 1.7e-15 relative)
        for n, p, k, seed in ((40, 33, 2, 93), (50, 700, 10, 96)):
            _, _, y = make_factor_data(n, p, k, seed=seed)
            m = fit(center_columns(y), k=k)
            sup = {rho_at_block(block, m.mu, m.v_sq, strategy="sup_b")
                   for block in (1, 7, 32, 512)}
            assert len(sup) == 1, p
            mean = [rho_at_block(block, m.mu, m.v_sq, strategy="mean_b")
                    for block in (1, 7, 32, 512)]
            assert mean[2] == compute_rho(m.mu, m.v_sq, strategy="mean_b")
            np.testing.assert_allclose(mean, mean[2], rtol=1e-14, atol=0)

    def test_block_totals_match_row_by_row_sums(self):
        # each block's upper-triangle total from whole-block reductions,
        # against one sum per row of the triangle
        import fable.model as model

        _, _, y = make_factor_data(50, 700, 10, seed=96)
        m = fit(center_columns(y), k=10)
        rows = np.concatenate([[b[i, i:].sum() for i in range(hi - lo)]
                               for lo, hi, b in model._b_blocks(m.mu, m.v_sq, model._BLOCK)])
        want = float(rows.sum()) / (m.p * (m.p + 1) / 2)
        assert m.rho == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, np.nan])
    def test_solve_refuses_alpha_as_fit_does(self, alpha):
        mu, v_sq = np.ones((3, 2)), np.ones(3)
        with pytest.raises(InvalidAlpha, match="alpha"):
            compute_rho(mu, v_sq, strategy="solve_mean_coverage", alpha=alpha)
        _, _, y = make_factor_data(40, 10, 2, seed=61)
        with pytest.raises(InvalidAlpha, match="alpha"):
            fit(center_columns(y), k=2, coverage_alpha=alpha)


def rho_at_block(block, *args, **kwargs):
    """compute_rho streaming B in row blocks of ``block`` rows."""
    import fable.model as model

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK", block)
        return compute_rho(*args, **kwargs)


def dense_b(mu, v_sq):
    """B from whole-matrix outer products, as an oracle for the blocks."""
    m_sq = (mu**2).sum(axis=1)
    num = np.outer(m_sq, m_sq) + (mu @ mu.T) ** 2
    den = np.outer(v_sq, m_sq) + np.outer(m_sq, v_sq)
    b = np.sqrt(1.0 + num / den)
    b[np.diag_indices_from(b)] = np.sqrt(1.0 + m_sq / (2.0 * v_sq))
    return b


class TestUpperTriangleStreaming:
    """compute_rho only computes the upper triangle of B; each strategy must
    agree with the whole matrix at any block size, including blocks that do
    not divide p."""

    BLOCKS = (1, 7, 512)

    @pytest.fixture(scope="class")
    def fitted(self):
        _, _, y = make_factor_data(80, 601, 3, seed=94)
        m = fit(center_columns(y), k=3)
        return m, dense_b(m.mu, m.v_sq)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_materialized_matches_oracle(self, fitted, block):
        m, b = fitted
        got = compute_b_matrix(m, block=block)
        np.testing.assert_allclose(got, b, rtol=1e-13)
        np.testing.assert_array_equal(got, got.T)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_mean_b(self, fitted, block):
        m, b = fitted
        want = float(np.mean(b[np.triu_indices(m.p)]))
        got = rho_at_block(block, m.mu, m.v_sq, strategy="mean_b")
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_sup_b(self, fitted, block):
        m, b = fitted
        got = rho_at_block(block, m.mu, m.v_sq, strategy="sup_b")
        assert got == pytest.approx(float(b.max()), rel=1e-13)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_solve_mean_coverage(self, fitted, block):
        m, b = fitted
        rho = rho_at_block(block, m.mu, m.v_sq, strategy="solve_mean_coverage")
        assert mean_coverage(m, b, rho) == pytest.approx(0.95, abs=1e-9)

    def test_degenerate_row_in_a_later_block(self):
        # a loaded row with zero residual variance, inside the second
        # block of 7
        mu = np.ones((12, 1))
        v_sq = np.ones(12)
        v_sq[10] = 0.0
        for block in self.BLOCKS:
            with pytest.raises(DegenerateDenominator):
                rho_at_block(block, mu, v_sq, strategy="mean_b")


def dense_b_undivided(mu, v_sq):
    """B by the undivided rule, with 0/0 -> 1 off the diagonal and
    m_u^2 = 0 -> 1 on it; None where that rule raises (a vanishing
    denominator under a nonzero numerator)."""
    m_sq = (mu**2).sum(axis=1)
    num = np.outer(m_sq, m_sq) + (mu @ mu.T) ** 2
    den = np.outer(v_sq, m_sq) + np.outer(m_sq, v_sq)
    diag = np.arange(len(v_sq))
    if np.any(num[den == 0.0] > 0.0) or np.any((v_sq == 0.0) & (m_sq > 0.0)):
        return None
    with np.errstate(invalid="ignore", divide="ignore"):
        b = np.sqrt(1.0 + num / den)
        b[diag, diag] = np.sqrt(1.0 + m_sq / (2.0 * v_sq))
    b[den == 0.0] = 1.0
    b[diag[m_sq == 0.0], diag[m_sq == 0.0]] = 1.0
    return b


class TestUnloadedRows:
    """Rows without loadings, with or without residual variance, have
    b = 1 against every column; a loaded row without residual variance
    is an error wherever it sits."""

    @staticmethod
    def mixed(seed):
        rng = np.random.default_rng(seed)
        p = 40
        mu = rng.normal(size=(p, 3))
        v_sq = rng.uniform(0.2, 2.0, p)
        unloaded = rng.choice(p, 12, replace=False)
        mu[unloaded] = 0.0
        v_sq[unloaded[:6]] = 0.0  # no loadings and no residual variance
        return mu, v_sq

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 7, 32, 512])
    def test_matches_undivided_rule(self, seed, block):
        mu, v_sq = self.mixed(seed)
        want = dense_b_undivided(mu, v_sq)
        got = compute_b_matrix(TestBMatrix.manual_model(mu, v_sq), block=block)
        np.testing.assert_allclose(got, want, rtol=1e-13)
        unloaded = (mu**2).sum(axis=1) == 0.0
        assert (got[unloaded] == 1.0).all() and (got[:, unloaded] == 1.0).all()
        upper = want[np.triu_indices(len(v_sq))]
        assert rho_at_block(block, mu, v_sq) == pytest.approx(upper.mean(), rel=1e-13)
        assert rho_at_block(block, mu, v_sq, strategy="sup_b") == pytest.approx(
            want.max(), rel=1e-13
        )

    def test_all_rows_unloaded(self):
        v_sq = np.array([0.0, 1.0, 0.0, 2.0])
        for strategy in ("mean_b", "sup_b", "solve_mean_coverage"):
            assert compute_rho(np.zeros((4, 2)), v_sq, strategy=strategy) == 1.0

    @pytest.mark.parametrize("seed", range(12))
    def test_degenerate_exactly_where_the_undivided_rule_raises(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 30))
        mu = rng.normal(size=(p, 2))
        mu[rng.random(p) < 0.4] = 0.0
        v_sq = rng.uniform(0.5, 1.5, p)
        v_sq[rng.random(p) < 0.2] = 0.0
        raises = dense_b_undivided(mu, v_sq) is None
        for strategy in ("mean_b", "sup_b", "solve_mean_coverage"):
            for block in (1, 7, 512):
                if raises:
                    with pytest.raises(DegenerateDenominator):
                        rho_at_block(block, mu, v_sq, strategy=strategy)
                else:
                    rho_at_block(block, mu, v_sq, strategy=strategy)


class TestOverflow:
    """B's kernel squares a = |mu|^2 / v_sq; where that overflows the
    inflation is refused, not returned as inf."""

    @pytest.mark.parametrize("tiny", [1e-160, 1e-300])
    @pytest.mark.parametrize("strategy", RHO_STRATEGIES)
    def test_typed_error(self, tiny, strategy):
        v_sq = np.array([tiny, tiny, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDenominator, match="overflow"):
                compute_rho(np.ones((3, 2)), v_sq, strategy=strategy)

    @pytest.mark.parametrize("strategy", RHO_STRATEGIES)
    def test_finite_short_of_overflow(self, strategy):
        v_sq = np.array([1e-100, 1e-100, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(compute_rho(np.ones((3, 2)), v_sq, strategy=strategy))


class TestModelValidation:
    def test_gamma_n_consistency(self):
        with pytest.raises(InvalidOption, match="gamma_n"):
            TestBMatrix.manual_model([[1.0]], [1.0]).__class__(
                **{
                    **TestBMatrix.manual_model([[1.0]], [1.0]).__dict__,
                    "gamma_n": 5.0,
                }
            )

    def test_nonpositive_delta(self):
        m = TestBMatrix.manual_model([[1.0]], [1.0])
        with pytest.raises(InvalidOption, match="delta_sq"):
            FableModel(**{**m.__dict__, "delta_sq": np.zeros(1)})

    def test_rho_zero_is_legal(self):
        m = TestBMatrix.manual_model([[1.0]], [1.0], rho=0.0)
        assert dataclasses.replace(m, rho=0).rho == 0

    def test_rho_with_a_finite_square_is_legal(self):
        m = TestBMatrix.manual_model([[1.0]], [1.0])
        assert dataclasses.replace(m, rho=1e154).rho == 1e154

    @pytest.mark.parametrize(
        "field, value",
        [("rho", -1.0), ("rho", np.nan), ("rho", np.inf), ("rho", 1e200),
         ("rho", np.float64(1.4e154)), ("tau_sq", -1.0), ("gamma0", 0.0),
         ("delta0_sq", np.nan), ("rho_strategy", "median_b"), ("rho_strategy", "manual"),
         ("v_sq", -np.ones(1))],
    )
    def test_value_refusals_are_invalid_option(self, field, value):
        m = TestBMatrix.manual_model([[1.0]], [1.0])
        with pytest.raises(InvalidOption, match=field):
            dataclasses.replace(m, **{field: value})

    def test_mu_shape(self):
        m = TestBMatrix.manual_model([[1.0]], [1.0])
        with pytest.raises(DimensionMismatch):
            FableModel(**{**m.__dict__, "mu": np.zeros((2, 3))})

    @pytest.mark.parametrize("name", ["mu", "u", "spectrum", "delta_sq", "v_sq", "l_sq"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arrays(self, name, bad):
        m = TestBMatrix.manual_model([[1.0], [2.0]], [1.0, 1.0])
        arr = np.array(getattr(m, name), dtype=float)
        arr.flat[0] = bad
        with pytest.raises(NonFinite, match=name):
            FableModel(**{**m.__dict__, name: arr})


class TestScaleEquivariance:
    """Scale the data by 2^e and delta0_sq by 4^e: mu scales by 2^e, the
    variances by 4^e, and tau_sq and rho stay put. The tridiagonal route
    works at unit scale, so this holds bit for bit across the double
    range; only the spectrum at e = -500 moves, by at most 1e-15 of s_1,
    because there the Gram products fall below 2^-1022 and lose bits."""

    @pytest.mark.parametrize("shape", [(60, 40), (40, 60)], ids=["cols-side", "rows-side"])
    @pytest.mark.parametrize("e", [-500, -400, -260, 0, 200])
    def test_fit_scales_exactly(self, e, shape):
        _, _, y = make_factor_data(*shape, 3, seed=61)
        unit = fit(center_columns(y), k=3)
        scaled = fit(center_columns(np.ldexp(y, e)), k=3, delta0_sq=4.0**e)
        assert scaled.mu.tobytes() == np.ldexp(unit.mu, e).tobytes()
        for name in ("delta_sq", "v_sq", "l_sq"):
            want = np.ldexp(getattr(unit, name), 2 * e)
            assert getattr(scaled, name).tobytes() == want.tobytes(), name
        assert (scaled.k, scaled.tau_sq, scaled.rho) == (unit.k, unit.tau_sq, unit.rho)
        spectrum = np.ldexp(unit.spectrum, e)
        np.testing.assert_allclose(scaled.spectrum, spectrum, rtol=0,
                                   atol=1e-15 * spectrum[0])
        if e > -500:
            assert scaled.spectrum.tobytes() == spectrum.tobytes()
