"""Tests for intervals, diagnostics, and out-of-sample scoring."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtri

from fable.errors import (
    DimensionMismatch,
    EmptyTarget,
    IndexOutOfRange,
    InvalidAlpha,
    NonFinite,
    OverlappingIndexSets,
    TooFewRows,
    TooFewSamples,
)
from fable.inference import (
    AsymptoticVariances,
    asymptotic_variances,
    credible_intervals,
    fitted_loglik,
    oos_loglik,
    predictive_coverage,
    variance_explained,
)
from fable.linalg import DataMatrix, center_columns, gaussian_loglik
from fable.model import FableModel, fit
from fable.sampler import RngSpec, posterior_mean
from test_linalg import dense
from test_model import compute_b_matrix, make_factor_data
from test_sampler import (
    ENTRY_SETS,
    entry_forms,
    entry_input,
    entry_sets,
    reference_check_pairs,
)


def manual_model(mu, v_sq, delta_sq=None, n=10, rho=1.0, tau_sq=1.0):
    mu = np.asarray(mu, dtype=float)
    p, k = mu.shape
    return FableModel(
        n=n,
        p=p,
        k=k,
        tau_sq=tau_sq,
        gamma0=1.0,
        delta0_sq=1.0,
        gamma_n=float(n + 1),
        rho=rho,
        rho_strategy="mean_b",
        mu=mu,
        delta_sq=np.ones(p) if delta_sq is None else np.asarray(delta_sq, float),
        v_sq=np.asarray(v_sq, dtype=float),
        l_sq=np.zeros(p),
        u=np.zeros((n, k)),
        spectrum=np.ones(1),
    )


@pytest.fixture(scope="module")
def fitted():
    _, _, y = make_factor_data(300, 40, 3, seed=401)
    return fit(center_columns(y), k=3), center_columns(y)


class TestAsymptoticVariances:
    def test_hand_example(self):
        m = manual_model([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        av = asymptotic_variances(m, [(0, 1), (0, 0)])
        assert av.l0_sq[0] == pytest.approx(2.0)
        assert av.s0_sq[0] == pytest.approx(3.0)
        # Diagonal: 2 V^4 + 4 rho^2 V^2 m^2 and 2 (m^2 + V^2)^2.
        assert av.l0_sq[1] == pytest.approx(6.0)
        assert av.s0_sq[1] == pytest.approx(8.0)

    def test_zero_loadings_diagonal(self):
        m = manual_model(np.zeros((3, 2)), np.full(3, 2.0))
        av = asymptotic_variances(m, [(1, 1), (0, 2)])
        assert av.l0_sq[0] == pytest.approx(8.0)
        assert av.s0_sq[0] == pytest.approx(8.0)
        assert av.l0_sq[1] == 0.0
        assert av.s0_sq[1] == 0.0

    def test_b_equates_the_two_variances(self, fitted):
        # rho = b_uv is, by construction, the inflation at which the
        # surrogate-draw variance matches the sampling variance.
        m, _ = fitted
        b = compute_b_matrix(m)
        for u, v in [(0, 1), (3, 17), (8, 8), (25, 25), (11, 39)]:
            av = asymptotic_variances(replace(m, rho=float(b[u, v])), [(u, v)])
            assert av.l0_sq[0] == pytest.approx(av.s0_sq[0], rel=1e-10)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(402)
        mu = rng.normal(size=(5, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        v_sq = rng.uniform(0.5, 2.0, 5)
        a = asymptotic_variances(manual_model(mu, v_sq), [(0, 1), (2, 2)])
        b = asymptotic_variances(manual_model(mu @ q, v_sq), [(0, 1), (2, 2)])
        for e in range(2):
            assert a.l0_sq[e] == pytest.approx(b.l0_sq[e], rel=1e-10)
            assert a.s0_sq[e] == pytest.approx(b.s0_sq[e], rel=1e-10)


def reference_asymptotic_variances(model, indices, *, rho=None):
    """asymptotic_variances as it was before entry sets became two index
    arrays: pairs checked one at a time, dicts keyed by pair."""
    pairs = reference_check_pairs(indices, model.p)
    rho = model.rho if rho is None else float(rho)
    u_idx = np.fromiter((pr[0] for pr in pairs), dtype=np.intp, count=len(pairs))
    v_idx = np.fromiter((pr[1] for pr in pairs), dtype=np.intp, count=len(pairs))
    m_sq = np.einsum("jk,jk->j", model.mu, model.mu)
    dots = np.einsum("ek,ek->e", model.mu[u_idx], model.mu[v_idx])
    vu, vv = model.v_sq[u_idx], model.v_sq[v_idx]
    mu2, mv2 = m_sq[u_idx], m_sq[v_idx]
    diag = u_idx == v_idx
    cross = vv * mu2 + vu * mv2
    l0 = np.where(diag, 2.0 * vu * vu + 4.0 * rho**2 * vu * mu2, rho**2 * cross)
    s0 = np.where(diag, 2.0 * (mu2 + vu) ** 2, cross + mu2 * mv2 + dots * dots)
    return (
        {pair: float(x) for pair, x in zip(pairs, l0)},
        {pair: float(x) for pair, x in zip(pairs, s0)},
    )


class TestAsymptoticVariancesOracle:
    @entry_sets
    @entry_forms
    @pytest.mark.parametrize("rho", [None, 0.0], ids=["model-rho", "rho0"])
    def test_matches_per_pair(self, fitted, name, form, rho):
        m, _ = fitted
        l0_want, s0_want = reference_asymptotic_variances(m, ENTRY_SETS[name], rho=rho)
        got = asymptotic_variances(m if rho is None else replace(m, rho=rho),
                                   entry_input(name, form))
        assert got.l0_sq.tolist() == [l0_want[pair] for pair in ENTRY_SETS[name]]
        assert got.s0_sq.tolist() == [s0_want[pair] for pair in ENTRY_SETS[name]]


class TestCredibleIntervals:
    def test_z_value(self, fitted):
        m, _ = fitted
        grid = credible_intervals(m, [(0, 1)], alpha=0.05)
        z = float((grid.upper[0] - grid.center[0]) / grid.asym_sd[0])
        assert z == pytest.approx(1.959964, abs=1e-6)

    def test_symmetry_and_centers(self, fitted):
        m, _ = fitted
        pairs = [(0, 0), (0, 1), (5, 9)]
        grid = credible_intervals(m, pairs, alpha=0.1)
        np.testing.assert_allclose(
            grid.upper - grid.center, grid.center - grid.lower, rtol=1e-12
        )
        assert grid.center[0] == pytest.approx(
            float(m.mu[0] @ m.mu[0]) + m.delta_sq[0], rel=1e-12
        )
        assert grid.center[1] == pytest.approx(float(m.mu[0] @ m.mu[1]), rel=1e-12)

    def test_width_scales_inverse_sqrt_n(self):
        widths = {}
        for n in (1000, 4000):
            _, _, y = make_factor_data(n, 60, 3, seed=403)
            m = fit(center_columns(y), k=3)
            pairs = [(i, j) for i in range(10) for j in range(i, 10)]
            widths[n] = np.median(credible_intervals(m, pairs).width)
        assert widths[1000] / widths[4000] == pytest.approx(2.0, rel=0.2)

    def test_sample_quantile_close_to_asymptotic(self):
        _, _, y = make_factor_data(1000, 100, 5, seed=201)
        m = fit(center_columns(y), k=5)
        perm = np.random.default_rng(5).permutation(100)[:14]
        pairs = [
            (int(perm[i]), int(perm[j])) for i in range(14) for j in range(i, 14)
        ]
        asym = credible_intervals(m, pairs, alpha=0.05)
        samp = credible_intervals(
            m,
            pairs,
            alpha=0.05,
            method="sample_quantile",
            n_samples=1000,
            rng=RngSpec(77),
        )
        assert np.median(samp.width / asym.width) == pytest.approx(1.0, abs=0.15)

    def test_invalid_alpha(self, fitted):
        m, _ = fitted
        for alpha in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(InvalidAlpha):
                credible_intervals(m, [(0, 0)], alpha=alpha)

    def test_quantile_needs_enough_draws(self, fitted):
        m, _ = fitted
        with pytest.raises(TooFewSamples):
            credible_intervals(
                m, [(0, 0)], method="sample_quantile", n_samples=50, rng=RngSpec(1)
            )

    def test_bad_pair(self, fitted):
        m, _ = fitted
        with pytest.raises(IndexOutOfRange):
            credible_intervals(m, [(0, m.p)])


class TestDiagnostics:
    def test_fitted_loglik_is_factored_loglik(self, fitted):
        m, dm = fitted
        want = gaussian_loglik(dm, posterior_mean(m))
        assert fitted_loglik(m, dm) == want

    def test_fitted_loglik_oracle(self):
        _, _, y = make_factor_data(30, 6, 2, seed=404)
        dm = center_columns(y)
        m = fit(dm, k=2)
        cov = dense(posterior_mean(m))
        want = scipy.stats.multivariate_normal(
            mean=np.zeros(6), cov=cov
        ).logpdf(dm.values).sum()
        assert fitted_loglik(m, dm) == pytest.approx(want, rel=1e-10)

    def test_correct_rank_fits_better(self):
        _, _, y = make_factor_data(400, 50, 3, seed=405, slab_sd=1.0)
        dm = center_columns(y)
        good = fitted_loglik(fit(dm, k=3), dm)
        bad = fitted_loglik(fit(dm, k=1), dm)
        assert good > bad

    def test_variance_explained_limits(self):
        zero = manual_model(np.zeros((3, 1)), np.ones(3))
        np.testing.assert_allclose(variance_explained(zero), 0.0)
        half = manual_model([[1.0]], [1.0], delta_sq=[1.0])
        assert variance_explained(half)[0] == pytest.approx(0.5)

    def test_variance_explained_tracks_truth(self):
        lam, sig, y = make_factor_data(500, 300, 5, seed=406)
        m = fit(center_columns(y), k=5)
        r_true = (lam**2).sum(1) / ((lam**2).sum(1) + sig)
        assert abs(
            np.median(variance_explained(m)) - np.median(r_true)
        ) < 0.1

    def test_predictive_coverage_standard_normal(self):
        rng = np.random.default_rng(407)
        data = center_columns(rng.normal(size=(200, 500)))
        ident = manual_model(np.zeros((500, 1)), np.ones(500), delta_sq=np.ones(500))
        cov = predictive_coverage(ident, data)
        assert cov == pytest.approx(0.95, abs=0.01)

    def test_predictive_coverage_level_moves_with_alpha(self):
        rng = np.random.default_rng(408)
        data = center_columns(rng.normal(size=(100, 200)))
        ident = manual_model(np.zeros((200, 1)), np.ones(200), delta_sq=np.ones(200))
        assert predictive_coverage(ident, data, alpha=0.5) == pytest.approx(
            0.5, abs=0.02
        )

    def test_predictive_coverage_fitted(self, fitted):
        m, dm = fitted
        assert predictive_coverage(m, dm) > 0.90

    def test_predictive_coverage_alpha_domain(self, fitted):
        m, dm = fitted
        with pytest.raises(InvalidAlpha):
            predictive_coverage(m, dm, alpha=0.0)


def shared_factor_split(seed, n_train=150, n_test=40, p_target=60, p_extra=200, k=6):
    rng = np.random.default_rng(seed)
    p_all = p_target + p_extra
    lam = np.where(rng.random((p_all, k)) < 0.5, 0.0, rng.normal(0, 0.5, (p_all, k)))
    sig = rng.uniform(0.5, 5.0, p_all)
    y = rng.normal(size=(n_train + n_test, k)) @ lam.T
    y += rng.normal(size=(n_train + n_test, p_all)) * np.sqrt(sig)
    train = center_columns(y[:n_train])
    test = y[n_train:, :p_target]
    return train, test, list(range(p_target)), list(range(p_target, p_all))


class TestOosLoglik:
    def test_no_extras_reduces_to_target_fit(self):
        train, test, targets, _ = shared_factor_split(901)
        got = oos_loglik(train, test, targets, k=3)
        sub = DataMatrix(train.values[:, targets], train.column_means[targets])
        m = fit(sub, k=3)
        from fable.linalg import StructuredCovariance

        want = gaussian_loglik(
            test - train.column_means[targets],
            StructuredCovariance(m.mu, m.delta_sq),
        )
        assert got == want

    def test_extra_order_irrelevant(self):
        train, test, targets, extras = shared_factor_split(902)
        a = oos_loglik(train, test, targets, extras, k=4)
        b = oos_loglik(train, test, targets, list(reversed(extras)), k=4)
        assert a == pytest.approx(b, rel=1e-8)

    def test_shared_factors_help(self):
        wins = 0
        for seed in range(10):
            train, test, targets, extras = shared_factor_split(800 + seed)
            base = oos_loglik(train, test, targets)
            extra = oos_loglik(train, test, targets, extras)
            wins += extra > base
        assert wins >= 8

    def test_overlap_rejected(self):
        train, test, targets, extras = shared_factor_split(903)
        with pytest.raises(OverlappingIndexSets):
            oos_loglik(train, test, targets, targets[:3])

    def test_empty_target_rejected(self):
        train, test, _, extras = shared_factor_split(904)
        with pytest.raises(EmptyTarget):
            oos_loglik(train, test, [], extras)

    def test_test_shape_checked(self):
        train, test, targets, extras = shared_factor_split(905)
        with pytest.raises(DimensionMismatch):
            oos_loglik(train, test, targets[:10], extras)

    def test_out_of_range_column(self):
        train, test, targets, _ = shared_factor_split(906)
        with pytest.raises(IndexOutOfRange):
            oos_loglik(train, test, targets, [train.p])

    def test_test_rows_checked(self):
        train, test, targets, _ = shared_factor_split(907)
        with pytest.raises(TooFewRows):
            oos_loglik(train, test[:0], targets, k=2)
        bad = test.copy()
        bad[3, 5] = np.nan
        with pytest.raises(NonFinite):
            oos_loglik(train, bad, targets, k=2)
        with pytest.raises(DimensionMismatch):
            oos_loglik(train, test[0], targets, k=2)

    def test_one_row_is_a_test_set(self):
        # held-out rows are independent draws: one-row scores add up
        train, test, targets, _ = shared_factor_split(908)
        one = [oos_loglik(train, test[i : i + 1], targets, k=2) for i in range(2)]
        assert sum(one) == pytest.approx(oos_loglik(train, test[:2], targets, k=2), rel=1e-12)
