"""Oracle and property tests for the linear algebra layer."""

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fable.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonFinite,
    NonPositiveDiag,
    RankOutOfRange,
    TooFewRows,
)
from fable.linalg import (
    DataMatrix,
    LinearMap,
    StructuredCovariance,
    center_columns,
    covariance_difference,
    gaussian_loglik,
    spectral_norm,
    truncated_svd,
)


class TestCenterColumns:
    def test_two_by_two(self):
        dm = center_columns(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(dm.values, [[-1.0, -1.0], [1.0, 1.0]])
        np.testing.assert_allclose(dm.column_means, [2.0, 3.0])
        assert dm.centered

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(7)
        dm = center_columns(rng.normal(5.0, 3.0, size=(5, 3)))
        np.testing.assert_allclose(dm.values.sum(axis=0), 0.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        once = center_columns(rng.normal(size=(6, 4)))
        twice = center_columns(once.values)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-14)

    def test_single_row_rejected(self):
        with pytest.raises(TooFewRows):
            center_columns(np.array([[1.0, 2.0]]))

    def test_nan_rejected(self):
        with pytest.raises(NonFinite):
            center_columns(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_constant_column_warns(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.warns(RuntimeWarning, match="constant column"):
            dm = center_columns(x)
        np.testing.assert_allclose(dm.values[:, 1], 0.0)


class TestDataMatrix:
    def test_centered_requires_means(self):
        with pytest.raises(DimensionMismatch):
            DataMatrix(np.zeros((3, 2)), centered=True)

    def test_centered_claim_checked(self):
        with pytest.raises(ValueError, match="claimed centered"):
            DataMatrix(
                np.array([[1.0, 0.0], [1.0, 0.0]]),
                centered=True,
                column_means=np.zeros(2),
            )

    def test_values_read_only(self):
        dm = DataMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dm.values[0, 0] = 1.0


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        out = truncated_svd(np.diag([2.0, 1.0]), k=1)
        np.testing.assert_allclose(out.singvals, [2.0])
        np.testing.assert_allclose(out.u[:, 0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.v[:, 0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.spectrum, [2.0, 1.0])

    def test_rank_one_recovery(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=12)
        u /= np.linalg.norm(u)
        v = rng.normal(size=9)
        v /= np.linalg.norm(v)
        y = 7.0 * np.outer(u, v)
        out = truncated_svd(y, k=1)
        np.testing.assert_allclose(out.singvals[0], 7.0, rtol=1e-10)
        resid = y - out.singvals[0] * np.outer(out.u[:, 0], out.v[:, 0])
        assert np.linalg.norm(resid, 2) <= 1e-8

    def test_eckart_young(self):
        rng = np.random.default_rng(21)
        for n, p, k in [(10, 8, 3), (50, 20, 7), (15, 40, 2)]:
            y = rng.normal(size=(n, p))
            out = truncated_svd(y, k=k)
            resid = y - (out.u * out.singvals) @ out.v.T
            np.testing.assert_allclose(
                np.linalg.norm(resid, 2), out.spectrum[k], rtol=1e-9
            )

    def test_frobenius_identity(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=(12, 18))
        out = truncated_svd(y, k=2)
        np.testing.assert_allclose(
            np.sum(out.spectrum**2), np.sum(y * y), rtol=1e-12
        )

    def test_sign_convention(self):
        rng = np.random.default_rng(23)
        out = truncated_svd(rng.normal(size=(25, 10)), k=6)
        for j in range(out.k):
            i = np.argmax(np.abs(out.v[:, j]))
            assert out.v[i, j] > 0

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(24)
        out = truncated_svd(rng.normal(size=(16, 11)), k=4)
        np.testing.assert_allclose(out.u.T @ out.u, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(out.v.T @ out.v, np.eye(4), atol=1e-10)

    def test_rank_bounds(self):
        y = np.zeros((4, 3))
        with pytest.raises(RankOutOfRange):
            truncated_svd(y, k=0)
        with pytest.raises(RankOutOfRange):
            truncated_svd(y, k=4)

    def test_accepts_data_matrix(self):
        rng = np.random.default_rng(25)
        dm = center_columns(rng.normal(size=(9, 5)))
        out = truncated_svd(dm, k=2)
        assert out.u.shape == (9, 2)


def lapack_oracle(y, k):
    """Top-k triplets from numpy's SVD, each right vector's largest-magnitude
    entry made positive (first index on ties)."""
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    u, v = u[:, :k].copy(), vt[:k].T.copy()
    for j in range(k):
        if v[np.argmax(np.abs(v[:, j])), j] < 0:
            u[:, j], v[:, j] = -u[:, j], -v[:, j]
    return u, s, v


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the LAPACK SVDs truncated_svd falls back to."""
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def with_spectrum(n, p, singvals, seed):
    rng = np.random.default_rng(seed)
    r = len(singvals)
    left, _ = np.linalg.qr(rng.normal(size=(n, r)))
    right, _ = np.linalg.qr(rng.normal(size=(p, r)))
    return (left * singvals) @ right.T


class TestGramSvd:
    @pytest.mark.parametrize(
        "n, p, k",
        [(20, 50, 4), (50, 20, 4), (30, 30, 5), (12, 7, 7), (7, 12, 7), (40, 25, 25)],
        ids=["wide", "tall", "square", "tall-full-rank", "wide-full-rank", "k-is-p"],
    )
    def test_matches_lapack(self, n, p, k):
        y = np.random.default_rng(n * p + k).normal(size=(n, p))
        out = truncated_svd(y, k)
        u, s, v = lapack_oracle(y, k)
        np.testing.assert_allclose(out.spectrum, s, rtol=0, atol=1e-7 * s[0])
        np.testing.assert_allclose(out.singvals, s[:k], rtol=1e-12)
        np.testing.assert_allclose(out.u, u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(out.v, v, rtol=0, atol=1e-10)
        assert out.spectrum.shape == (min(n, p),)

    def test_centered_wide_has_rank_n_minus_one(self, svd_calls):
        rng = np.random.default_rng(31)
        dm = center_columns(rng.normal(size=(15, 40)))
        out = truncated_svd(dm, 14)
        assert svd_calls == []
        u, s, v = lapack_oracle(dm.values, 14)
        np.testing.assert_allclose(out.spectrum, s, rtol=0, atol=1e-7 * s[0])
        np.testing.assert_allclose(out.u, u, rtol=0, atol=1e-10)
        np.testing.assert_allclose(out.v, v, rtol=0, atol=1e-10)
        # the null direction is the ones vector; asking for it falls back
        svd_calls.clear()
        full = truncated_svd(dm, 15)
        assert svd_calls == [(15, 40)]
        np.testing.assert_allclose(np.abs(full.u[:, 14]), 1 / np.sqrt(15), rtol=1e-10)

    def test_rank_picked_from_spectrum(self):
        y = with_spectrum(20, 30, [9.0, 5.0, 0.5], seed=32)
        seen = []

        def pick(spectrum):
            seen.append(spectrum)
            return int(np.sum(spectrum > 1.0))

        out = truncated_svd(y, pick)
        assert out.k == 2
        np.testing.assert_allclose(seen[0], out.spectrum)
        np.testing.assert_allclose(out.singvals, [9.0, 5.0], rtol=1e-12)

    def test_no_fallback_above_threshold(self, svd_calls):
        y = with_spectrum(20, 30, [1.0, 0.5, 2e-3], seed=33)
        out = truncated_svd(y, 3)
        assert svd_calls == []
        u, s, v = lapack_oracle(y, 3)
        np.testing.assert_allclose(out.u, u, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.v, v, rtol=0, atol=1e-9)

    def test_fallback_near_the_floor(self, svd_calls):
        # s_k / s_1 = 1e-4: the Gram matrix still sees it, but the vectors
        # it yields would lose orthogonality at the 1e-8 level
        y = with_spectrum(20, 30, [1.0, 0.5, 1e-4], seed=34)
        out = truncated_svd(y, 3)
        assert svd_calls == [(20, 30)]
        u, s, v = lapack_oracle(y, 3)
        np.testing.assert_array_equal(out.u, u)
        np.testing.assert_array_equal(out.v, v)
        np.testing.assert_array_equal(out.spectrum, s)

    def test_fallback_rank_below_k(self, svd_calls):
        y = with_spectrum(25, 18, [3.0, 2.0], seed=35)
        out = truncated_svd(y, 4)
        assert svd_calls == [(25, 18)]
        u, s, v = lapack_oracle(y, 4)
        np.testing.assert_array_equal(out.u, u)
        np.testing.assert_array_equal(out.singvals, s[:4])
        assert out.singvals[2] < 1e-14 * out.singvals[0]

    def test_fallback_zero_matrix(self, svd_calls):
        out = truncated_svd(np.zeros((6, 4)), 2)
        assert svd_calls == [(6, 4)]
        np.testing.assert_array_equal(out.spectrum, np.zeros(4))
        np.testing.assert_allclose(out.u.T @ out.u, np.eye(2), atol=1e-12)

    def test_fallback_repicks_rank(self, svd_calls):
        y = with_spectrum(10, 16, [1.0, 1e-5], seed=36)
        out = truncated_svd(y, lambda spectrum: 2)
        assert svd_calls == [(10, 16)]
        assert out.k == 2

    def test_rank_checked_before_decomposing(self, svd_calls):
        with pytest.raises(RankOutOfRange):
            truncated_svd(np.ones((4, 3)), 4)
        with pytest.raises(RankOutOfRange):
            truncated_svd(np.ones((4, 3)), lambda spectrum: 0)
        assert svd_calls == []

    def test_deterministic_bytes(self):
        y = np.random.default_rng(37).normal(size=(30, 60))
        a, b = truncated_svd(y, 5), truncated_svd(y, 5)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.spectrum.tobytes() == b.spectrum.tobytes()


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_sign(self):
        assert spectral_norm(np.diag([3.0, -5.0, 2.0])) == pytest.approx(
            5.0, abs=1e-8
        )

    def test_symmetric_oracle(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(10, 10))
        a = a + a.T
        want = np.abs(scipy.linalg.eigvalsh(a)).max()
        assert spectral_norm(a) == pytest.approx(want, rel=1e-8)

    def test_rectangular_oracle(self):
        rng = np.random.default_rng(32)
        a = rng.normal(size=(7, 13))
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(want, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        scale=st.floats(-10.0, 10.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_absolute_homogeneity(self, scale, seed):
        a = np.random.default_rng(seed).normal(size=(6, 5))
        base = spectral_norm(a)
        np.testing.assert_allclose(
            spectral_norm(scale * a), abs(scale) * base, rtol=1e-6, atol=1e-9
        )

    def test_linear_map_path(self):
        rng = np.random.default_rng(33)
        g = rng.normal(size=(15, 3))
        d = rng.uniform(0.5, 2.0, size=15)
        cov = StructuredCovariance(g, d)
        lm = LinearMap(shape=(15, 15), matvec=cov.matvec)
        np.testing.assert_allclose(
            spectral_norm(lm), spectral_norm(cov.dense()), rtol=1e-7
        )

    def test_iteration_cap(self):
        # Lanczos spans a 2 x 2 problem in one step, so the cap needs a
        # problem wider than ARPACK's 20-vector basis to bind
        a = np.diag(1.0 - 1e-9 * np.arange(50))
        with pytest.raises(ConvergenceFailure):
            spectral_norm(a, tol=0.0, max_iter=2)

    def test_near_tied_top_singular_values(self):
        # power iteration stalls when s_1 and s_2 nearly tie; Lanczos
        # does not
        rng = np.random.default_rng(34)
        q1, _ = np.linalg.qr(rng.normal(size=(300, 300)))
        q2, _ = np.linalg.qr(rng.normal(size=(300, 300)))
        s = np.linspace(0.1, 0.9, 300)
        s[0], s[1] = 1.0, 1.0 - 1e-5
        assert spectral_norm((q1 * s) @ q2.T) == pytest.approx(1.0, rel=1e-8)

    def test_one_or_no_column(self):
        assert spectral_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)
        assert spectral_norm(np.zeros((3, 0))) == 0.0

    def test_zero_linear_map(self):
        lm = LinearMap(shape=(5, 5), matvec=lambda x: 0.0 * x)
        assert spectral_norm(lm) == 0.0

    @pytest.mark.parametrize("scale", [1e-300, 1e-162, 1e300])
    def test_extreme_scales(self, scale):
        a = np.random.default_rng(35).normal(size=(6, 5))
        want = scale * np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(scale * a) == pytest.approx(want, rel=1e-8)


class TestStructuredCovariance:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(41)
        cov = StructuredCovariance(
            rng.normal(size=(8, 2)), rng.uniform(0.1, 1.0, size=8)
        )
        x = rng.normal(size=8)
        np.testing.assert_allclose(cov.matvec(x), cov.dense() @ x, rtol=1e-12)

    def test_positive_diag_enforced(self):
        with pytest.raises(NonPositiveDiag):
            StructuredCovariance(np.zeros((3, 1)), np.array([1.0, 0.0, 1.0]))

    def test_difference_map(self):
        rng = np.random.default_rng(42)
        a = StructuredCovariance(rng.normal(size=(9, 2)), rng.uniform(0.5, 1, 9))
        b = StructuredCovariance(rng.normal(size=(9, 3)), rng.uniform(0.5, 1, 9))
        lm = covariance_difference(a, b)
        np.testing.assert_allclose(
            spectral_norm(lm),
            np.linalg.norm(a.dense() - b.dense(), 2),
            rtol=1e-7,
        )


class TestGaussianLoglik:
    def test_univariate_standard_normal_at_zero(self):
        cov = StructuredCovariance(np.zeros((1, 1)), np.ones(1))
        ll = gaussian_loglik(np.zeros((1, 1)), cov)
        assert ll == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_identity_covariance(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        cov = StructuredCovariance(np.zeros((2, 1)), np.ones(2))
        want = -0.5 * (6 * np.log(2 * np.pi) + 3.0)
        assert gaussian_loglik(y, cov) == pytest.approx(want, abs=1e-12)

    def test_dense_oracle(self):
        rng = np.random.default_rng(51)
        g = rng.normal(size=(3, 1))
        d = rng.uniform(0.5, 2.0, size=3)
        cov = StructuredCovariance(g, d)
        y = rng.normal(size=(4, 3))
        want = scipy.stats.multivariate_normal(
            mean=np.zeros(3), cov=cov.dense()
        ).logpdf(y).sum()
        assert gaussian_loglik(y, cov) == pytest.approx(want, rel=1e-10)

    def test_dense_oracle_larger(self):
        rng = np.random.default_rng(52)
        for n, p, k in [(6, 10, 3), (20, 5, 2)]:
            g = rng.normal(size=(p, k))
            d = rng.uniform(0.2, 3.0, size=p)
            cov = StructuredCovariance(g, d)
            y = rng.normal(size=(n, p))
            want = scipy.stats.multivariate_normal(
                mean=np.zeros(p), cov=cov.dense()
            ).logpdf(y).sum()
            assert gaussian_loglik(y, cov) == pytest.approx(want, rel=1e-10)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(53)
        g = rng.normal(size=(6, 3))
        d = rng.uniform(0.5, 2.0, size=6)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        y = rng.normal(size=(5, 6))
        a = gaussian_loglik(y, StructuredCovariance(g, d))
        b = gaussian_loglik(y, StructuredCovariance(g @ q, d))
        assert a == pytest.approx(b, rel=1e-12)

    def test_dimension_mismatch(self):
        cov = StructuredCovariance(np.zeros((3, 1)), np.ones(3))
        with pytest.raises(DimensionMismatch):
            gaussian_loglik(np.zeros((2, 4)), cov)
