"""Oracle and property tests for the linear algebra layer."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import fable._lapack
import fable.linalg
from fable.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidOption,
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


def dense(cov):
    """The p x p matrix of a StructuredCovariance: the oracle that its
    matrix-free paths are checked against."""
    return cov.loadings @ cov.loadings.T + np.diag(cov.diag)


class TestCenterColumns:
    def test_two_by_two(self):
        dm = center_columns(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(dm.values, [[-1.0, -1.0], [1.0, 1.0]])
        np.testing.assert_allclose(dm.column_means, [2.0, 3.0])

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

    @pytest.mark.parametrize("view", ["C", "F", "strided"])
    def test_same_bytes_whatever_the_layout(self, view):
        # the means come from a row-major array, so copies of one matrix
        # in any layout center to the same row-major bytes
        x = np.log2(np.random.default_rng(9).gamma(2.0, 50.0, (60, 600)).round() + 1.0)
        want = np.ascontiguousarray(x).mean(axis=0)
        raw = {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
               "strided": np.repeat(x, 2, axis=1)[:, ::2]}[view]
        dm = center_columns(raw)
        assert dm.column_means.tobytes() == want.tobytes()
        assert dm.values.flags.c_contiguous
        assert dm.values.tobytes() == np.ascontiguousarray(x - want).tobytes()

    def test_constant_column_warns(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.warns(RuntimeWarning, match="constant column"):
            dm = center_columns(x)
        np.testing.assert_allclose(dm.values[:, 1], 0.0)


class TestDataMatrix:
    """A DataMatrix is centered data: the rules of fittable data are its
    constructor's, each refusal a FableError."""

    @pytest.mark.parametrize("values, means, error", [
        (np.zeros((1, 4)), np.arange(4.0), TooFewRows),  # centering needs two rows
        (np.zeros((0, 4)), np.zeros(4), TooFewRows),
        (np.zeros((5, 0)), np.zeros(0), DimensionMismatch),
        (np.zeros(4), np.zeros(4), DimensionMismatch),
        (np.array([[1.0, np.inf], [-1.0, 0.0]]), np.zeros(2), NonFinite),
        (np.zeros((3, 2)), np.zeros(3), DimensionMismatch),
        (np.zeros((3, 2)), np.array([0.0, np.nan]), NonFinite),
        (np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2), InvalidOption),
    ], ids=["one-row", "no-rows", "no-columns", "1-d", "infinite", "means-shape",
            "nan-mean", "not-centered"])
    def test_refusals_are_typed(self, values, means, error):
        for build in (DataMatrix, DataMatrix._adopt):
            with pytest.raises(error):
                build(values.copy(), means)

    def test_not_centered_is_still_a_value_error(self):
        with pytest.raises(ValueError, match="not centered"):
            DataMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2))

    def test_centering_is_judged_at_the_values_scale(self):
        # column means within 1e-8 of max(1, max |x|) count as zero
        big = np.array([[1e12, 1.0], [-1e12 + 1e3, -1.0]])
        assert DataMatrix(big, np.zeros(2)).n == 2
        with pytest.raises(InvalidOption):
            DataMatrix(np.array([[1e-7, 1.0], [1e-7, -1.0]]), np.zeros(2))

    def test_values_and_means_read_only(self):
        dm = DataMatrix(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            dm.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            dm.column_means[0] = 1.0


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
        assert out.route == "tridiagonal"
        u, s, v = lapack_oracle(y, 3)
        np.testing.assert_allclose(out.u, u, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.v, v, rtol=0, atol=1e-9)

    def test_fallback_near_the_floor(self, svd_calls):
        # s_k / s_1 = 1e-4: the Gram matrix still sees it, but the vectors
        # it yields would lose orthogonality at the 1e-8 level
        y = with_spectrum(20, 30, [1.0, 0.5, 1e-4], seed=34)
        out = truncated_svd(y, 3)
        assert svd_calls == [(20, 30)]
        assert out.route == "svd"
        u, s, v = lapack_oracle(y, 3)
        np.testing.assert_array_equal(out.u, u)
        np.testing.assert_array_equal(out.v, v)
        np.testing.assert_array_equal(out.spectrum, s)

    def test_fallback_rank_below_k(self, svd_calls):
        y = with_spectrum(25, 18, [3.0, 2.0], seed=35)
        out = truncated_svd(y, 4)
        assert svd_calls == [(25, 18)]
        assert out.route == "svd"
        u, s, v = lapack_oracle(y, 4)
        np.testing.assert_array_equal(out.u, u)
        np.testing.assert_array_equal(out.singvals, s[:4])
        assert out.singvals[2] < 1e-14 * out.singvals[0]

    def test_fallback_zero_matrix(self, svd_calls):
        out = truncated_svd(np.zeros((6, 4)), 2)
        assert svd_calls == [(6, 4)]
        assert out.route == "svd"
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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix_refused_before_lapack(self, capfd, shape):
        # LAPACK's dsytrd prints its complaint about an empty Gram matrix
        # to stdout, where the CLI writes its reports
        with pytest.raises(RankOutOfRange):
            truncated_svd(np.zeros(shape), lambda spectrum: 1)
        with pytest.raises(RankOutOfRange):
            truncated_svd(np.zeros(shape), 1)
        assert capfd.readouterr().out == ""

    def test_deterministic_bytes(self):
        y = np.random.default_rng(37).normal(size=(30, 60))
        a, b = truncated_svd(y, 5), truncated_svd(y, 5)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.spectrum.tobytes() == b.spectrum.tobytes()


def eigh_path(y, k):
    """truncated_svd as it was before the tridiagonal route: numpy's eigh
    of the smaller Gram matrix, all of whose vectors it forms."""
    n, p = y.shape
    evals, evecs = np.linalg.eigh(y @ y.T if n <= p else y.T @ y)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    spectrum = np.sqrt(np.clip(evals, 0.0, None))
    top, s = evecs[:, :k], spectrum[:k]
    u, v = (top, (y.T @ top) / s) if n <= p else ((y @ top) / s, top)
    u, v = fable.linalg._fix_signs(u, v)
    return u, s, v, spectrum


@pytest.fixture
def lapack_reset():
    """Forget the LAPACK routines found so far, before and after a test
    that changes how they are found."""
    fable._lapack._routines.cache_clear()
    yield fable._lapack
    fable._lapack._routines.cache_clear()


def injected_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("injected failure")


@pytest.fixture
def decompositions_fail(lapack_reset, monkeypatch):
    """Every decomposition truncated_svd can take fails: numpy ships no
    LAPACK library of its own, and numpy's eigh and svd raise."""
    monkeypatch.setattr(lapack_reset, "_LIBRARY", "libnothing_*.so")
    monkeypatch.setattr(np.linalg, "eigh", injected_failure)
    monkeypatch.setattr(np.linalg, "svd", injected_failure)


def assert_is_lapack_svd(out, y, k):
    """``out`` is route "svd": np.linalg.svd of y plus _fix_signs, bit for bit."""
    assert out.route == "svd"
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    u, v = fable.linalg._fix_signs(u[:, :k], vt[:k].T)
    assert out.u.tobytes() == np.ascontiguousarray(u).tobytes()
    assert out.v.tobytes() == np.ascontiguousarray(v).tobytes()
    assert out.spectrum.tobytes() == s.tobytes()


class TestSvdRoute:
    """TruncatedSvd.route names the decomposition; the eigh route is the
    one truncated_svd took before the tridiagonal route, byte for byte."""

    def y(self):
        return with_spectrum(30, 45, [6.0, 4.0, 3.0, 2.5, 1.0], seed=41) + 1e-3 * (
            np.random.default_rng(42).normal(size=(30, 45))
        )

    def test_tridiagonal_by_default(self):
        assert truncated_svd(self.y(), 3).route == "tridiagonal"

    @pytest.mark.parametrize("attr, value", [("_LIBRARY", "libnothing_*.so"),
                                             ("_SYMBOL", "scipy_{}_nothing_")],
                             ids=["missing-library", "missing-symbol"])
    def test_missing_lapack_takes_eigh(self, lapack_reset, monkeypatch, attr, value):
        monkeypatch.setattr(lapack_reset, attr, value)
        y = self.y()
        out = truncated_svd(y, 3)
        assert out.route == "eigh"
        u, s, v, spectrum = eigh_path(y, 3)
        assert out.u.tobytes() == np.ascontiguousarray(u).tobytes()
        assert out.v.tobytes() == np.ascontiguousarray(v).tobytes()
        assert out.singvals.tobytes() == s.tobytes()
        assert out.spectrum.tobytes() == np.ascontiguousarray(spectrum).tobytes()

    @staticmethod
    def failing(lapack, monkeypatch, name, arg, value):
        """Make LAPACK routine ``name`` report ``value`` through its
        by-reference argument number ``arg`` (info or a count)."""
        routines = dict(lapack._routines())
        real = routines[name]

        def fails(*args):
            real(*args)
            args[arg]._obj.value = value

        routines[name] = fails
        monkeypatch.setattr(lapack, "_routines", lambda: routines)

    @pytest.mark.parametrize("name, arg, value", [("dstein", 12, 1), ("dstebz", 10, 4),
                                                  ("dsterf", 3, 1), ("dormtr", 12, -7),
                                                  ("dsytrd", 9, -2)],
                             ids=["unconverged-vector", "count-not-rank",
                                  "eigenvalues-fail", "back-transform-fails",
                                  "reduction-fails"])
    def test_lapack_failure_takes_svd(self, lapack_reset, monkeypatch, svd_calls,
                                      name, arg, value):
        self.failing(lapack_reset, monkeypatch, name, arg, value)
        y = self.y()
        out = truncated_svd(y, 3)
        assert svd_calls == [y.shape]
        assert_is_lapack_svd(out, y, 3)

    def test_eigh_failure_takes_svd(self, lapack_reset, monkeypatch, svd_calls):
        monkeypatch.setattr(lapack_reset, "_LIBRARY", "libnothing_*.so")
        monkeypatch.setattr(np.linalg, "eigh", injected_failure)
        y = self.y()
        out = truncated_svd(y, 3)
        assert svd_calls == [y.shape]
        assert_is_lapack_svd(out, y, 3)

    @pytest.mark.parametrize("zero", [True, False], ids=["zero-matrix", "after-eigh-fails"])
    def test_svd_failure_is_typed(self, decompositions_fail, zero):
        y = np.zeros((6, 4)) if zero else self.y()
        with pytest.raises(ConvergenceFailure, match=f"SVD of the {y.shape[0]} x {y.shape[1]}"):
            truncated_svd(y, 2)

    @pytest.mark.parametrize("hidden", [False, True], ids=["tridiagonal", "eigh"])
    def test_rank_function_error_is_not_a_route(self, lapack_reset, monkeypatch, svd_calls,
                                                hidden):
        if hidden:
            monkeypatch.setattr(lapack_reset, "_LIBRARY", "libnothing_*.so")

        def pick(spectrum):
            raise ConvergenceFailure("the rank function's own")

        with pytest.raises(ConvergenceFailure, match="rank function's own"):
            truncated_svd(self.y(), pick)
        assert svd_calls == []

    @pytest.mark.parametrize("shape", [(30, 45), (45, 30)], ids=["rows-side", "cols-side"])
    def test_eigh_route_decomposes_one_unit_scale_gram(self, lapack_reset, monkeypatch,
                                                       shape):
        monkeypatch.setattr(lapack_reset, "_LIBRARY", "libnothing_*.so")
        seen = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            seen.append(float(a.diagonal().max()))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        y = self.y() if shape == (30, 45) else self.y().T
        assert truncated_svd(np.ldexp(y, 300), 3).route == "eigh"
        assert len(seen) == 1 and 0.5 <= seen[0] < 1.0

    def test_rank_deficient_and_zero_take_svd(self):
        assert truncated_svd(with_spectrum(25, 18, [3.0, 2.0], seed=35), 4).route == "svd"
        assert truncated_svd(np.zeros((6, 4)), 2).route == "svd"

    def test_route_is_not_a_setting(self):
        out = truncated_svd(self.y(), 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.route = "eigh"
        with pytest.raises(ValueError, match="route"):
            dataclasses.replace(out, route="qr")

    def test_import_loads_no_lapack(self):
        # the library is opened on the first decomposition, not on import
        src = str(Path(fable.__file__).resolve().parents[1])
        code = "import sys, fable, fable.cli; print('fable._lapack' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "False"


def assert_matches_eigh(y, k):
    """The tridiagonal route against numpy's eigh of the same Gram matrix:
    squared spectrum within 1e-13 s_1^2, orthonormal top vectors, each
    within 1e-12 of eigh's in 1 - |cos| where its eigenvalue stands
    apart, and the same top-k span where some do not."""
    out = truncated_svd(y, k)
    assert out.route == "tridiagonal"
    n, p = y.shape
    rows_side = n <= p
    evals, evecs = np.linalg.eigh(y @ y.T if rows_side else y.T @ y)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    scale = evals[0]
    np.testing.assert_allclose(out.spectrum**2, np.clip(evals, 0, None), rtol=0,
                               atol=1e-13 * scale)
    mine = out.u if rows_side else out.v
    np.testing.assert_allclose(mine.T @ mine, np.eye(k), rtol=0, atol=1e-13)
    gaps = np.append(-np.diff(evals[: k + 1]), np.inf) / scale
    for j in range(k):
        if min(gaps[j], gaps[j - 1] if j else np.inf) > 1e-6:
            assert 1.0 - abs(mine[:, j] @ evecs[:, j]) < 1e-12, j
    span = mine @ mine.T - evecs[:, :k] @ evecs[:, :k].T
    assert np.abs(span).max() < 1e-10
    return out


class TestTridiagonalOracle:
    def test_near_tied_top_eigenvalues(self):
        y = with_spectrum(40, 70, [5.0, 5.0 * (1 + 1e-11), 5.0 * (1 - 1e-11), 2.0, 1.0],
                          seed=51) + 1e-4 * np.random.default_rng(52).normal(size=(40, 70))
        out = assert_matches_eigh(y, 3)
        resid = y - (out.u * out.singvals) @ out.v.T
        np.testing.assert_allclose(np.linalg.norm(resid, 2), out.spectrum[3], rtol=1e-9)

    def test_block_diagonal_gram_splits(self, lapack_reset, monkeypatch):
        # rows 0-19 load on columns 0-29 only and rows 20-49 on 30-79, so
        # the Gram matrix is block diagonal and its tridiagonal splits;
        # the top vectors alternate between the blocks
        y = np.zeros((50, 80))
        y[:20, :30] = with_spectrum(20, 30, [9.0, 5.0, 2.0, 1.0], seed=53)
        y[20:, 30:] = with_spectrum(30, 50, [7.0, 3.0, 1.5, 0.5], seed=54)
        routines, off_diagonals = dict(lapack_reset._routines()), []
        real = routines["dsterf"]

        def dsterf(n, d, e, info):
            off_diagonals.append(e.copy())
            real(n, d, e, info)

        routines["dsterf"] = dsterf
        monkeypatch.setattr(lapack_reset, "_routines", lambda: routines)
        out = assert_matches_eigh(y, 5)
        assert len(off_diagonals) == 1 and np.any(off_diagonals[0] == 0.0)
        np.testing.assert_allclose(out.singvals, [9.0, 7.0, 5.0, 3.0, 2.0], rtol=1e-12)
        assert np.all(out.u[20:, [0, 2, 4]] == 0.0) and np.all(out.u[:20, [1, 3]] == 0.0)

    @pytest.mark.parametrize("n, p", [(30, 40), (40, 30)], ids=["wide", "tall"])
    def test_rank_one_below_full(self, n, p):
        y = np.random.default_rng(55).normal(size=(n, p))
        assert_matches_eigh(y, min(n, p) - 1)

    def test_tall_data_takes_the_columns_gram(self):
        y = np.random.default_rng(56).normal(size=(90, 25)) @ np.diag(np.linspace(3, 1, 25))
        assert_matches_eigh(y, 4)

    @pytest.mark.parametrize("n, p", [(2, 5), (15, 60), (60, 15)])
    def test_rank_one(self, n, p):
        assert_matches_eigh(np.random.default_rng(57 + n).normal(size=(n, p)), 1)

    def test_study_cell(self):
        y = with_spectrum(300, 600, np.linspace(20, 10, 10), seed=58) + (
            np.random.default_rng(59).normal(size=(300, 600)))
        assert_matches_eigh(center_columns(y).values, 10)


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
            spectral_norm(lm), spectral_norm(dense(cov)), rtol=1e-7
        )

    def test_iteration_cap(self, monkeypatch):
        # Lanczos spans a 2 x 2 problem in one step, so the cap needs a
        # problem wider than ARPACK's 20-vector basis to bind
        a = np.diag(1.0 - 1e-9 * np.arange(50))
        monkeypatch.setattr(fable.linalg, "_LANCZOS_MAX_ITER", 2)
        with pytest.raises(ConvergenceFailure):
            spectral_norm(a, tol=0.0)

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
        np.testing.assert_allclose(cov.matvec(x), dense(cov) @ x, rtol=1e-12)

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
            np.linalg.norm(dense(a) - dense(b), 2),
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
            mean=np.zeros(3), cov=dense(cov)
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
                mean=np.zeros(p), cov=dense(cov)
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

    @pytest.mark.parametrize("n, p, k", [(1, 4, 1), (20, 60, 3), (100, 400, 10), (8, 30, 12)])
    def test_matches_scipy_triangular_solve(self, n, p, k):
        # the capacitance solve as scipy's solve_triangular did it
        rng = np.random.default_rng(54 + k)
        cov = StructuredCovariance(rng.normal(0.0, 0.6, (p, k)), rng.uniform(0.2, 3.0, p))
        y = rng.normal(size=(n, p)) * 2.0
        gd = cov.loadings / cov.diag[:, None]
        chol = np.linalg.cholesky(np.eye(k) + cov.loadings.T @ gd)
        w = scipy.linalg.solve_triangular(chol, (y @ gd).T, lower=True)
        quad = ((y * y) / cov.diag).sum() - (w * w).sum()
        logdet = np.log(cov.diag).sum() + 2.0 * np.log(np.diag(chol)).sum()
        want = -0.5 * (n * p * np.log(2.0 * np.pi) + n * logdet + quad)
        assert gaussian_loglik(y, cov) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n, p", [(5, 3), (40, 200), (1, 7), (3, 1)])
    def test_zero_width_loadings_are_the_diagonal_gaussian(self, n, p):
        rng = np.random.default_rng(55 + n * p)
        d = rng.uniform(0.5, 2.0, p)
        y = rng.normal(size=(n, p))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gaussian_loglik(y, StructuredCovariance(np.zeros((p, 0)), d))
        want = scipy.stats.norm(scale=np.sqrt(d)).logpdf(y).sum()
        assert got == pytest.approx(want, rel=1e-12)
        # the bits of the diagonal formula that once ran for k = 0
        quad = ((y * y) / d).sum(axis=1)
        logdet = float(np.log(d).sum())
        diagonal = float(-0.5 * (n * p * fable.linalg._LOG_2PI + n * logdet + quad.sum()))
        assert got.hex() == diagonal.hex()

    def test_dimension_mismatch(self):
        cov = StructuredCovariance(np.zeros((3, 1)), np.ones(3))
        with pytest.raises(DimensionMismatch):
            gaussian_loglik(np.zeros((2, 4)), cov)
