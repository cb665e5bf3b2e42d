"""The copy policy for n x p data, and the peak memory it buys.

Public constructors (``DataMatrix(...)``, ``center_columns``,
``preprocess``) copy what the caller passes and never write to it; an
array that fable has just made is transformed and centered in place and
adopted without a further copy. The peak bounds are multiples of the
n x p float64 array's size, measured with tracemalloc, which sees every
numpy data buffer: centering makes one array; generating data one (the
loading product, with the noise added through a small reused buffer);
``preprocess`` one, with or without the log2 transform (the copy it
transforms and centers in), plus the kept columns when the variance
filter drops some (its variances are taken a block of columns at a
time); the CLI none beyond the array its binary reader fills.
``load_model`` refuses a file of another kind after its magic, and holds
an artifact's arrays once before the model's frozen copies. The
sample-quantile reservoir is partitioned in place, and a dense spectral
norm copies nothing of its operand. An entry set is two index arrays,
never a Python tuple per entry.
"""

import argparse
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fable.cli import _index_pairs, _load_and_preprocess
from fable.errors import InvalidOption, MagicMismatch, NonFinite, TooFewRows
from fable.inference import credible_intervals
from fable.io import _preprocess, load_matrix, load_model, preprocess, save_matrix, save_model
from fable.linalg import DataMatrix, center_columns, spectral_norm
from fable.model import fit
from fable.sampler import _CHUNK_BYTES, RngSpec, _upper_pairs, sample_entry_stats
from fable.simharness import SimulationConfig, generate_data, generate_truth

N, P = 200, 2000


def peak_ratio(fn, *args, size=N * P * 8, **kwargs):
    """Traced peak of ``fn(*args, **kwargs)`` over ``size`` bytes, by
    default those of an N x P float64 array; what the call returns
    counts towards it."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / size


@pytest.fixture
def counts():
    return np.rint(np.random.default_rng(0).gamma(2.0, 20.0, (N, P)))


class TestPeakMemory:
    # measured: 1.03, 2.03, 2.03 and 1.00; before arrays were adopted and
    # the checks went to reductions, the same calls peaked at 3, 5, 4 and 3
    def test_center_columns_makes_one_array(self, counts):
        assert peak_ratio(center_columns, counts) < 1.25

    def test_preprocess_keeping_every_column_makes_one_array(self, counts):
        # measured 1.03; 2.03 when every kept column was gathered
        assert peak_ratio(preprocess, counts) < 1.25

    def test_generate_data_holds_one_array(self):
        # measured 1.12, the data and the 256 KB noise buffer; 2.03 when
        # the noise draws and the loading product were two n x p arrays
        truth = generate_truth(SimulationConfig(n=N, p=P), np.random.default_rng(1))
        assert peak_ratio(generate_data, truth, N, np.random.default_rng(2)) < 1.25

    def test_log2_preprocess_holds_one_array(self, counts):
        # measured 1.03; 2.03 when the transformed values were centered
        # into a second array
        assert peak_ratio(preprocess, counts, transform="log2_plus_one") < 1.25

    def test_filtered_preprocess_adds_only_the_kept_columns(self, counts):
        # measured 1.53, the transformed array and its kept half; 2.03 when
        # the variances came from an n x p temporary
        ratio = peak_ratio(preprocess, counts, transform="log2_plus_one",
                           filter_top_variance_fraction=0.5)
        assert ratio < 1.75

    def test_cli_preprocesses_the_array_it_loaded(self, counts, tmp_path):
        # measured 1.03; 2.67 when the loaded array was centered into a
        # second one and the input was hashed on every run
        path = tmp_path / "x.mat"
        save_matrix(path, counts)
        args = argparse.Namespace(input=str(path), format="auto", transform="none",
                                  filter_fraction=1.0)
        assert peak_ratio(_load_and_preprocess, args) < 1.25

    def test_binary_reader_fills_one_array(self, counts, tmp_path):
        path = tmp_path / "x.mat"
        save_matrix(path, counts)
        assert peak_ratio(load_matrix, path) < 1.25

    def test_model_reader_checks_the_magic_first(self, counts, tmp_path):
        # measured 0.002; 1.00 when the whole file was read before its magic
        path = tmp_path / "x.mat"
        save_matrix(path, counts)

        def refused():
            with pytest.raises(MagicMismatch, match="not a FABLE-MODEL-v1 file"):
                load_model(path)

        assert peak_ratio(refused, size=path.stat().st_size) < 0.05

    def test_model_reader_holds_the_arrays_once_before_the_model(self, tmp_path):
        # measured 2.04, the arrays read and FableModel's frozen copies of
        # them; 3.03 when the whole file was read first and copied out
        path = tmp_path / "m.fable"
        save_model(path, fit(center_columns(np.random.default_rng(1).normal(size=(N, P))), k=10))
        load_model(path)  # imports and caches outside the measurement
        assert peak_ratio(load_model, path, size=path.stat().st_size) < 2.25

    def test_spectral_norm_copies_no_operand(self):
        # measured 0.23, ARPACK's Lanczos basis; 1.23 when the operand's
        # exponent came from an |A| temporary and A was scaled in a copy
        a = np.random.default_rng(3).normal(size=(N, P))
        spectral_norm(a[:5, :5])  # loads scipy.sparse.linalg
        assert peak_ratio(spectral_norm, a) < 0.5

    def test_quantile_reservoir_is_partitioned_in_place(self):
        # measured 1.05: the draws x pairs reservoir itself, and no copy of
        # it for the quantiles (2.05 before)
        truth = generate_truth(SimulationConfig(n=100, p=60, k_true=2, tracked=1),
                               np.random.default_rng(7))
        model = fit(generate_data(truth, 100, np.random.default_rng(8)), k=2)
        pairs = [(u, v) for u in range(60) for v in range(u, 60)]
        sample_entry_stats(model, 2, RngSpec(3), pairs[:1])  # loads scipy.special
        draws = 1600
        ratio = peak_ratio(sample_entry_stats, model, draws, RngSpec(3), pairs,
                           size=draws * len(pairs) * 8)
        assert ratio < 1.5

    def test_chunked_draws_hold_at_most_the_chunk_budget_more(self):
        # 200 rows of 5000 take the Philox row kernel in chunks; before it,
        # one draw at a time peaked at 1.0371 of the 160.8 MB reservoir
        # (1.0541 with chunks)
        truth = generate_truth(SimulationConfig(n=60, p=5000, k_true=10, tracked=1),
                               np.random.default_rng(1))
        model = fit(generate_data(truth, 60, np.random.default_rng(2)), k=10)
        pairs = _upper_pairs(np.arange(0, 5000, 25))
        sample_entry_stats(model, 2, RngSpec(3), pairs[:1])
        size = 1000 * len(pairs) * 8
        ratio = peak_ratio(sample_entry_stats, model, 1000, RngSpec(3), pairs, threads=2,
                           size=size)
        assert ratio < 1.0371 + _CHUNK_BYTES / size


class TestEntrySetMemory:
    """``--indices 0-999`` names 500,500 entries (u, v)."""

    MB = 10**6

    def test_index_pairs(self):
        _index_pairs("0-3", 10)
        # measured 16.1 MB (the triu_indices pair and the gathered entries);
        # 30.7 MB as a list of tuples
        assert peak_ratio(_index_pairs, "0-999", 1000, size=self.MB) < 20

    def test_credible_intervals(self):
        truth = generate_truth(SimulationConfig(n=60, p=1000, k_true=10, tracked=1),
                               np.random.default_rng(1))
        model = fit(generate_data(truth, 60, np.random.default_rng(2)), k=10)
        entries = _index_pairs("0-999", 1000)
        credible_intervals(model, entries[:3])
        # measured 92.1 MB, of which the two gathered m x k row blocks are
        # 80; 124.7 MB with a list of tuples in and a tuple per entry kept
        assert peak_ratio(credible_intervals, model, entries, size=self.MB) < 100


def caller_array(kind, seed):
    """The caller's 6 x 8 array for ``kind``: counts, centered for the
    DataMatrix constructor."""
    x = np.random.default_rng(seed).gamma(2.0, 5.0, (6, 8))
    return x - x.mean(axis=0) if kind == "DataMatrix" else x


def made(kind, x):
    """The DataMatrix that ``kind`` builds from the caller's array x."""
    if kind == "DataMatrix":
        return DataMatrix(x, np.zeros(x.shape[1]))
    if kind == "center_columns":
        return center_columns(x)
    transform, fraction = kind
    return preprocess(x, transform=transform, filter_top_variance_fraction=fraction)[0]


KINDS = ["DataMatrix", "center_columns"] + [
    (transform, fraction) for transform in ("none", "log2_plus_one") for fraction in (1.0, 0.5)
]


class TestCopyPolicy:
    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_caller_array_is_copied_and_left_alone(self, kind):
        x = caller_array(kind, 3)
        before = x.copy()
        dm = made(kind, x)
        np.testing.assert_array_equal(x, before)
        assert x.flags.writeable
        assert not np.shares_memory(dm.values, x)
        held = dm.values.copy()
        x[...] = -1.0
        np.testing.assert_array_equal(dm.values, held)

    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_values_are_read_only(self, kind):
        dm = made(kind, caller_array(kind, 4))
        with pytest.raises(ValueError, match="read-only"):
            dm.values[0, 0] = 1.0

    def test_generated_values_are_read_only(self):
        truth = generate_truth(SimulationConfig(n=6, p=8, k_true=2, tracked=1),
                               np.random.default_rng(5))
        dm = generate_data(truth, 6, np.random.default_rng(6))
        with pytest.raises(ValueError, match="read-only"):
            dm.values[0, 0] = 1.0

    def test_adopted_arrays_keep_the_checks(self):
        with pytest.raises(NonFinite):
            DataMatrix._adopt(np.array([[1.0, np.inf], [-1.0, 0.0]]), np.zeros(2))
        with pytest.raises(TooFewRows):
            DataMatrix._adopt(np.zeros((0, 3)), np.zeros(3))
        with pytest.raises(TooFewRows):
            DataMatrix._adopt(np.zeros((1, 3)), np.zeros(3))
        with pytest.raises(InvalidOption, match="not centered"):
            DataMatrix._adopt(np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2))


class TestInPlacePath:
    """The CLI centers the array its reader made in place; the public
    functions copy. Both give the same bytes."""

    @settings(max_examples=80, deadline=None)
    @given(
        x=st.sampled_from([np.int64, np.float64]).flatmap(lambda dtype: arrays(
            dtype, st.tuples(st.integers(2, 9), st.integers(1, 9)),
            elements=st.integers(-50, 50) if dtype is np.int64
            else st.floats(-1e6, 1e6, allow_subnormal=False),
        )),
        order=st.sampled_from("CF"),
    )
    def test_same_bytes_as_center_columns(self, x, order):
        x = np.asarray(x, order=order)
        with warnings.catch_warnings(record=True) as public:
            warnings.simplefilter("always")
            ref = center_columns(x)
        with warnings.catch_warnings(record=True) as in_place:
            warnings.simplefilter("always")
            dm, kept = _preprocess(x.copy(order=order), "none", 1.0)
        assert dm.values.tobytes() == ref.values.tobytes()
        assert dm.column_means.tobytes() == ref.column_means.tobytes()
        np.testing.assert_array_equal(kept, np.arange(x.shape[1]))
        assert [str(w.message) for w in in_place] == [str(w.message) for w in public]

    @pytest.mark.parametrize("call", [center_columns, preprocess], ids=lambda f: f.__name__)
    def test_constant_column_warning_points_at_the_caller(self, call):
        x = np.array([[1.0, 2.0, 3.0], [1.0, 5.0, 3.0], [1.0, 0.0, 3.0]])
        with pytest.warns(RuntimeWarning, match=r"^2 constant column\(s\) became "
                          r"identically zero after centering \(first index 0\)$") as seen:
            call(x)
        assert [w.filename for w in seen] == [__file__]
