"""The copy policy for n x p data, and the peak memory it buys.

Public constructors (``DataMatrix(...)``, ``center_columns``,
``preprocess``) copy what the caller passes and never write to it; an
array that fable has just made is adopted without a further copy. The
peak bounds are multiples of the n x p float64 array's size, measured
with tracemalloc, which sees every numpy data buffer: centering makes
one array, generating data two (the noise draws and the loading product), the log2
transform two (the transformed values and the centered ones), centering
without a transform or filter one, and the binary reader one. The
sample-quantile reservoir is partitioned in place. An entry set is two
index arrays, never a Python tuple per entry.
"""

import tracemalloc

import numpy as np
import pytest

from fable.cli import _index_pairs
from fable.errors import InvalidOption, NonFinite, TooFewRows
from fable.inference import credible_intervals
from fable.io import load_matrix, preprocess, save_matrix
from fable.linalg import DataMatrix, center_columns
from fable.model import fit
from fable.sampler import RngSpec, sample_entry_stats
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

    def test_generate_data_holds_two_arrays(self):
        truth = generate_truth(SimulationConfig(n=N, p=P), np.random.default_rng(1))
        assert peak_ratio(generate_data, truth, N, np.random.default_rng(2)) < 2.25

    def test_log2_preprocess_holds_two_arrays(self, counts):
        assert peak_ratio(preprocess, counts, transform="log2_plus_one") < 2.25

    def test_binary_reader_fills_one_array(self, counts, tmp_path):
        path = tmp_path / "x.mat"
        save_matrix(path, counts)
        assert peak_ratio(load_matrix, path) < 1.25

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
