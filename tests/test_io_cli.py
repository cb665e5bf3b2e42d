"""Tests for file formats and the command-line pipeline."""

import argparse
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import fable
import fable.cli
import fable.sampler
import fable.simharness
from fable.cli import main, parse_indices, _parse_p_grid
from fable.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidOption,
    MagicMismatch,
    NegativeCount,
    NonFinite,
    ParseError,
    ShapeError,
    TooFewRows,
)
from fable.inference import (
    asymptotic_variances,
    credible_intervals,
    fitted_loglik,
    oos_loglik,
    predictive_coverage,
    variance_explained,
)
from fable.io import (
    _VAR_BLOCK,
    MATRIX_MAGIC,
    MODEL_MAGIC,
    SAMPLE_MAGIC,
    LoadedMatrix,
    RunManifest,
    _column_variances,
    file_sha256,
    load_manifest,
    load_matrix,
    load_model,
    load_samples,
    preprocess,
    save_manifest,
    save_matrix,
    save_model,
    save_samples,
    write_intervals,
)
from fable.linalg import center_columns
from fable.model import fit
from fable.sampler import (
    RngSpec, draw_sample, draw_samples, posterior_mean, sample_entry_stats
)
from fable.simharness import runtime_benchmark

from test_linalg import decompositions_fail, lapack_reset  # noqa: F401 (fixtures)
from test_model import make_factor_data


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A fitted model artifact plus train/test matrices on disk."""
    root = tmp_path_factory.mktemp("cliws")
    rng = np.random.default_rng(404)
    lam = np.where(rng.random((60, 3)) < 0.5, 0.0, rng.normal(0, 0.6, (60, 3)))
    noise = rng.uniform(0.5, 2.0, 60)
    y = rng.standard_normal((130, 3)) @ lam.T + rng.standard_normal((130, 60)) * np.sqrt(noise)
    train_path = root / "train.mat"
    test_path = root / "test.mat"
    save_matrix(train_path, y[:100])
    save_matrix(test_path, y[100:])
    model_path = root / "model.bin"
    code = main(["fit", "--input", str(train_path), "--k", "3",
                 "--output", str(model_path)])
    assert code == 0
    return {"root": root, "train": train_path, "test": test_path,
            "model": model_path, "train_values": y[:100], "test_values": y[100:]}


class TestLoadMatrixText:
    def test_plain_csv(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,4\n")
        loaded = load_matrix(path)
        npt.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])
        assert loaded.row_labels is None and loaded.col_labels is None

    def test_tab_delimited(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("1\t2\n3\t4\n")
        npt.assert_array_equal(load_matrix(path).values, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        loaded = load_matrix(path)
        assert loaded.col_labels == ("a", "b")
        assert loaded.row_labels is None
        npt.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_labels(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("r1,1,2\nr2,3,4\n")
        loaded = load_matrix(path)
        assert loaded.row_labels == ("r1", "r2")
        npt.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_and_labels_with_corner(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("gene,s1,s2\ng1,1,2\ng2,3,4\n")
        loaded = load_matrix(path)
        assert loaded.col_labels == ("s1", "s2")
        assert loaded.row_labels == ("g1", "g2")
        npt.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_and_labels_without_corner(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("s1,s2\ng1,1,2\ng2,3,4\n")
        loaded = load_matrix(path)
        assert loaded.col_labels == ("s1", "s2")
        assert loaded.row_labels == ("g1", "g2")

    def test_ragged_row_names_the_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ShapeError, match="row 2"):
            load_matrix(path)

    def test_bad_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match="line 2, column 2"):
            load_matrix(path)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "#", "1#", "", "\x1f2"])
    def test_cell_outside_the_grammar_names_line_and_column(self, tmp_path, cell):
        # np.loadtxt's float64 grammar: no digit-group underscores, no
        # non-ASCII digits, '#' is data and not a comment (in the last
        # column, a comment would cut the row to a valid one)
        path = tmp_path / "x.csv"
        path.write_text(f"1,2,3\n4,5,{cell}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2, column 3: could not parse"):
            load_matrix(path)

    @pytest.mark.parametrize("text, where", [
        ("1_0,2\n3,4\n", "line 1, column 1"),
        ("a,\u0661\n", "line 1, column 2"),
        ("a,b\n1_0,2\n", "line 2, column 1"),
        ("a,b\nr1,2,3\nr2,4,1_0\n", "line 3, column 3"),
    ])
    def test_malformed_number_names_its_cell(self, tmp_path, text, where):
        # Python's float reads these cells. In the first line and the first
        # cell under a header, where the reader decides whether the file
        # has labels, they are refused too, not taken for labels.
        path = tmp_path / "x.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=where):
            load_matrix(path)

    def test_ragged_labelled_row_names_the_row(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("a\tb\nr1\t1\t2\nr2\t3\nr3\t4\t5\n")
        with pytest.raises(ShapeError, match="row 3 has 1 cells, expected 2"):
            load_matrix(path)
        path.write_text("r1\t1\t2\nr2\nr3\t4\t5\n")
        with pytest.raises(ShapeError, match="row 2 has 0 cells, expected 2"):
            load_matrix(path)

    def test_crlf_blank_lines_and_padding(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"\r\n a , b \r\n\r\n  \r\n 1 ,2.5e1 \r\n\t\r\n-3,  4\r\n")
        loaded = load_matrix(path)
        assert loaded.col_labels == ("a", "b") and loaded.row_labels is None
        npt.assert_array_equal(loaded.values, [[1.0, 25.0], [-3.0, 4.0]])
        path.write_bytes(b"g\ts1\ts2\r\n\r\n r1 \t 1\t2 \r\n \r\nr2\t3 \t 4\r\n")
        loaded = load_matrix(path)
        assert loaded.col_labels == ("s1", "s2") and loaded.row_labels == ("r1", "r2")
        npt.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="no data"):
            load_matrix(path)


class TestTextFastPath:
    """A valid text matrix goes to np.loadtxt in one call: Python looks
    at the cells of the first lines only. A refused one is scanned cell
    by cell for the error message."""

    @pytest.fixture
    def seen(self, monkeypatch):
        cells = []
        real = fable.io._is_number

        def counting(cell, *args):
            cells.append(cell)
            return real(cell, *args)

        monkeypatch.setattr("fable.io._is_number", counting)
        return cells

    @staticmethod
    def write(path, values):
        header = "\t".join(["gene"] + [f"s{j}" for j in range(values.shape[1])])
        rows = ["\t".join([f"g{i}"] + [repr(v) for v in row])
                for i, row in enumerate(values.tolist())]
        path.write_text("\n".join([header] + rows) + "\n")
        return header.split("\t")

    def test_valid_file_scans_only_the_first_lines(self, tmp_path, seen):
        values = np.random.default_rng(6).normal(size=(50, 40))
        header = self.write(tmp_path / "x.tsv", values)
        loaded = load_matrix(tmp_path / "x.tsv")
        assert loaded.values.tobytes() == values.tobytes()
        assert loaded.row_labels == tuple(f"g{i}" for i in range(50))
        # the header's cells, then the first row's label
        assert seen == header + ["g0"]

    def test_ragged_file_is_scanned(self, tmp_path, seen):
        values = np.random.default_rng(7).normal(size=(50, 40))
        self.write(tmp_path / "x.tsv", values)
        with open(tmp_path / "x.tsv", "a") as fh:
            fh.write("g50\t1.0\n")
        with pytest.raises(ShapeError, match="row 52 has 1 cells, expected 40"):
            load_matrix(tmp_path / "x.tsv")
        assert len(seen) == 42 + 50 * 40


class TestLoadMatrixBinary:
    def test_round_trip_bit_identical(self, tmp_path):
        values = np.random.default_rng(0).standard_normal((7, 5))
        a, b = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(a, values)
        loaded = load_matrix(a)
        npt.assert_array_equal(loaded.values, values)
        save_matrix(b, loaded.values)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("shape", [(0, 4), (5, 0), (0, 0)])
    def test_zero_dimension_reads_empty(self, tmp_path, shape):
        path = tmp_path / "empty.mat"
        save_matrix(path, np.zeros(shape))
        assert load_matrix(path).values.shape == shape

    def test_auto_sniffs_binary(self, tmp_path):
        path = tmp_path / "x.dat"
        save_matrix(path, np.eye(2))
        loaded = load_matrix(path)
        npt.assert_array_equal(loaded.values, np.eye(2))

    def test_magic_mismatch(self, tmp_path):
        # a file without the magic is text, whatever its name
        path = tmp_path / "x.mat"
        path.write_bytes(b"NOTAMAGIC" + b"\x00" * 32)
        with pytest.raises(ParseError, match="header but no data rows"):
            load_matrix(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "x.mat"
        save_matrix(path, np.eye(3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ShapeError, match="body"):
            load_matrix(path)


def assert_centered(dm, values):
    """``dm`` holds ``values`` centered, with their column means."""
    means = values.mean(axis=0)
    npt.assert_array_equal(dm.column_means, means)
    npt.assert_array_equal(dm.values, values - means)


class TestPreprocess:
    def test_log2_plus_one(self):
        dm, kept = preprocess(
            np.array([[0.0, 1.0, 3.0], [1.0, 3.0, 7.0]]),
            transform="log2_plus_one",
        )
        assert_centered(dm, np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]]))
        npt.assert_array_equal(kept, [0, 1, 2])

    def test_negative_count_rejected(self):
        with pytest.raises(NegativeCount):
            preprocess(np.array([[-1.0, 2.0], [0.0, 1.0]]),
                       transform="log2_plus_one")

    def test_fraction_one_keeps_everything_in_order(self):
        values = np.random.default_rng(1).standard_normal((10, 6))
        dm, kept = preprocess(values)
        npt.assert_array_equal(kept, np.arange(6))
        assert_centered(dm, values)

    def test_top_fraction_count_and_dominance(self):
        # ceil(0.1 * 5300) must be exactly 530 despite float fuzz
        rng = np.random.default_rng(2)
        values = rng.standard_normal((40, 5300)) * rng.uniform(0.1, 3.0, 5300)
        dm, kept = preprocess(values, filter_top_variance_fraction=0.1)
        assert len(kept) == 530
        assert dm.p == 530
        variances = values.var(axis=0, ddof=1)
        dropped = np.setdiff1d(np.arange(5300), kept)
        assert variances[kept].min() >= variances[dropped].max()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("extra", [1, 2, 37], ids=lambda e: f"last-block-{e}")
    def test_blocked_variances_are_numpys(self, order, extra):
        # p is not a multiple of the block; a lone last column of a
        # row-major array would sum in another order
        p = 2 * _VAR_BLOCK + extra
        counts = np.rint(np.random.default_rng(extra).gamma(2.0, 20.0, (45, p)))
        x = np.asarray(np.log2(counts + 1.0), order=order)
        variances = x.var(axis=0, ddof=1)
        assert _column_variances(x).tobytes() == variances.tobytes()
        _, kept = preprocess(x, filter_top_variance_fraction=0.5)
        ranked = np.argsort(-variances, kind="stable")
        npt.assert_array_equal(kept, np.sort(ranked[: (p + 1) // 2]))

    def test_ceil_rounds_up(self):
        values = np.random.default_rng(3).standard_normal((8, 10))
        _, kept = preprocess(values, filter_top_variance_fraction=0.34)
        assert len(kept) == 4  # ceil(3.4)

    def test_variance_ties_keep_lower_index(self):
        base = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        values = np.hstack([base, base, base])
        _, kept = preprocess(values, filter_top_variance_fraction=0.5)
        npt.assert_array_equal(kept, [0, 1])

    def test_kept_map_points_at_originals(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((30, 5))
        values[:, 3] *= 10.0  # dominant variance
        dm, kept = preprocess(values, filter_top_variance_fraction=0.2)
        npt.assert_array_equal(kept, [3])
        assert_centered(dm, values[:, [3]])

    def test_output_is_centered(self):
        values = np.random.default_rng(5).standard_normal((12, 4)) + 7.0
        dm, _ = preprocess(values)
        assert_centered(dm, values)
        npt.assert_allclose(dm.values.mean(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("transform", ["none", "log2_plus_one"])
    @pytest.mark.parametrize("shape, error", [((0, 4), TooFewRows),
                                              ((5, 0), DimensionMismatch)],
                             ids=["no-rows", "no-columns"])
    def test_empty_matrix_refused_typed(self, shape, error, transform):
        with pytest.raises(error):
            preprocess(np.zeros(shape), transform=transform)

    def test_non_finite_rejected(self):
        values = np.ones((3, 3))
        values[1, 1] = np.nan
        with pytest.raises(NonFinite):
            preprocess(values)

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            preprocess(np.ones((3, 3)), filter_top_variance_fraction=0.0)

    def test_unknown_transform(self):
        with pytest.raises(ValueError, match="transform"):
            preprocess(np.ones((3, 3)), transform="sqrt")


@pytest.fixture(scope="module")
def model():
    _, _, y = make_factor_data(50, 20, 2, seed=31)
    return fit(center_columns(y), k=2)


@pytest.fixture(scope="module")
def draws():
    _, _, y = make_factor_data(40, 12, 2, seed=77)
    sampled = fit(center_columns(y), k=2)
    return list(draw_samples(sampled, 5, RngSpec(11)))


class TestModelArtifact:
    def test_round_trip_every_field(self, model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(path, model)
        back = load_model(path)
        assert (back.n, back.p, back.k) == (model.n, model.p, model.k)
        for name in ("tau_sq", "gamma0", "delta0_sq", "gamma_n", "rho"):
            assert getattr(back, name) == getattr(model, name)
        assert back.rho_strategy == model.rho_strategy
        for name in ("mu", "delta_sq", "v_sq", "l_sq", "u", "spectrum"):
            npt.assert_array_equal(getattr(back, name), getattr(model, name))

    def test_fitted_model_gives_its_artifacts_bytes(self, tmp_path):
        # fit builds mu column-major and load_model row-major; a model holds
        # one layout, so every value read from it is the same, bit for bit
        data = center_columns(make_factor_data(120, 150, 8, seed=37)[2])
        fitted = fit(data, k=8)
        save_model(tmp_path / "m.bin", fitted)
        loaded = load_model(tmp_path / "m.bin")
        pairs = np.stack(np.triu_indices(fitted.p), axis=1)

        def outputs(model):
            asym = credible_intervals(model, pairs)
            quant = credible_intervals(model, pairs[:400], method="sample_quantile",
                                       n_samples=150, rng=RngSpec(5))
            var = asymptotic_variances(model, pairs)
            stats = sample_entry_stats(model, 40, RngSpec(6), pairs[:400])
            draw = draw_sample(model, 3, RngSpec(7))
            factored = posterior_mean(model)
            return {
                "asymptotic": (asym.center, asym.lower, asym.upper, asym.asym_sd),
                "sample_quantile": (quant.center, quant.lower, quant.upper),
                "factored": (factored.loadings, factored.diag),
                "dense_entrywise": posterior_mean(model, form="dense_entrywise",
                                                  indices=pairs),
                "asymptotic_variances": (var.l0_sq, var.s0_sq),
                "sample_entry_stats": (stats.mean, stats.sd, *stats.quantiles.values()),
                "draw_sample": (draw.loadings, draw.noise_sq),
                "variance_explained": variance_explained(model),
                "predictive_coverage": predictive_coverage(model, data),
                "fitted_loglik": fitted_loglik(model, data),
            }

        def as_bytes(value):
            parts = value if isinstance(value, tuple) else (value,)
            return b"".join(np.asarray(part).tobytes() for part in parts)

        got, want = outputs(fitted), outputs(loaded)
        assert [name for name in got if as_bytes(got[name]) != as_bytes(want[name])] == []

    def test_deterministic_bytes(self, model, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(a, model)
        save_model(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"WRONG-MAGIC-123\n" + b"\x00" * 64)
        with pytest.raises(MagicMismatch):
            load_model(path)

    def test_truncated_arrays(self, model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ShapeError, match="truncated"):
            load_model(path)

    def test_trailing_garbage(self, model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(path, model)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ShapeError, match="trailing"):
            load_model(path)


def rewrite_header(path, edit):
    """Rewrite a model artifact's JSON header with ``edit(header)``; the
    arrays after it are kept as they are."""
    raw = path.read_bytes()
    offset = len(MODEL_MAGIC)
    (hlen,) = struct.unpack_from("<Q", raw, offset)
    header = json.loads(raw[offset + 8 : offset + 8 + hlen])
    blob = json.dumps(edit(header)).encode("ascii")
    path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(blob)) + blob
                     + raw[offset + 8 + hlen :])


class TestModelBoundaries:
    @pytest.mark.parametrize("field", ["shapes", "rho", "rho_strategy", "n"])
    def test_missing_header_field(self, model, tmp_path, field):
        path = tmp_path / "m.bin"
        save_model(path, model)
        rewrite_header(path, lambda h: {k: v for k, v in h.items() if k != field})
        with pytest.raises(ParseError, match=field):
            load_model(path)

    def test_missing_array_shape(self, model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(path, model)
        rewrite_header(path, lambda h: {**h, "shapes": {"mu": h["shapes"]["mu"]}})
        with pytest.raises(ParseError, match="delta_sq"):
            load_model(path)

    @pytest.mark.parametrize("header", [[1, 2], {"version": 1, "shapes": [3]}])
    def test_malformed_header(self, model, tmp_path, header):
        path = tmp_path / "m.bin"
        save_model(path, model)
        rewrite_header(path, lambda h: header)
        with pytest.raises(ParseError):
            load_model(path)

    def test_cli_reports_missing_shapes(self, model, tmp_path, capsys):
        path = tmp_path / "m.bin"
        save_model(path, model)
        rewrite_header(path, lambda h: {k: v for k, v in h.items() if k != "shapes"})
        code = main(["mean", "--model", str(path),
                     "--output-loadings", str(tmp_path / "g.mat"),
                     "--output-noise", str(tmp_path / "d.mat")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    def test_nan_in_mu(self, model, tmp_path, capsys):
        path = tmp_path / "m.bin"
        save_model(path, model)
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack_from("<Q", raw, len(MODEL_MAGIC))
        start = len(MODEL_MAGIC) + 8 + hlen  # mu is the first array
        raw[start : start + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFinite, match="mu"):
            load_model(path)
        out = tmp_path / "iv.csv"
        code = main(["intervals", "--model", str(path), "--indices", "0-1",
                     "--output", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NonFinite"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["intervals", "--indices", "0-1"],
         ["mean", "--form", "dense_entrywise", "--indices", "0-1"]],
        ids=["intervals", "mean"],
    )
    def test_rho_whose_square_overflows(self, model, tmp_path, capsys, argv):
        path = tmp_path / "m.bin"
        save_model(path, model)
        rewrite_header(path, lambda h: {**h, "rho": 1e300})
        out = tmp_path / "out.csv"
        code = main([argv[0], "--model", str(path), *argv[1:], "--output", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError"
        assert "rho" in record["message"]
        assert not out.exists()


class TestSampleStreams:
    def test_binary_round_trip(self, draws, tmp_path):
        path = tmp_path / "s.bin"
        count = save_samples(path, draws, format="binary")
        assert count == 5
        back = list(load_samples(path))
        assert [s.index for s in back] == [s.index for s in draws]
        for a, b in zip(draws, back):
            npt.assert_array_equal(a.loadings, b.loadings)
            npt.assert_array_equal(a.noise_sq, b.noise_sq)

    def test_text_round_trip(self, draws, tmp_path):
        path = tmp_path / "s.csv"
        save_samples(path, draws, format="text")
        back = list(load_samples(path))
        for a, b in zip(draws, back):
            npt.assert_array_equal(a.loadings, b.loadings)
            npt.assert_array_equal(a.noise_sq, b.noise_sq)

    def test_auto_sniffing(self, draws, tmp_path):
        bin_path, text_path = tmp_path / "a", tmp_path / "b"
        save_samples(bin_path, draws[:1], format="binary")
        save_samples(text_path, draws[:1], format="text")
        assert next(load_samples(bin_path)).index == draws[0].index
        assert next(load_samples(text_path)).index == draws[0].index

    def test_truncated_binary(self, draws, tmp_path):
        path = tmp_path / "s.bin"
        save_samples(path, draws, format="binary")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 4])
        with pytest.raises(ShapeError, match="truncated"):
            list(load_samples(path))

    def test_bad_magic(self, tmp_path):
        # a stream without the magic is text, whatever its name
        path = tmp_path / "s.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ParseError, match="expected t,k,p header"):
            list(load_samples(path))

    @pytest.mark.parametrize("format", ["binary", "text"])
    def test_refusals_leave_no_partial_file(self, draws, tmp_path, format):
        def refused():
            yield from draws[:2]
            raise NonFinite("draw 3 is not finite at row 0")

        path = tmp_path / "s"
        with pytest.raises(NonFinite):
            save_samples(path, refused(), format=format)
        assert not path.exists()
        # an output that cannot be opened is reported, and nothing removed
        with pytest.raises(IsADirectoryError):
            save_samples(tmp_path, draws, format=format)
        assert tmp_path.is_dir()


@pytest.fixture(scope="module")
def block_files(model, draws, tmp_path_factory):
    """The bytes of a FABLEMAT1 matrix, a model artifact and a two-record
    binary sample stream, each with the reader that loads it."""
    root = tmp_path_factory.mktemp("blocks")
    save_matrix(root / "x", np.eye(3))
    save_model(root / "m", model)
    save_samples(root / "s", draws[:2])
    return {
        "matrix": ((root / "x").read_bytes(), load_matrix),
        "model": ((root / "m").read_bytes(), load_model),
        "samples": ((root / "s").read_bytes(), lambda path: list(load_samples(path))),
    }


def model_header(raw, edit, extra_length=0):
    """Model artifact bytes whose JSON header is ``edit(header)`` and whose
    header length is ``extra_length`` past it; no array bytes follow."""
    (hlen,) = struct.unpack_from("<Q", raw, len(MODEL_MAGIC))
    header = json.loads(raw[len(MODEL_MAGIC) + 8 : len(MODEL_MAGIC) + 8 + hlen])
    blob = json.dumps(edit(header)).encode("ascii")
    return MODEL_MAGIC + struct.pack("<Q", len(blob) + extra_length) + blob


def zero_shapes(header):
    return {**header, "shapes": {name: [0] for name in header["shapes"]}}


def over_limit_mu(header):
    return {**header, "shapes": {**header["shapes"], "mu": [0, 2**62]}}


OVER_LIMIT = "unsupported shape (0, 4611686018427387904)"
# format, damage to the written bytes, whether fstat still reports the
# written size (the file shrank while it was read), message after the path
BLOCK_REFUSALS = {
    "matrix-truncated-body": ("matrix", lambda raw: raw[:-8], False,
                              "body holds 64 bytes, expected 72 for 3x3"),
    "matrix-trailing-bytes": ("matrix", lambda raw: raw + bytes(8), False,
                              "body holds 80 bytes, expected 72 for 3x3"),
    "matrix-shape-past-numpy": ("matrix", lambda raw: MATRIX_MAGIC + struct.pack("<QQ", 0, 2**62),
                                False, OVER_LIMIT),
    "matrix-short-read": ("matrix", lambda raw: raw[:-8], True,
                          "the body changed while it was read"),
    "model-truncated-array": ("model", lambda raw: raw[:-8], False, "truncated array 'spectrum'"),
    "model-trailing-bytes": ("model", lambda raw: raw + bytes(8), False, "8 trailing bytes"),
    "model-shape-past-numpy": ("model", lambda raw: model_header(raw, over_limit_mu), False,
                               OVER_LIMIT),
    "model-header-length-past-the-file": (
        "model", lambda raw: model_header(raw, zero_shapes, extra_length=5), False,
        "truncated array 'mu'"),
    "model-short-read": ("model", lambda raw: raw[:-8], True, "truncated array 'spectrum'"),
    "samples-truncated-record": ("samples", lambda raw: raw[:-8], False, "truncated record 2"),
    "samples-trailing-bytes": ("samples", lambda raw: raw + bytes(8), False,
                               "truncated record header"),
    "samples-shape-past-numpy": ("samples",
                                 lambda raw: SAMPLE_MAGIC + struct.pack("<QQQ", 1, 2**62, 0),
                                 False, OVER_LIMIT),
    "samples-short-read": ("samples", lambda raw: raw[:-8], True, "truncated record 2"),
}


@pytest.mark.parametrize("case", BLOCK_REFUSALS.values(), ids=BLOCK_REFUSALS)
def test_block_refusal(case, block_files, tmp_path, monkeypatch):
    """Every binary reader reads its float64 blocks one way, and refuses a
    damaged one as a ShapeError that names the file."""
    kind, damage, stale_size, message = case
    raw, load = block_files[kind]
    path = tmp_path / kind
    path.write_bytes(damage(raw))
    if stale_size:
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(raw)))
    with pytest.raises(ShapeError) as refused:
        load(path)
    assert str(refused.value).startswith(f"{path}: {message}")


class TestIntervalTable:
    def test_written_values_parse_back_exactly(self, tmp_path):
        _, _, y = make_factor_data(60, 15, 2, seed=9)
        model = fit(center_columns(y), k=2)
        pairs = [(0, 0), (0, 3), (2, 7)]
        grid = credible_intervals(model, pairs)
        path = tmp_path / "iv.csv"
        write_intervals(path, grid)
        header, rows = read_csv_rows(path)
        assert header == ["u", "v", "center", "lower", "upper", "asym_sd", "method"]
        assert len(rows) == 3
        for i, row in enumerate(rows):
            assert (int(row[0]), int(row[1])) == pairs[i]
            assert float(row[2]) == grid.center[i]
            assert float(row[3]) == grid.lower[i]
            assert float(row[4]) == grid.upper[i]
            assert float(row[5]) == grid.asym_sd[i]
            assert row[6] == "asymptotic"


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = RunManifest(
            command="fit",
            config={"argv": ["fit", "--input", "x.mat"]},
            software_version="0.1.0",
            seed=3,
            inputs={"input": {"path": "x.mat", "sha256": "ab" * 32}},
            resolved={"k": 4},
            outputs={"model": {"path": "m.bin", "sha256": "cd" * 32}},
            measured={"table": {"path": "t.csv", "sha256": "ef" * 32}},
            created_unix=123.5,
        )
        path = tmp_path / "m.json"
        save_manifest(path, manifest)
        assert load_manifest(path) == manifest

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"config": {}}')
        with pytest.raises(ParseError, match="missing"):
            load_manifest(path)

    @pytest.mark.parametrize("text", ["[1, 2]", '"fit"', "null", "{not json"])
    def test_not_an_object(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_replay_of_a_list(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code = main(["replay", "--manifest", str(path), "--outdir", str(tmp_path / "o")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    @staticmethod
    def malformed(tmp_path, change):
        payload = {
            "command": "fit",
            "config": {"argv": ["fit", "--input", "x.mat"]},
            "software_version": "0.2.0",
            "outputs": {"model": {"path": "m.bin", "sha256": "cd" * 32}},
            "measured": {"table": {"path": "t.csv", "sha256": "ef" * 32}},
        }
        change(payload)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize(
        "field, change",
        [
            ("config", lambda m: m.update(config=["fit"])),
            ("config.argv", lambda m: m["config"].update(argv="fit --input x.mat")),
            ("config.argv", lambda m: m["config"].update(argv=["fit", 3])),
            ("outputs", lambda m: m.update(outputs=["m.bin"])),
            ("outputs.model", lambda m: m["outputs"].update(model="m.bin")),
            ("outputs.model", lambda m: m["outputs"]["model"].pop("path")),
            ("outputs.model", lambda m: m["outputs"]["model"].update(sha256=None)),
            ("measured.table", lambda m: m["measured"].update(table=[1])),
            ("measured.table", lambda m: m["measured"]["table"].update(path=7)),
            ("command", lambda m: m.update(command=None)),
            ("software_version", lambda m: m.update(software_version=2)),
        ],
    )
    def test_malformed_field(self, tmp_path, capsys, field, change):
        path = self.malformed(tmp_path, change)
        with pytest.raises(ParseError, match=f"field {field} is not"):
            load_manifest(path)
        code = main(["replay", "--manifest", str(path), "--outdir", str(tmp_path / "o")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError"
        assert f"field {field} is not" in record["message"]

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"command": "\xff"}')
        with pytest.raises(ParseError, match="not valid JSON"):
            load_manifest(path)

    def test_replay_of_replay_is_refused(self, tmp_path, capsys):
        path = tmp_path / "m.json"

        def replays_itself(m):
            m["command"] = "replay"
            m["config"]["argv"] = ["replay", "--manifest", str(path), "--outdir", "o"]

        self.malformed(tmp_path, replays_itself)
        code = main(["replay", "--manifest", str(path), "--outdir", str(tmp_path / "o")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError"
        assert "argv runs replay" in record["message"]


class TestArgParsing:
    def test_parse_indices(self):
        assert parse_indices("0,5,10-12", 13) == [0, 5, 10, 11, 12]
        assert parse_indices("3", 4) == [3]

    def test_parse_indices_errors(self):
        with pytest.raises(ValueError, match="decreasing"):
            parse_indices("5-3", 10)
        with pytest.raises(ValueError, match="no indices"):
            parse_indices(",", 10)
        with pytest.raises(IndexOutOfRange, match=r"index 13 outside \[0, 13\)"):
            parse_indices("0,5,10-13", 13)
        with pytest.raises(IndexOutOfRange, match=r"index 20 outside \[0, 13\)"):
            parse_indices("20-30", 13)

    def test_range_refused_before_it_is_built(self, workspace, tmp_path, capsys):
        # as a list, 10^7 indices would take hundreds of megabytes
        out = tmp_path / "iv.csv"
        tracemalloc.start()
        try:
            code = main(["intervals", "--model", str(workspace["model"]),
                         "--indices", "0-10000000", "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IndexOutOfRange"
        assert peak < 1 << 20
        assert not out.exists()

    def test_parse_p_grid(self):
        assert _parse_p_grid("500:2000:500") == [500, 1000, 1500, 2000]
        assert _parse_p_grid("50,100") == [50, 100]

    def test_parse_p_grid_errors(self):
        with pytest.raises(ValueError):
            _parse_p_grid("10:5:1")
        with pytest.raises(ValueError):
            _parse_p_grid("1:2:3:4")
        for empty in ("", ",", " , "):
            with pytest.raises(InvalidOption, match="no grid sizes"):
                _parse_p_grid(empty)


class TestCliFit:
    def test_artifact_and_manifest_written(self, workspace):
        model = load_model(workspace["model"])
        assert model.k == 3
        manifest = load_manifest(str(workspace["model"]) + ".manifest.json")
        assert manifest.command == "fit"
        assert manifest.resolved["k"] == 3
        assert manifest.inputs == {
            "input": {"path": str(workspace["train"]), "sha256": file_sha256(workspace["train"])}
        }
        assert manifest.outputs["model"]["sha256"] == file_sha256(workspace["model"])

    def test_matches_library_composition(self, workspace):
        loaded = load_matrix(workspace["train"])
        dm, _ = preprocess(loaded.values)
        direct = fit(dm, k=3)
        artifact = load_model(workspace["model"])
        npt.assert_array_equal(artifact.mu, direct.mu)
        npt.assert_array_equal(artifact.delta_sq, direct.delta_sq)
        assert artifact.tau_sq == direct.tau_sq
        assert artifact.rho == direct.rho

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "nope.mat"),
                     "--output", str(tmp_path / "m.bin")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert "nope.mat" in record["message"]

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--alpha", "1.5"], "InvalidAlpha"),
            (["--alpha", "-1"], "InvalidAlpha"),
            (["--alpha", "nan"], "InvalidAlpha"),
            (["--k", "3", "--S0", "7"], "InvalidSpectrumFraction"),
            (["--k", "3", "--S0", "-1"], "InvalidSpectrumFraction"),
            (["--k", "3", "--S0", "nan"], "InvalidSpectrumFraction"),
        ],
    )
    def test_bad_alpha_or_s0_writes_nothing(self, workspace, tmp_path, capsys, flags, error):
        # checked before the fit whatever the rank and rho strategy are
        outdir = tmp_path / "out"
        outdir.mkdir()
        code = main(["fit", "--input", str(workspace["train"]), *flags,
                     "--output", str(outdir / "m.bin")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--tau-sq", "nan", "tau_sq"), ("--gamma0", "nan", "gamma0"),
         ("--delta0-sq", "inf", "delta0_sq")],
    )
    def test_nan_or_inf_prior_names_its_option(self, workspace, tmp_path, capsys,
                                               flag, value, name):
        outdir = tmp_path / "out"
        outdir.mkdir()
        code = main(["fit", "--input", str(workspace["train"]), "--k", "3",
                     flag, value, "--output", str(outdir / "m.bin")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InvalidOption"
        assert record["message"] == f"{name} must be positive and finite, got {value}"
        assert list(outdir.iterdir()) == []

    def test_usage_error_exits_two(self):
        assert main(["fit", "--output", "x.bin"]) == 2
        assert main([]) == 2

    @pytest.mark.parametrize("flag", [["--svd-method", "exact"], ["--seed", "0"],
                                      ["--format", "auto"], ["--rho-strategy", "mean_b"],
                                      ["--alpha", "0.05"]])
    @pytest.mark.parametrize("command", ["fit", "oos", "diagnose"])
    def test_removed_svd_flags_are_usage_errors(self, workspace, tmp_path, command, flag):
        # the SVD is always exact and unseeded and the matrix format is
        # read from the file; of these flags only fit's rho options and
        # diagnose's --alpha remain
        argv = [command, "--input", str(workspace["train"]), "--output", str(tmp_path / "out")]
        argv += {
            "fit": ["--k", "3"],
            "oos": ["--k", "3", "--test", str(workspace["test"]), "--targets", "0-29"],
            "diagnose": ["--model", str(workspace["model"])],
        }[command]
        kept = {"fit": ["--rho-strategy", "--alpha"], "diagnose": ["--alpha"]}.get(command, [])
        assert main(argv) == 0
        assert main(argv + flag) == (0 if flag[0] in kept else 2)


class TestCliSample:
    def test_deterministic_output(self, workspace, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for path in (a, b):
            code = main(["sample", "--model", str(workspace["model"]),
                         "--n-samples", "4", "--seed", "21",
                         "--output", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(list(load_samples(a))) == 4

    def test_seed_is_required(self, workspace, tmp_path):
        code = main(["sample", "--model", str(workspace["model"]),
                     "--n-samples", "4", "--output", str(tmp_path / "s.bin")])
        assert code == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, workspace, tmp_path, capsys, threads):
        out = tmp_path / "s.bin"
        code = main(["sample", "--model", str(workspace["model"]),
                     "--n-samples", "4", "--seed", "21", "--threads", threads,
                     "--output", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidOption", "message": f"--threads must be at least 1, got {threads}"}
        assert not out.exists()

    def test_rho_zero_draws_at_the_posterior_mean(self, workspace, tmp_path):
        out, man = tmp_path / "s.bin", tmp_path / "s.json"
        assert main(["sample", "--model", str(workspace["model"]), "--n-samples", "3",
                     "--seed", "21", "--rho", "0", "--output", str(out),
                     "--manifest", str(man)]) == 0
        model = load_model(workspace["model"])
        draws = list(load_samples(out))
        assert [d.index for d in draws] == [1, 2, 3]
        for d, full in zip(draws, draw_samples(model, 3, RngSpec(21))):
            assert d.loadings.tobytes() == model.mu.tobytes()
            assert d.noise_sq.tobytes() == full.noise_sq.tobytes()
        assert load_manifest(man).resolved["rho"] == 0.0

    def test_negative_start_writes_nothing(self, workspace, tmp_path, capsys):
        out = tmp_path / "s.bin"
        code = main(["sample", "--model", str(workspace["model"]),
                     "--n-samples", "4", "--seed", "21", "--start", "-1",
                     "--output", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidOption"
        assert not out.exists()

    def test_huge_prior_shape_samples_finite_values(self, workspace, tmp_path):
        # gamma0 = 1e300 puts the noise draws' inverse-Gamma shape near 5e299
        model, out = tmp_path / "m.bin", tmp_path / "s.txt"
        assert main(["fit", "--input", str(workspace["train"]), "--k", "3",
                     "--gamma0", "1e300", "--output", str(model)]) == 0
        assert main(["sample", "--model", str(model), "--n-samples", "3", "--seed", "1",
                     "--sample-format", "text", "--output", str(out)]) == 0
        for draw in load_samples(out):
            assert np.isfinite(draw.loadings).all() and np.isfinite(draw.noise_sq).all()


class TestCliMean:
    def test_factored_outputs(self, workspace, tmp_path):
        lpath, npath = tmp_path / "g.mat", tmp_path / "d.mat"
        code = main(["mean", "--model", str(workspace["model"]),
                     "--output-loadings", str(lpath),
                     "--output-noise", str(npath)])
        assert code == 0
        est = posterior_mean(load_model(workspace["model"]))
        npt.assert_array_equal(load_matrix(lpath).values, est.loadings)
        npt.assert_array_equal(load_matrix(npath).values[0], est.diag)

    def test_dense_entrywise_matches_library(self, workspace, tmp_path):
        out = tmp_path / "e.csv"
        code = main(["mean", "--model", str(workspace["model"]),
                     "--form", "dense_entrywise", "--indices", "0,2",
                     "--output", str(out)])
        assert code == 0
        model = load_model(workspace["model"])
        pairs = [(0, 0), (0, 2), (2, 2)]
        want = posterior_mean(model, form="dense_entrywise", indices=pairs)
        header, rows = read_csv_rows(out)
        assert header == ["u", "v", "mean"]
        got = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert got == {pair: float(v) for pair, v in zip(pairs, want)}

    def test_factored_needs_both_outputs(self, workspace, capsys):
        code = main(["mean", "--model", str(workspace["model"]),
                     "--output-loadings", "only.mat"])
        assert code == 1
        assert "output-noise" in json.loads(capsys.readouterr().err)["message"]


class TestCliIntervals:
    def test_matches_library(self, workspace, tmp_path):
        out = tmp_path / "iv.csv"
        code = main(["intervals", "--model", str(workspace["model"]),
                     "--indices", "0-3", "--output", str(out)])
        assert code == 0
        model = load_model(workspace["model"])
        idx = [0, 1, 2, 3]
        pairs = [(u, v) for i, u in enumerate(idx) for v in idx[i:]]
        grid = credible_intervals(model, pairs)
        header, rows = read_csv_rows(out)
        assert len(rows) == len(pairs)
        for i, row in enumerate(rows):
            assert float(row[3]) == grid.lower[i]
            assert float(row[4]) == grid.upper[i]

    def test_sample_quantile_needs_seed(self, workspace, tmp_path, capsys):
        code = main(["intervals", "--model", str(workspace["model"]),
                     "--indices", "0-1", "--method", "sample_quantile",
                     "--n-samples", "200",
                     "--output", str(tmp_path / "iv.csv")])
        assert code == 1
        assert "seed" in json.loads(capsys.readouterr().err)["message"]


class TestIndexPairs:
    """mean and intervals check every index of --indices against the
    model before they form the m (m + 1) / 2 pairs."""

    @pytest.mark.parametrize("command", ["intervals", "mean"])
    @pytest.mark.parametrize("indices, bad", [("5,0-3000", 60), ("3,-2,70", -2)])
    def test_refused_before_any_pair(self, workspace, tmp_path, capsys, monkeypatch,
                                     command, indices, bad):
        import fable.cli

        def never(*args, **kwargs):
            raise AssertionError("pairs were formed before the index check")

        monkeypatch.setattr(fable.cli, "credible_intervals", never)
        monkeypatch.setattr(fable.cli, "posterior_mean", never)
        out = tmp_path / "out.csv"
        argv = [command, "--model", str(workspace["model"]), "--indices", indices,
                "--output", str(out)]
        if command == "mean":
            argv += ["--form", "dense_entrywise"]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "IndexOutOfRange"
        assert record["message"] == f"index {bad} outside [0, 60)"
        assert not out.exists()


class TestNoSilentInfinities:
    """A legal rho whose square overflows the interval or the entrywise
    mean arithmetic ends as one NonFinite record with exit 1, and no
    output is written."""

    @pytest.fixture
    def huge_rho_model(self, workspace, tmp_path):
        path = tmp_path / "huge.bin"
        save_model(path, dataclasses.replace(load_model(workspace["model"]), rho=1.3e154))
        return path

    @pytest.mark.parametrize("command", ["intervals", "mean"])
    def test_refused(self, huge_rho_model, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        argv = [command, "--model", str(huge_rho_model), "--indices", "0-2",
                "--output", str(out)]
        if command == "mean":
            argv += ["--form", "dense_entrywise"]
        capsys.readouterr()
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "NonFinite"
        assert "rho=1.3e+154" in record["message"]
        assert "(0, 0)" in record["message"]
        assert not out.exists()

    def test_alpha_below_the_quantile_resolution(self, workspace, tmp_path, capsys):
        # 1 - 1e-17 / 2 rounds to 1, where the normal quantile is inf
        out = tmp_path / "iv.csv"
        capsys.readouterr()
        assert main(["intervals", "--model", str(workspace["model"]), "--indices", "0-2",
                     "--alpha", "1e-17", "--output", str(out)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "NonFinite"
        assert "bounds -inf, inf" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "sample-text", "diagnose", "oos"])
    def test_non_finite_results_refused(self, workspace, tmp_path, capsys, command):
        # a noise draw past the double range, a log-likelihood at a
        # subnormal noise level, and one held-out value near 1e200; a
        # sample stream refused part-way removes the file it opened
        model = load_model(workspace["model"])
        path, out = tmp_path / "model.bin", tmp_path / "out"
        scale = {"diagnose": 1e-318, "oos": 1.0}.get(command, 1e307)
        save_model(path, dataclasses.replace(model, delta_sq=model.delta_sq * scale))
        test = workspace["test_values"].copy()
        test[0, 0] = 1e200
        save_matrix(tmp_path / "test.mat", test)
        argv = {
            "sample": ["sample", "--model", str(path), "--n-samples", "3", "--seed", "1"],
            "sample-text": ["sample", "--model", str(path), "--n-samples", "3", "--seed", "1",
                            "--sample-format", "text"],
            "diagnose": ["diagnose", "--model", str(path), "--input", str(workspace["train"])],
            "oos": ["oos", "--input", str(workspace["train"]), "--test",
                    str(tmp_path / "test.mat"), "--targets", "0-29", "--extras", "30-59",
                    "--k", "3"],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--output", str(out)]) == 1
        stdout, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert stdout == "" and len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "NonFinite"
        assert re.match("draw 1 is not finite at row 0|log-likelihood of", record["message"])
        assert not out.exists()

    def test_library_calls_refuse(self, huge_rho_model):
        model = load_model(huge_rho_model)
        with pytest.raises(NonFinite, match="interval of entry"):
            credible_intervals(model, [(0, 1), (1, 1)])
        with pytest.raises(NonFinite, match="posterior mean of entry"):
            posterior_mean(model, form="dense_entrywise", indices=[(0, 1), (1, 1)])
        # off the diagonal the same model stays finite
        assert np.isfinite(credible_intervals(model, [(0, 1)]).upper).all()


class TestCliTinyData:
    def test_fit_at_two_to_the_minus_260(self, tmp_path, capsys):
        # the Gram entries fall near 2^-520, where LAPACK's bisection and
        # inverse iteration lost the top vectors before they were rescaled
        _, _, y = make_factor_data(60, 40, 3, seed=62)
        path = tmp_path / "tiny.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n"
                                for row in np.ldexp(y, -260).tolist()))
        assert main(["fit", "--input", str(path), "--k", "3",
                     "--output", str(tmp_path / "m.bin")]) == 0
        unit = fit(center_columns(y), k=3)
        assert load_model(tmp_path / "m.bin").mu.tobytes() == np.ldexp(unit.mu, -260).tobytes()


class TestCliHugeData:
    def test_fit_at_two_to_the_515_is_one_refusal(self, tmp_path, capsys):
        # the values are finite, but their squares sum past the double range
        _, _, y = make_factor_data(60, 40, 3, seed=62)
        path = tmp_path / "huge.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n"
                                for row in np.ldexp(y, 515).tolist()))
        capsys.readouterr()
        assert main(["fit", "--input", str(path), "--k", "3",
                     "--output", str(tmp_path / "m.bin")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "NonFinite" and "max |x|" in record["message"]
        assert "warnings" not in record
        assert not (tmp_path / "m.bin").exists()


class TestCliDecompositionFailure:
    def test_fit_is_one_typed_record(self, tmp_path, capsys, decompositions_fail):
        _, _, y = make_factor_data(60, 40, 3, seed=62)
        path = tmp_path / "y.csv"
        save_matrix(path, y)
        capsys.readouterr()
        assert main(["fit", "--input", str(path), "--k", "3",
                     "--output", str(tmp_path / "m.bin")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "ConvergenceFailure"
        assert record["message"].startswith("SVD of the 60 x 40 data failed")
        assert not (tmp_path / "m.bin").exists()


class TestCliRankSelectionErrors:
    """Rank selection's refusals end as exit 1 with a JSON error record."""

    def fit_error(self, tmp_path, capsys, values):
        path = tmp_path / "y.csv"
        save_matrix(path, np.asarray(values))
        capsys.readouterr()
        code = main(["fit", "--input", str(path), "--output", str(tmp_path / "m.bin")])
        assert code == 1
        assert not (tmp_path / "m.bin").exists()
        return json.loads(capsys.readouterr().err)

    @pytest.mark.filterwarnings("ignore:.*constant column")
    def test_constant_matrix(self, tmp_path, capsys):
        record = self.fit_error(tmp_path, capsys, np.full((6, 4), 2.5))
        assert record["error"] == "AllZeroSpectrum"

    def test_one_column_without_k(self, tmp_path, capsys):
        values = np.random.default_rng(3).normal(size=(8, 1))
        record = self.fit_error(tmp_path, capsys, values)
        assert record["error"] == "ZeroResidual"
        assert "no scorable ranks" in record["message"]
        assert "warnings" not in record  # the key appears only when one was raised


class TestCliWarnings:
    """Warnings a command raises go into the JSON error record when it
    fails, so stderr is one record; on success they are shown as ever."""

    def test_failure_stderr_is_one_record(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("2,2,2\n2,2,2\n2,2,2\n2,2,2\n")
        env = {**os.environ, "PYTHONPATH": str(Path(fable.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "fable.cli", "fit", "--input", str(path),
             "--output", str(tmp_path / "m.bin")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        record = json.loads(proc.stderr)
        assert record["error"] == "AllZeroSpectrum"
        assert [w["category"] for w in record["warnings"]] == ["RuntimeWarning"]
        assert "3 constant column(s)" in record["warnings"][0]["message"]

    def test_success_still_shows_warnings(self, workspace, tmp_path, capsys):
        # a constant column outside the target and extra sets warns while
        # centering, and the fit on the other columns succeeds
        train = np.array(workspace["train_values"])
        train[:, 59] = 1.5
        save_matrix(tmp_path / "train.mat", train)
        with pytest.warns(RuntimeWarning, match="1 constant column"):
            code = main(["oos", "--input", str(tmp_path / "train.mat"),
                         "--test", str(workspace["test"]), "--targets", "0-9",
                         "--extras", "10-19", "--k", "2"])
        assert code == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["oos_loglik"])


class TestCliDiagnose:
    def test_stdout_report(self, workspace, capsys):
        code = main(["diagnose", "--model", str(workspace["model"]),
                     "--input", str(workspace["train"])])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 3
        assert report["n"] == 100 and report["p"] == 60
        assert 0.8 <= report["predictive_coverage"] <= 1.0
        assert 0.0 < report["variance_explained_mean"] < 1.0
        assert np.isfinite(report["fitted_loglik"])

    def test_input_hashed_only_for_a_manifest(self, workspace, tmp_path, monkeypatch):
        hashed = []

        def counting(path):
            hashed.append(str(path))
            return file_sha256(path)

        monkeypatch.setattr(fable.cli, "file_sha256", counting)
        argv = ["diagnose", "--model", str(workspace["model"]),
                "--input", str(workspace["train"])]
        assert main([*argv, "--output", str(tmp_path / "d.json")]) == 0
        assert hashed == []
        manifest = tmp_path / "d.manifest.json"
        assert main([*argv, "--output", str(tmp_path / "d2.json"),
                     "--manifest", str(manifest)]) == 0
        assert load_manifest(manifest).inputs == {
            "input": {"path": str(workspace["train"]), "sha256": file_sha256(workspace["train"])},
            "model": {"path": str(workspace["model"]), "sha256": file_sha256(workspace["model"])},
        }
        assert main(["replay", "--manifest", str(manifest),
                     "--outdir", str(tmp_path / "replayed")]) == 0


class TestCliEmptyMatrix:
    """A FABLEMAT1 file with no rows or no columns, wherever a command
    reads a matrix, ends in one typed record and writes nothing."""

    @pytest.mark.parametrize("shape, error", [((0, 60), "TooFewRows"),
                                              ((100, 0), "DimensionMismatch")],
                             ids=["no-rows", "no-columns"])
    @pytest.mark.parametrize("command", ["fit", "diagnose", "oos-train", "oos-test"])
    def test_one_typed_record(self, workspace, tmp_path, capfd, command, shape, error):
        empty = str(tmp_path / "empty.mat")
        save_matrix(empty, np.zeros(shape))
        train, test = str(workspace["train"]), str(workspace["test"])
        oos = ["oos", "--targets", "0", "--k", "1", "--output", str(tmp_path / "r.json")]
        argv = {
            "fit": ["fit", "--input", empty, "--output", str(tmp_path / "m.bin")],
            "diagnose": ["diagnose", "--model", str(workspace["model"]), "--input", empty,
                         "--output", str(tmp_path / "r.json")],
            "oos-train": [*oos, "--input", empty, "--test", test],
            "oos-test": [*oos, "--input", train, "--test", empty],
        }[command]
        capfd.readouterr()
        assert main(argv) == 1
        out, err = capfd.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == error
        assert not any(tmp_path.glob("[mr].*"))


class TestCliOos:
    def test_matches_library_protocol(self, workspace, capsys):
        code = main(["oos", "--input", str(workspace["train"]),
                     "--test", str(workspace["test"]),
                     "--targets", "0-29", "--extras", "30-59", "--k", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        train_dm, kept = preprocess(workspace["train_values"])
        targets = list(range(30))
        extras = list(range(30, 60))
        test_rows = workspace["test_values"][:, kept][:, targets]
        want = oos_loglik(train_dm, test_rows, targets, extras, k=3)
        assert report["oos_loglik"] == want
        assert report["targets"] == 30 and report["extras"] == 30

    def test_one_row_test_set(self, workspace, tmp_path, capsys):
        # held-out rows are independent draws, so the two one-row scores
        # sum to the two-row one; only the train rows are centered
        def score(rows):
            path = tmp_path / f"test{len(rows)}-{rows[0]}.mat"
            save_matrix(path, workspace["test_values"][rows])
            code = main(["oos", "--input", str(workspace["train"]), "--test", str(path),
                         "--targets", "0-29", "--extras", "30-59", "--k", "3"])
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            assert report["n_test"] == len(rows)
            return report["oos_loglik"]

        both = score([0, 1])
        assert score([0]) + score([1]) == pytest.approx(both, rel=1e-12)

    @pytest.mark.parametrize("flag, indices", [("--targets", "0-60"), ("--extras", "30-99")])
    def test_index_outside_the_kept_columns(self, workspace, capsys, flag, indices):
        argv = ["oos", "--input", str(workspace["train"]), "--test", str(workspace["test"]),
                "--targets", "0-29", "--k", "3", flag, indices]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "IndexOutOfRange", "message": "index 60 outside [0, 60)"}

    def test_mismatched_columns(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        save_matrix(bad, np.random.default_rng(0).standard_normal((10, 7)))
        code = main(["oos", "--input", str(workspace["train"]),
                     "--test", str(bad), "--targets", "0-4"])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DimensionMismatch"
        assert "column counts" in record["message"]


class TestCliSimulate:
    def test_single_cell_tables(self, tmp_path, capsys):
        rec, summ = tmp_path / "rec.csv", tmp_path / "sum.csv"
        code = main(["simulate", "--n", "100", "--p", "60", "--k", "3",
                     "--replicates", "3", "--seed", "4", "--tracked", "12",
                     "--output-records", str(rec),
                     "--output-summaries", str(summ)])
        assert code == 0
        header, rows = read_csv_rows(summ)
        assert len(rows) == 1
        assert rows[0][0] == "n100_p60_k3"
        assert int(rows[0][4]) == 3  # replicates done
        _, rec_rows = read_csv_rows(rec)
        assert len(rec_rows) == 3
        assert "n100_p60_k3" in capsys.readouterr().out

    def test_seed_is_required(self):
        assert main(["simulate", "--n", "50", "--p", "20"]) == 2

    def test_needs_preset_or_dimensions(self, capsys):
        code = main(["simulate", "--seed", "1"])
        assert code == 1
        assert "preset" in json.loads(capsys.readouterr().err)["message"]

    SMALL = ["simulate", "--n", "20", "--p", "30", "--k", "2", "--replicates", "2",
             "--seed", "1", "--tracked", "5", "--threads", "1"]

    @pytest.mark.parametrize(
        "extra, error",
        [
            (["--alpha", "2"], "InvalidAlpha"),
            (["--interval-method", "sample_quantile", "--n-samples", "5"], "TooFewSamples"),
        ],
    )
    def test_every_replicate_failing_is_refused_up_front(self, tmp_path, capsys, extra, error):
        # these used to run every replicate into the same failure and
        # write an all-NaN summary with exit 0
        summ = tmp_path / "sum.csv"
        code = main([*self.SMALL, *extra, "--output-summaries", str(summ)])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert captured.out == ""
        assert not summ.exists()

    @pytest.mark.parametrize(
        "raised, message",
        [
            (MemoryError("Unable to allocate 745. PiB for an array"),
             "Unable to allocate 745. PiB for an array"),
            (MemoryError(), "out of memory"),
        ],
    )
    def test_out_of_memory_is_a_record(self, tmp_path, capsys, monkeypatch, raised, message):
        # never allocate for real: the machine may overcommit
        def exhausted(config, rng):
            raise raised

        monkeypatch.setattr(fable.simharness, "generate_truth", exhausted)
        summ = tmp_path / "sum.csv"
        code = main([*self.SMALL, "--output-summaries", str(summ)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record == {"error": "OutOfMemory", "message": message}
        assert issubclass(getattr(fable.errors, record["error"]), fable.errors.FableError)
        assert not summ.exists()


class TestCliBench:
    def test_table_with_log_columns(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--p-grid", "40,80", "--n", "50", "--k", "2",
                     "--n-samples", "20", "--repeats", "2",
                     "--output", str(out)])
        assert code == 0
        header, rows = read_csv_rows(out)
        assert header[:3] == ["n", "p", "n_samples"]
        assert len(rows) == 2
        for row in rows:
            fit_s = float(row[3])
            assert np.isclose(10.0 ** float(row[6]), fit_s, rtol=1e-10)


    def test_zero_repeats_refused(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--p-grid", "40", "--n", "50", "--k", "2",
                     "--n-samples", "20", "--repeats", "0", "--output", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "InvalidOption",
                          "message": "--repeats must be at least 1, got 0"}
        assert not out.exists()
        with pytest.raises(ValueError, match="repeats must be at least 1"):
            runtime_benchmark([40], n=50, k_true=2, n_samples=20, repeats=0)

    def test_zero_samples_refused_before_any_fit(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before n_samples was checked")

        monkeypatch.setattr(fable.simharness, "fit", no_fit)
        out = tmp_path / "bench.csv"
        code = main(["bench", "--p-grid", "40", "--n", "50", "--k", "2",
                     "--n-samples", "0", "--repeats", "1", "--output", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidSampleCount"
        assert not out.exists()


class TestCliReplay:
    def test_fit_replays_bit_identically(self, workspace, tmp_path, capsys):
        outdir = tmp_path / "replayed"
        code = main(["replay",
                     "--manifest", str(workspace["model"]) + ".manifest.json",
                     "--outdir", str(outdir)])
        assert code == 0
        assert "bit-identically" in capsys.readouterr().out
        assert (outdir / "model.bin").read_bytes() == workspace["model"].read_bytes()

    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "option=value"])
    def test_recorded_manifest_is_not_rewritten(self, workspace, tmp_path, capsys, joined):
        recorded = tmp_path / "m.json"
        paths = [("--output", str(tmp_path / "iv.csv")), ("--manifest", str(recorded))]
        flags = [f"{o}={v}" for o, v in paths] if joined else [x for pair in paths for x in pair]
        assert main(["intervals", "--model", str(workspace["model"]), "--indices", "0-4",
                     *flags]) == 0
        before = file_sha256(recorded)
        outdir = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(recorded), "--outdir", str(outdir)]) == 0
        assert file_sha256(recorded) == before
        replayed = load_manifest(outdir / "m.json")
        assert replayed.outputs["intervals"]["path"] == str(outdir / "iv.csv")

    def test_detects_changed_input(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((40, 10))
        input_path = tmp_path / "x.mat"
        save_matrix(input_path, data)
        model_path = tmp_path / "m.bin"
        assert main(["fit", "--input", str(input_path), "--k", "2",
                     "--output", str(model_path)]) == 0
        save_matrix(input_path, rng.standard_normal((40, 10)))
        code = main(["replay", "--manifest", str(model_path) + ".manifest.json",
                     "--outdir", str(tmp_path / "r")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "differ" in record["message"]

    def test_mismatch_names_a_changed_text_input(self, tmp_path, monkeypatch, capsys):
        # values moved in their seventh digit: the settings match, the input does not
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        values = np.random.default_rng(12).standard_normal((40, 200))
        input_path = tmp_path / "x.csv"

        def write(rows):
            input_path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))

        write(values.tolist())
        model_path = tmp_path / "m.bin"
        assert main(["fit", "--input", str(input_path), "--k", "3",
                     "--output", str(model_path)]) == 0
        manifest_path = Path(str(model_path) + ".manifest.json")
        assert main(["replay", "--manifest", str(manifest_path),
                     "--outdir", str(tmp_path / "same")]) == 0
        write((values * 1.0000001).tolist())
        record = self.replay_error(manifest_path, tmp_path, capsys)
        version = f"fable {fable.__version__}"
        assert record == {
            "error": "ReplayMismatch",
            "message": f"replay outputs differ from manifest for: model (input {input_path} "
                       f"changed since it was recorded; recorded with {version}, "
                       f"OPENBLAS_NUM_THREADS=1; replayed with {version}, "
                       f"OPENBLAS_NUM_THREADS=1)",
        }

    @staticmethod
    def settings():
        version = f"fable {fable.__version__}"
        return (f"recorded with {version}, OPENBLAS_NUM_THREADS=1; "
                f"replayed with {version}, OPENBLAS_NUM_THREADS=1")

    @staticmethod
    def fit_to(model_path, values):
        data = model_path.with_suffix(".mat")
        save_matrix(data, values)
        assert main(["fit", "--input", str(data), "--k", "3", "--output", str(model_path)]) == 0
        return data

    def test_mismatch_names_a_changed_model(self, tmp_path, monkeypatch, capsys):
        # the model refitted from other data to the same path
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        rng = np.random.default_rng(14)
        model_path = tmp_path / "m.fable"
        self.fit_to(model_path, rng.standard_normal((40, 200)))
        manifest_path = tmp_path / "s.json"
        assert main(["sample", "--model", str(model_path), "--n-samples", "3", "--seed", "5",
                     "--output", str(tmp_path / "s.bin"), "--manifest", str(manifest_path)]) == 0
        self.fit_to(model_path, rng.standard_normal((40, 200)))
        record = self.replay_error(manifest_path, tmp_path, capsys)
        assert record == {
            "error": "ReplayMismatch",
            "message": f"replay outputs differ from manifest for: samples (input {model_path} "
                       f"changed since it was recorded; {self.settings()})",
        }

    def test_mismatch_names_a_changed_test_set(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        rng = np.random.default_rng(15)
        train, test = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(train, rng.standard_normal((40, 200)))
        test_values = rng.standard_normal((10, 200))
        save_matrix(test, test_values)
        manifest_path = tmp_path / "o.json"
        assert main(["oos", "--input", str(train), "--test", str(test), "--targets", "0-49",
                     "--k", "3", "--output", str(tmp_path / "r.json"),
                     "--manifest", str(manifest_path)]) == 0
        save_matrix(test, test_values * 1.0000001)
        record = self.replay_error(manifest_path, tmp_path, capsys)
        assert record["message"] == (
            f"replay outputs differ from manifest for: report (input {test} changed since it "
            f"was recorded; {self.settings()})"
        )

    def test_mismatch_names_each_changed_input_in_role_order(self, tmp_path, monkeypatch,
                                                            capsys):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        rng = np.random.default_rng(16)
        model_path = tmp_path / "m.fable"
        data = self.fit_to(model_path, rng.standard_normal((40, 200)))
        manifest_path = tmp_path / "d.json"
        assert main(["diagnose", "--model", str(model_path), "--input", str(data),
                     "--output", str(tmp_path / "d.out"), "--manifest", str(manifest_path)]) == 0
        assert set(load_manifest(manifest_path).inputs) == {"input", "model"}
        self.fit_to(model_path, rng.standard_normal((40, 200)))  # rewrites both
        record = self.replay_error(manifest_path, tmp_path, capsys)
        assert record["message"] == (
            f"replay outputs differ from manifest for: report (input {data} changed since it "
            f"was recorded; input {model_path} changed since it was recorded; "
            f"{self.settings()})"
        )

    def test_mismatch_names_a_changed_input_of_a_0_5_8_manifest(self, tmp_path, monkeypatch,
                                                                capsys):
        # fable 0.5.8 recorded the hash of --input alone, as input_sha256
        path = self.recorded_fit(tmp_path, monkeypatch, "1")
        payload = json.loads(path.read_text())
        payload["input_sha256"] = payload.pop("inputs")["input"]["sha256"]
        payload["software_version"] = "0.5.8"
        path.write_text(json.dumps(payload))
        input_path = tmp_path / "x.mat"
        save_matrix(input_path, np.random.default_rng(10).standard_normal((40, 10)))
        record = self.replay_error(path, tmp_path, capsys)
        version = f"fable {fable.__version__}"
        assert record["message"] == (
            f"replay outputs differ from manifest for: model (input {input_path} changed since "
            f"it was recorded; recorded with fable 0.5.8, OPENBLAS_NUM_THREADS=1; "
            f"replayed with {version}, OPENBLAS_NUM_THREADS=1)"
        )

    @staticmethod
    def recorded_fit(tmp_path, monkeypatch, blas_threads):
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        input_path = tmp_path / "x.mat"
        save_matrix(input_path, np.random.default_rng(9).standard_normal((40, 10)))
        model_path = tmp_path / "m.bin"
        assert main(["fit", "--input", str(input_path), "--k", "2",
                     "--output", str(model_path)]) == 0
        return Path(str(model_path) + ".manifest.json")

    @staticmethod
    def replay_error(manifest_path, tmp_path, capsys):
        capsys.readouterr()
        code = main(["replay", "--manifest", str(manifest_path),
                     "--outdir", str(tmp_path / "r")])
        assert code == 1
        return json.loads(capsys.readouterr().err.strip().splitlines()[-1])

    def test_manifest_records_blas_threads(self, tmp_path, monkeypatch):
        path = self.recorded_fit(tmp_path, monkeypatch, "1")
        assert json.loads(path.read_text())["openblas_num_threads"] == "1"
        path = self.recorded_fit(tmp_path, monkeypatch, None)
        assert load_manifest(path).openblas_num_threads == ""

    def test_mismatch_names_both_versions(self, tmp_path, monkeypatch, capsys):
        # a manifest written by an earlier version, without the BLAS
        # setting, whose model bytes this version does not reproduce
        path = self.recorded_fit(tmp_path, monkeypatch, "1")
        payload = json.loads(path.read_text())
        payload["software_version"] = "0.1.0"
        del payload["openblas_num_threads"]
        payload["outputs"]["model"]["sha256"] = "0" * 64
        path.write_text(json.dumps(payload))
        assert load_manifest(path).openblas_num_threads is None
        record = self.replay_error(path, tmp_path, capsys)
        assert record["error"] == "ReplayMismatch"
        assert record["message"] == (
            "replay outputs differ from manifest for: model "
            "(recorded with fable 0.1.0, OPENBLAS_NUM_THREADS not recorded; "
            f"replayed with fable {fable.__version__}, OPENBLAS_NUM_THREADS=1)"
        )

    def test_version_is_the_packages(self):
        # replay names this version, so the package metadata must carry it
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        versions = [line.split("=", 1)[1].strip() for line in project.splitlines()
                    if line.split("=", 1)[0].strip() == "version"]
        assert versions == [f'"{fable.__version__}"']

    def test_mismatch_names_both_blas_settings(self, tmp_path, monkeypatch, capsys):
        path = self.recorded_fit(tmp_path, monkeypatch, "1")
        payload = json.loads(path.read_text())
        payload["outputs"]["model"]["sha256"] = "0" * 64
        path.write_text(json.dumps(payload))
        version = f"fable {fable.__version__}"
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        record = self.replay_error(path, tmp_path, capsys)
        assert record["error"] == "ReplayMismatch"
        assert record["message"].endswith(
            f"(recorded with {version}, OPENBLAS_NUM_THREADS=1; "
            f"replayed with {version}, OPENBLAS_NUM_THREADS=2)"
        )
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        record = self.replay_error(path, tmp_path, capsys)
        assert record["message"].endswith(f"replayed with {version}, OPENBLAS_NUM_THREADS=unset)")

    def test_manifest_without_blas_setting_replays(self, tmp_path, monkeypatch, capsys):
        path = self.recorded_fit(tmp_path, monkeypatch, "1")
        payload = json.loads(path.read_text())
        del payload["openblas_num_threads"]
        path.write_text(json.dumps(payload))
        assert main(["replay", "--manifest", str(path), "--outdir", str(tmp_path / "r")]) == 0
        assert "bit-identically" in capsys.readouterr().out

    def test_outputs_sharing_a_name_replay_apart(self, workspace, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        man = tmp_path / "mm.json"
        assert main(["mean", "--model", str(workspace["model"]), "--form", "factored",
                     "--output-loadings", str(tmp_path / "a" / "out.bin"),
                     "--output-noise", str(tmp_path / "b" / "out.bin"),
                     "--manifest", str(man)]) == 0
        outdir = tmp_path / "rr"
        assert main(["replay", "--manifest", str(man), "--outdir", str(outdir)]) == 0
        assert "2 output(s)" in capsys.readouterr().out
        assert (outdir / "1-out.bin").read_bytes() == (tmp_path / "a" / "out.bin").read_bytes()
        assert (outdir / "2-out.bin").read_bytes() == (tmp_path / "b" / "out.bin").read_bytes()
        assert (outdir / "mm.json").exists()

    def test_manifest_sharing_the_report_name_replays(self, workspace, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        report, man = tmp_path / "a" / "d.json", tmp_path / "b" / "d.json"
        assert main(["diagnose", "--model", str(workspace["model"]),
                     "--input", str(workspace["train"]),
                     "--output", str(report), "--manifest", str(man)]) == 0
        outdir = tmp_path / "rr"
        assert main(["replay", "--manifest", str(man), "--outdir", str(outdir)]) == 0
        assert "1 output(s)" in capsys.readouterr().out
        assert (outdir / "1-d.json").read_bytes() == report.read_bytes()
        assert load_manifest(outdir / "2-d.json").outputs["report"]["path"] == str(
            outdir / "1-d.json"
        )

    def test_sample_replay(self, workspace, tmp_path, capsys):
        out = tmp_path / "s.bin"
        man = tmp_path / "s.manifest.json"
        assert main(["sample", "--model", str(workspace["model"]),
                     "--n-samples", "3", "--seed", "5",
                     "--output", str(out), "--manifest", str(man)]) == 0
        code = main(["replay", "--manifest", str(man),
                     "--outdir", str(tmp_path / "r")])
        assert code == 0
        assert "1 output(s)" in capsys.readouterr().out


def scipy_modules_after(statements: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after ``statements``."""
    src = str(Path(fable.__file__).resolve().parents[1])
    code = (
        f"import json, sys\n{statements}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def startup_table() -> dict[str, set[str]]:
    """README's "Start-up" table: each row's command, and the scipy
    modules the row names."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Start-up\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            command, loaded = line.strip("|").split("|")[:2]
            rows[command.strip().strip("`")] = set(re.findall(r"`(scipy\.\w+)`", loaded))
    return rows


# the rest of each row's argv: the files and small sizes it runs on
STARTUP_ARGS = {
    "fit": ["--input", "{train}", "--output", "{tmp}/m.bin"],
    "fit --rho-strategy sup_b": ["--input", "{train}", "--output", "{tmp}/m.bin"],
    "fit --rho-strategy solve_mean_coverage": ["--input", "{train}", "--output", "{tmp}/m.bin"],
    "mean --form factored": ["--model", "{model}", "--output-loadings", "{tmp}/g.mat",
                             "--output-noise", "{tmp}/d.mat"],
    "mean --form dense_entrywise": ["--model", "{model}", "--indices", "0-3",
                                    "--output", "{tmp}/mean.csv"],
    "intervals --method asymptotic": ["--model", "{model}", "--indices", "0-3",
                                      "--output", "{tmp}/iv.csv"],
    "intervals --method sample_quantile": ["--model", "{model}", "--indices", "0-3",
                                           "--n-samples", "100", "--seed", "3",
                                           "--output", "{tmp}/iv.csv"],
    "sample": ["--model", "{model}", "--n-samples", "2", "--seed", "3",
               "--output", "{tmp}/s.bin"],
    "bench": ["--p-grid", "40", "--n", "50", "--k", "2", "--n-samples", "20",
              "--repeats", "1"],
    "diagnose": ["--model", "{model}", "--input", "{train}", "--output", "{tmp}/d.json"],
    "oos": ["--input", "{train}", "--test", "{test}", "--targets", "0-9",
            "--extras", "10-19", "--k", "2", "--output", "{tmp}/o.json"],
    "simulate": ["--n", "60", "--p", "30", "--k", "2", "--replicates", "1",
                 "--seed", "4", "--tracked", "5"],
    "simulate --interval-method sample_quantile": [
        "--n", "60", "--p", "30", "--k", "2", "--replicates", "1", "--seed", "4",
        "--tracked", "5", "--n-samples", "100"],
}


class TestStartupImports:
    # importing a scipy submodule costs each process 0.16-0.25 s; only
    # the commands that compute with it may load it (see fable._special)
    def test_cli_import_stays_light(self):
        assert scipy_modules_after("import fable") == []
        assert scipy_modules_after("import fable.cli") == []

    def test_package_root_holds_only_the_version(self):
        # each name has one path: fable.linalg.<name>, fable.errors.FableError
        src = str(Path(fable.__file__).resolve().parents[1])
        code = ("import fable; assert fable.__version__\n"
                "print(sorted(n for n in vars(fable) if not n.startswith('_')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "[]"

    def test_table_lists_every_command(self):
        assert set(startup_table()) == set(STARTUP_ARGS)
        commands = {row.split()[0] for row in STARTUP_ARGS}
        subs = next(a for a in fable.cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        assert commands == set(subs.choices) - {"replay"}

    @pytest.mark.parametrize("row", sorted(STARTUP_ARGS))
    def test_loads_what_the_table_says(self, row, workspace, tmp_path):
        names = {"train": workspace["train"], "test": workspace["test"],
                 "model": workspace["model"], "tmp": tmp_path}
        argv = row.split() + [arg.format(**names) for arg in STARTUP_ARGS[row]]
        loaded = scipy_modules_after(f"from fable.cli import main\nassert main({argv!r}) == 0")
        want = startup_table()[row]
        if not want:
            assert loaded == []
        # the public subpackages, not scipy's private helpers and version
        public = {".".join(m.split(".")[:2]) for m in loaded
                  if m.count(".") and not m.split(".")[1].startswith("_")}
        assert public - {"scipy.version"} == want


class TestTypedRefusals:
    """A refused option or argument ends as one InvalidOption record."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--filter-fraction", "0"], "filter fraction"),
            (["fit", "--filter-fraction", "nan"], "filter fraction"),
            (["fit", "--tau-sq", "0"], "tau_sq"),
            (["fit", "--gamma0", "-1"], "gamma0"),
            (["sample", "--n-samples", "2", "--seed", "-1"], "seed"),
            (["sample", "--n-samples", "2", "--seed", "1", "--rho", "-1"], "rho"),
            (["sample", "--n-samples", "2", "--seed", "1", "--rho", "nan"], "rho"),
            (["sample", "--n-samples", "2", "--seed", "1", "--rho", "1e200"], "rho"),
            (["sample", "--n-samples", "2", "--seed", "1", "--threads", "0"], "--threads"),
            (["intervals", "--indices", "5-3"], "decreasing range"),
            (["intervals", "--indices", ","], "no indices"),
            (["intervals", "--indices", "0-x"], "integer"),
            (["intervals", "--indices", "0-2", "--method", "sample_quantile"], "--seed"),
            (["intervals", "--indices", "0-2", "--method", "sample_quantile",
              "--seed", "1"], "--n-samples"),
            (["mean", "--form", "dense_entrywise"], "--indices"),
            (["simulate", "--seed", "1"], "--preset"),
            (["simulate", "--seed", "1", "--n", "30", "--p", "20", "--replicates", "0"],
             "replicates"),
            (["bench", "--p-grid", "10:5:1"], "grid bounds"),
            (["bench", "--p-grid", "ten"], "integer"),
            (["bench", "--p-grid", ""], "no grid sizes"),
            (["bench", "--p-grid", ","], "no grid sizes"),
            (["bench", "--p-grid", str(10**30), "--n", "12", "--repeats", "1"],
             "too large"),
            (["simulate", "--n", "20", "--p", str(10**30), "--replicates", "1",
              "--seed", "1", "--tracked", "5", "--threads", "1"], "too large"),
            (["simulate", "--n", "20", "--p", str(2 * 10**17), "--replicates", "1",
              "--seed", "1", "--tracked", "5", "--threads", "1"], "too large"),
            (["simulate", "--n", "20", "--p", "30", "--k", "2", "--replicates", "1",
              "--seed", "-1", "--tracked", "5", "--threads", "1"], "seed"),
            (["bench", "--p-grid", "40", "--n", "20", "--k", "2", "--n-samples", "5",
              "--repeats", "1", "--seed", "-1"], "seed"),
        ],
    )
    def test_refusal_is_invalid_option(self, workspace, tmp_path, capsys, argv, message):
        command, rest = argv[0], argv[1:]
        paths = {
            "fit": ["--input", str(workspace["train"]), "--k", "3"],
            "sample": ["--model", str(workspace["model"])],
            "intervals": ["--model", str(workspace["model"])],
            "mean": ["--model", str(workspace["model"])],
        }.get(command, [])
        out = tmp_path / "out"
        output = [] if command == "simulate" else ["--output", str(out)]
        code = main([command, *paths, *rest, *output])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InvalidOption"
        assert message in record["message"]
        assert not out.exists()

    def test_invalid_option_is_a_value_error(self):
        with pytest.raises(ValueError, match="decreasing"):
            parse_indices("5-3", 10)
        with pytest.raises(InvalidOption, match="integer"):
            parse_indices("1,x", 10)

    def test_replay_of_no_argv_is_a_parse_error(self, tmp_path, capsys):
        path = TestManifest.malformed(tmp_path, lambda m: m.update(config={}))
        code = main(["replay", "--manifest", str(path), "--outdir", str(tmp_path / "o")])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError"
        assert "no argv" in record["message"]

    def test_measured_file_not_rewritten_is_a_mismatch(self, workspace, tmp_path, capsys):
        def no_table(m):
            m["command"] = "mean"
            m["config"]["argv"] = ["mean", "--model", str(workspace["model"]),
                                   "--output-loadings", str(tmp_path / "l.mat"),
                                   "--output-noise", str(tmp_path / "d.mat")]
            m["outputs"] = {}

        path = TestManifest.malformed(tmp_path, no_table)
        code = main(["replay", "--manifest", str(path), "--outdir", str(tmp_path / "o")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ReplayMismatch"
        assert "did not rewrite measured file(s): table" in record["message"]


class TestThreadsEnv:
    def test_default_is_the_cpus_the_pool_is_capped_by(self, monkeypatch):
        def default_threads():
            args = argparse.Namespace(threads=None)
            fable.cli._validate(args)
            return args.threads

        assert default_threads() == fable.sampler._cpu_count()
        monkeypatch.setattr(fable.cli, "_cpu_count", lambda: 3)
        assert default_threads() == 3


class TestBenchmarkContract:
    """perfbench injects faults into fable and traces it by the names of
    its functions; these runs fail when a change to fable's public
    surface breaks either."""

    ROOT = Path(__file__).resolve().parents[1]

    def run(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(self.ROOT / "src"),
               "OPENBLAS_NUM_THREADS": "1"}
        return subprocess.run([sys.executable, *argv], cwd=self.ROOT, env=env,
                              capture_output=True, text=True, timeout=600)

    def test_selftest_passes(self):
        proc = self.run("perfbench/selftest.py")
        assert proc.returncode == 0, proc.stderr[-4000:]

    def trace(self, tmp_path, *command):
        """The spans and counts of one traced fable command."""
        spans = tmp_path / "spans.json"
        proc = self.run("perfbench/tracing.py", "--spans", str(spans), "--pass", "0",
                        "--", *command)
        assert proc.returncode == 0, proc.stderr[-4000:]
        return json.loads(spans.read_text())

    def test_tracer_records_cli_main(self, tmp_path):
        names = {span["name"] for span in self.trace(tmp_path, "--version")["spans"]}
        assert "cli.main" in names

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_traced_sample_spans_every_draw(self, workspace, tmp_path, threads):
        traced = self.trace(tmp_path, "sample", "--model", str(workspace["model"]),
                            "--n-samples", "7", "--seed", "3", "--threads", threads,
                            "--output", str(tmp_path / "draws.bin"))
        names = [span["name"] for span in traced["spans"]]
        assert names.count("sampler.draw_sample") == 7
        assert traced["counts"]["sampler.rows_scored"] == 7 * 60  # every row of each draw

    def test_traced_sample_quantile_intervals(self, workspace, tmp_path):
        # three distinct rows, each scored once per draw
        traced = self.trace(tmp_path, "intervals", "--model", str(workspace["model"]),
                            "--indices", "4,17,42", "--method", "sample_quantile",
                            "--n-samples", "120", "--seed", "3", "--threads", "2",
                            "--output", str(tmp_path / "iv.csv"))
        names = [span["name"] for span in traced["spans"]]
        assert names.count("sampler.sample_entry_stats") == 1
        assert traced["counts"]["sampler.rows_scored"] == 3 * 120
        assert traced["counts"]["sampler.rows_transformed"] == 3 * 120
