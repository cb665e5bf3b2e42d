"""Tests for file formats and the command-line pipeline."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import fable
from fable.cli import main, parse_indices, _parse_p_grid
from fable.errors import (
    MagicMismatch,
    NegativeCount,
    NonFinite,
    ParseError,
    ShapeError,
)
from fable.inference import credible_intervals, oos_loglik
from fable.io import (
    MODEL_MAGIC,
    LoadedMatrix,
    RunManifest,
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
from fable.linalg import DataMatrix, center_columns
from fable.model import fit
from fable.sampler import RngSpec, draw_samples, posterior_mean

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

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1\n")
        with pytest.raises(ValueError, match="format"):
            load_matrix(path, format="parquet")


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

    def test_auto_sniffs_binary(self, tmp_path):
        path = tmp_path / "x.dat"
        save_matrix(path, np.eye(2))
        loaded = load_matrix(path, format="auto")
        npt.assert_array_equal(loaded.values, np.eye(2))

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "x.mat"
        path.write_bytes(b"NOTAMAGIC" + b"\x00" * 32)
        with pytest.raises(MagicMismatch):
            load_matrix(path, format="raw_binary")

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "x.mat"
        save_matrix(path, np.eye(3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ShapeError, match="body"):
            load_matrix(path)


class TestPreprocess:
    def test_log2_plus_one(self):
        dm, kept = preprocess(
            np.array([[0.0, 1.0, 3.0], [1.0, 3.0, 7.0]]),
            transform="log2_plus_one",
            center=False,
        )
        npt.assert_array_equal(dm.values, [[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
        npt.assert_array_equal(kept, [0, 1, 2])

    def test_negative_count_rejected(self):
        with pytest.raises(NegativeCount):
            preprocess(np.array([[-1.0, 2.0], [0.0, 1.0]]),
                       transform="log2_plus_one")

    def test_fraction_one_keeps_everything_in_order(self):
        values = np.random.default_rng(1).standard_normal((10, 6))
        dm, kept = preprocess(values, center=False)
        npt.assert_array_equal(kept, np.arange(6))
        npt.assert_array_equal(dm.values, values)

    def test_top_fraction_count_and_dominance(self):
        # ceil(0.1 * 5300) must be exactly 530 despite float fuzz
        rng = np.random.default_rng(2)
        values = rng.standard_normal((40, 5300)) * rng.uniform(0.1, 3.0, 5300)
        dm, kept = preprocess(values, filter_top_variance_fraction=0.1,
                              center=False)
        assert len(kept) == 530
        assert dm.p == 530
        variances = values.var(axis=0, ddof=1)
        dropped = np.setdiff1d(np.arange(5300), kept)
        assert variances[kept].min() >= variances[dropped].max()

    def test_ceil_rounds_up(self):
        values = np.random.default_rng(3).standard_normal((8, 10))
        _, kept = preprocess(values, filter_top_variance_fraction=0.34,
                             center=False)
        assert len(kept) == 4  # ceil(3.4)

    def test_variance_ties_keep_lower_index(self):
        base = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        values = np.hstack([base, base, base])
        _, kept = preprocess(values, filter_top_variance_fraction=0.5,
                             center=False)
        npt.assert_array_equal(kept, [0, 1])

    def test_kept_map_points_at_originals(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((30, 5))
        values[:, 3] *= 10.0  # dominant variance
        dm, kept = preprocess(values, filter_top_variance_fraction=0.2,
                              center=False)
        npt.assert_array_equal(kept, [3])
        npt.assert_array_equal(dm.values[:, 0], values[:, 3])

    def test_centering_flag(self):
        values = np.random.default_rng(5).standard_normal((12, 4)) + 7.0
        centered, _ = preprocess(values)
        assert centered.centered
        npt.assert_allclose(centered.values.mean(axis=0), 0.0, atol=1e-12)
        uncentered, _ = preprocess(values, center=False)
        assert not uncentered.centered

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
        path = tmp_path / "s.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(MagicMismatch):
            list(load_samples(path, format="binary"))


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
            input_sha256="ab" * 32,
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


class TestArgParsing:
    def test_parse_indices(self):
        assert parse_indices("0,5,10-12") == [0, 5, 10, 11, 12]
        assert parse_indices("3") == [3]

    def test_parse_indices_errors(self):
        with pytest.raises(ValueError, match="decreasing"):
            parse_indices("5-3")
        with pytest.raises(ValueError, match="no indices"):
            parse_indices(",")

    def test_parse_p_grid(self):
        assert _parse_p_grid("500:2000:500") == [500, 1000, 1500, 2000]
        assert _parse_p_grid("50,100") == [50, 100]

    def test_parse_p_grid_errors(self):
        with pytest.raises(ValueError):
            _parse_p_grid("10:5:1")
        with pytest.raises(ValueError):
            _parse_p_grid("1:2:3:4")


class TestCliFit:
    def test_artifact_and_manifest_written(self, workspace):
        model = load_model(workspace["model"])
        assert model.k == 3
        manifest = load_manifest(str(workspace["model"]) + ".manifest.json")
        assert manifest.command == "fit"
        assert manifest.resolved["k"] == 3
        assert manifest.input_sha256 == file_sha256(workspace["train"])
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

    def test_usage_error_exits_two(self):
        assert main(["fit", "--output", "x.bin"]) == 2
        assert main([]) == 2

    @pytest.mark.parametrize("flag", [["--svd-method", "exact"], ["--seed", "0"]])
    @pytest.mark.parametrize("command", ["fit", "oos"])
    def test_removed_svd_flags_are_usage_errors(self, workspace, tmp_path, command, flag):
        # the SVD is always exact and unseeded; fit and oos take neither flag
        argv = [command, "--input", str(workspace["train"]), "--k", "3",
                "--output", str(tmp_path / "out")]
        if command == "oos":
            argv += ["--test", str(workspace["test"]), "--targets", "0-29"]
        assert main(argv) == 0
        assert main(argv + flag) == 2


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
        assert "--threads" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()


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
        want = posterior_mean(model, form="dense_entrywise",
                              indices=[(0, 0), (0, 2), (2, 2)])
        header, rows = read_csv_rows(out)
        assert header == ["u", "v", "mean"]
        got = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert got == {k: float(v) for k, v in want.items()}

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
        test_block = DataMatrix(workspace["test_values"][:, kept][:, targets])
        want = oos_loglik(train_dm, test_block, targets, extras, k=3)
        assert report["oos_loglik"] == want
        assert report["targets"] == 30 and report["extras"] == 30

    def test_mismatched_columns(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        save_matrix(bad, np.random.default_rng(0).standard_normal((10, 7)))
        code = main(["oos", "--input", str(workspace["train"]),
                     "--test", str(bad), "--targets", "0-4"])
        assert code == 1
        assert "column counts" in json.loads(capsys.readouterr().err)["message"]


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


class TestCliReplay:
    def test_fit_replays_bit_identically(self, workspace, tmp_path, capsys):
        outdir = tmp_path / "replayed"
        code = main(["replay",
                     "--manifest", str(workspace["model"]) + ".manifest.json",
                     "--outdir", str(outdir)])
        assert code == 0
        assert "bit-identically" in capsys.readouterr().out
        assert (outdir / "model.bin").read_bytes() == workspace["model"].read_bytes()

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


class TestStartupImports:
    # importing scipy costs each process about 0.4 s; only the commands
    # that compute with it may load it (see fable._special)
    def test_cli_import_stays_light(self):
        assert scipy_modules_after("import fable") == []
        assert scipy_modules_after("import fable.cli") == []

    def run_main(self, argv):
        return scipy_modules_after(
            f"from fable.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"
        )

    def test_fit_mean_and_asymptotic_intervals_load_no_scipy(self, workspace, tmp_path):
        model = tmp_path / "m.bin"
        assert self.run_main(["fit", "--input", workspace["train"], "--output", model]) == []
        assert self.run_main(["mean", "--model", model, "--form", "factored",
                              "--output-loadings", tmp_path / "g.mat",
                              "--output-noise", tmp_path / "d.mat"]) == []
        assert self.run_main(["intervals", "--model", model, "--indices", "0-3",
                              "--method", "asymptotic",
                              "--output", tmp_path / "iv.csv"]) == []

    def test_solve_mean_coverage_loads_no_optimizer(self, workspace, tmp_path):
        loaded = self.run_main(["fit", "--input", workspace["train"],
                                "--rho-strategy", "solve_mean_coverage",
                                "--output", tmp_path / "m.bin"])
        assert "scipy.special" in loaded
        assert not any(m.startswith("scipy.optimize") for m in loaded)

    def test_sampling_commands_load_scipy_special(self, workspace, tmp_path):
        sample = self.run_main(["sample", "--model", workspace["model"],
                                "--n-samples", "2", "--seed", "3",
                                "--output", tmp_path / "s.bin"])
        intervals = self.run_main(["intervals", "--model", workspace["model"],
                                   "--indices", "0-3", "--method", "sample_quantile",
                                   "--n-samples", "100", "--seed", "3",
                                   "--output", tmp_path / "iv.csv"])
        assert "scipy.special" in sample
        assert "scipy.special" in intervals


class TestThreadsEnv:
    def test_env_fallback_applies(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("FABLE_THREADS", "2")
        a = tmp_path / "a.bin"
        assert main(["sample", "--model", str(workspace["model"]),
                     "--n-samples", "4", "--seed", "21",
                     "--output", str(a)]) == 0
        monkeypatch.delenv("FABLE_THREADS")
        b = tmp_path / "b.bin"
        assert main(["sample", "--model", str(workspace["model"]),
                     "--n-samples", "4", "--seed", "21",
                     "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_env_is_an_error(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FABLE_THREADS", "lots")
        code = main(["sample", "--model", str(workspace["model"]),
                     "--n-samples", "2", "--seed", "1",
                     "--output", str(tmp_path / "s.bin")])
        assert code == 1
        assert "FABLE_THREADS" in json.loads(capsys.readouterr().err)["message"]


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

    def test_tracer_records_cli_main(self, tmp_path):
        spans = tmp_path / "spans.json"
        proc = self.run("perfbench/tracing.py", "--spans", str(spans), "--pass", "0",
                        "--", "--version")
        assert proc.returncode == 0, proc.stderr[-4000:]
        names = {span["name"] for span in json.loads(spans.read_text())["spans"]}
        assert "cli.main" in names
