"""Property tests for the file readers: FABLEMAT1 matrices, delimited
text matrices, model artifacts, sample streams (FABLESAMP1 and the
text variant), and run manifests.

None of the formats stores a checksum, so a flipped payload byte loads
as a different float. What a damaged file must never do is escape as
anything but a :class:`FableError`: it either loads or raises one. A
truncated matrix or model is always rejected; a truncated sample stream
loads only when it was cut at a record boundary, and then it holds an
exact prefix of the records. A damaged manifest either loads or raises
one, and ``fable replay`` on it exits 0, 1 with one JSON record naming
a FableError (or, for a path that no longer names a file, an OSError),
or 2 for a usage error; it never raises.
"""

import builtins
import contextlib
import io
import json
import os
import struct
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fable.errors
from fable.cli import main
from fable.errors import FableError, ParseError, ShapeError
from fable.io import (
    MATRIX_MAGIC,
    MODEL_MAGIC,
    SAMPLE_MAGIC,
    LoadedMatrix,
    _load_samples_text,
    load_manifest,
    load_matrix,
    load_model,
    load_samples,
    save_matrix,
    save_model,
    save_samples,
)
from fable.linalg import center_columns
from fable.model import FableModel, fit
from fable.sampler import CovarianceSample, RngSpec, draw_samples

from test_model import make_factor_data

FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    _, _, y = make_factor_data(20, 6, 2, seed=91)
    model = fit(center_columns(y), k=2)
    save_model(root / "model.bin", model)
    save_matrix(root / "matrix.mat", y[:4, :3])
    save_samples(root / "samples.bin", draw_samples(model, 3, RngSpec(5)))
    save_samples(root / "samples.txt", draw_samples(model, 2, RngSpec(5)), format="text")
    return {
        "root": root,
        "model": (root / "model.bin").read_bytes(),
        "matrix": (root / "matrix.mat").read_bytes(),
        "samples": (root / "samples.bin").read_bytes(),
        "samples_text": (root / "samples.txt").read_bytes(),
        "records": list(load_samples(root / "samples.bin")),
    }


def load_damaged(originals, name, data, loader):
    """Write ``data`` over a scratch file and read it back: the loaded
    value, or None when the reader raised a FableError."""
    path = originals["root"] / f"damaged-{name}"
    path.write_bytes(bytes(data))
    try:
        return loader(path)
    except FableError:
        return None


def flipped(raw, position, mask):
    out = bytearray(raw)
    out[position % len(raw)] ^= mask
    return out


def overwritten(raw, offset, word):
    out = bytearray(raw)
    out[offset : offset + 8] = struct.pack("<Q", word)
    return out


def same_records(got, want):
    return len(got) == len(want) and all(
        a.index == b.index
        and a.loadings.tobytes() == b.loadings.tobytes()
        and a.noise_sq.tobytes() == b.noise_sq.tobytes()
        for a, b in zip(got, want)
    )


def read_samples(path):
    return list(load_samples(path))


def read_text_samples(path):
    return list(_load_samples_text(path))


def reference_parse_delimited(text, path):
    """The delimited-text reader as it was before the body went to
    ``np.loadtxt``: every cell through Python's ``float``, one by one.
    The oracle for :func:`load_matrix` on text."""

    def _float(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: no data rows")
    sniff = next((ln for ln in lines if "\t" in ln or "," in ln), "")
    delim = "\t" if "\t" in sniff else ","
    rows = [ln.split(delim) for ln in lines]

    numeric = [_float(cell) is not None for cell in rows[0]]
    col_labels = None
    has_row_labels = False
    if len(numeric) > 1 and not numeric[0] and all(numeric[1:]):
        has_row_labels = True
    elif not all(numeric):
        col_labels = tuple(cell.strip() for cell in rows[0])
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")
        has_row_labels = _float(rows[0][0]) is None

    row_labels = None
    if has_row_labels:
        row_labels = tuple(r[0].strip() for r in rows)
        rows = [r[1:] for r in rows]
        if not rows[0]:
            raise ParseError(f"{path}: no numeric columns after the labels")
        if col_labels is not None and len(col_labels) == len(rows[0]) + 1:
            col_labels = col_labels[1:]

    width = len(rows[0])
    body_offset = 2 if col_labels is not None else 1
    values = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ShapeError(
                f"{path}: row {i + body_offset} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            val = _float(cell)
            if val is None:
                col = j + (2 if row_labels is not None else 1)
                raise ParseError(
                    f"{path}: line {i + body_offset}, column {col}: "
                    f"could not parse {cell.strip()!r}"
                )
            values[i, j] = val
    return LoadedMatrix(values, row_labels, col_labels)


positions = st.integers(0, 10_000)
masks = st.integers(1, 255)
words = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 64))


class TestMatrixReader:
    @FUZZ
    @given(cut=st.integers(0, 10_000))
    def test_truncation_is_rejected(self, originals, cut):
        raw = originals["matrix"]
        got = load_damaged(
            originals, "matrix", raw[: cut % len(raw)], load_matrix
        )
        assert got is None

    @FUZZ
    @given(position=positions, mask=masks)
    def test_flip_loads_or_raises(self, originals, position, mask):
        got = load_damaged(
            originals, "matrix", flipped(originals["matrix"], position, mask), load_matrix
        )
        assert got is None or isinstance(got, LoadedMatrix)

    @FUZZ
    @given(dim=st.sampled_from([0, 1]), word=words)
    def test_dimension_overwrite_loads_or_raises(self, originals, dim, word):
        raw = overwritten(originals["matrix"], len(MATRIX_MAGIC) + 8 * dim, word)
        got = load_damaged(originals, "matrix", raw, load_matrix)
        assert got is None or got.values.size * 8 == len(raw) - len(MATRIX_MAGIC) - 16

    def test_empty_body_with_huge_dimension(self, originals):
        raw = MATRIX_MAGIC + struct.pack("<QQ", 0, 2**64 - 1)
        got = load_damaged(originals, "matrix", raw, load_matrix)
        assert got is None


# cells the delimited-text parser treats specially, so that random text
# often comes close to a matrix
text_cells = st.text(alphabet="0123456789.,;\t\n\r -+eEnaifx_\u0661\u2028", max_size=200)
matrices = st.integers(1, 6).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda p: st.lists(
            st.lists(st.floats(allow_nan=False), min_size=p, max_size=p),
            min_size=n, max_size=n,
        )
    )
)


def delimited(values, delim, header, labels, corner):
    """``values`` as text, each float by ``repr``; with a header row of
    column labels (and a corner cell above any label column) and a
    leading label column when asked."""
    lines = []
    if header:
        names = [f"c{j}" for j in range(len(values[0]))]
        lines.append(delim.join((["id"] if labels and corner else []) + names))
    for i, row in enumerate(values):
        lines.append(delim.join(([f"r{i}"] if labels else []) + [repr(v) for v in row]))
    return "\n".join(lines) + "\n"


class TestDelimitedTextReader:
    @FUZZ
    @given(text=st.one_of(st.text(max_size=200), text_cells))
    def test_any_text_loads_or_raises(self, originals, text):
        got = load_damaged(
            originals, "matrix.txt", text.encode("utf-8"), load_matrix
        )
        assert got is None or (
            isinstance(got, LoadedMatrix) and got.values.ndim == 2 and got.values.size > 0
        )

    @FUZZ
    @given(
        values=matrices,
        delim=st.sampled_from([",", "\t"]),
        header=st.booleans(),
        labels=st.booleans(),
        corner=st.booleans(),
    )
    def test_repr_round_trip_is_bit_identical(self, originals, values, delim, header,
                                              labels, corner):
        path = originals["root"] / "round-trip.txt"
        path.write_text(delimited(values, delim, header, labels, corner))
        got = load_matrix(path)
        want = np.array(values, dtype=np.float64)
        assert got.values.shape == want.shape
        assert got.values.tobytes() == want.tobytes()
        n, p = want.shape
        assert got.col_labels == (tuple(f"c{j}" for j in range(p)) if header else None)
        assert got.row_labels == (tuple(f"r{i}" for i in range(n)) if labels else None)

    def test_single_column_header(self, originals):
        # a lone non-numeric first line is the header of one column, not
        # the row label of a data row with no numbers
        path = originals["root"] / "one-column.txt"
        path.write_text("c0\n0.0\n2.5\n")
        got = load_matrix(path)
        assert got.col_labels == ("c0",) and got.row_labels is None
        assert got.values.tolist() == [[0.0], [2.5]]

    def test_single_column_header_over_tab_separated_labels(self, originals):
        # the first line holding a delimiter decides it; the header line
        # here holds none
        path = originals["root"] / "one-column.tsv"
        path.write_text("c0\nr0\t0.0\nr1\t-1.5\n")
        got = load_matrix(path)
        assert got.col_labels == ("c0",) and got.row_labels == ("r0", "r1")
        assert got.values.tolist() == [[0.0], [-1.5]]


pads = st.sampled_from(["", " ", "  "])
exponent_forms = st.builds(
    lambda m, e, mark, plus: f"{m}{mark}{'+' if plus and e >= 0 else ''}{e}",
    st.integers(-999, 999), st.integers(-330, 330), st.sampled_from("eE"), st.booleans(),
)
number_cells = st.builds(
    lambda left, cell, right: left + cell + right,
    pads,
    st.one_of(
        st.floats(allow_nan=False).map(repr),
        st.integers(-(10**20), 10**20).map(str),
        exponent_forms,
    ),
    pads,
)


@st.composite
def number_texts(draw):
    """A well-formed text matrix: repr floats, integers and exponent
    forms with padding spaces; comma or tab; LF or CRLF; blank and
    whitespace-only lines; with or without a header row, a label column
    and a corner cell."""
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    delim = draw(st.sampled_from([",", "\t"]))
    header, labels, corner = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    lines = []
    if header:
        lines.append(delim.join((["id"] if labels and corner else [])
                                + [f"c{j}" for j in range(p)]))
    for i in range(n):
        cells = draw(st.lists(number_cells, min_size=p, max_size=p))
        lines.append(delim.join(([f" r{i}"] if labels else []) + cells))
    blanks = st.sampled_from(["", " ", "  ", "\t \t"])
    out = []
    for line in lines:
        out += draw(st.lists(blanks, max_size=1)) + [line]
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + draw(st.sampled_from(["", "\n"]))


@st.composite
def damaged_number_texts(draw):
    """A well-formed text matrix with one character put in or replaced by
    one that text readers treat specially."""
    text = draw(number_texts())
    at = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(["_", "\u0661", "#", "\x1f", ",", "\t", "\n", "\xa0",
                               "\x00", "e", "x", "", " "]))
    return text[:at] + ch + text[at + draw(st.integers(0, 1)):]


def outcome(read, path):
    """What a reader makes of ``path``: its values and labels, or its
    error's type and message."""
    try:
        got = read(path)
    except (ParseError, ShapeError) as exc:
        return type(exc).__name__, str(exc)
    return got.values.shape, got.values.tobytes(), got.row_labels, got.col_labels


def oracle_read(path):
    return reference_parse_delimited(path.read_bytes().decode("utf-8"), str(path))


def loadtxt_grammar_differs(text):
    """Whether ``text`` holds a character Python's float reads in a number
    and np.loadtxt does not: a digit-group underscore or a non-ASCII digit."""
    return any(ch == "_" or (not ch.isascii() and unicodedata.decimal(ch, None) is not None)
               for ch in text)


class TestReaderMatchesOracle:
    @FUZZ
    @given(text=number_texts())
    def test_number_text_is_bit_identical(self, originals, text):
        path = originals["root"] / "numbers.txt"
        path.write_bytes(text.encode("utf-8"))
        want = outcome(oracle_read, path)
        assert isinstance(want[0], tuple)  # the oracle loads it
        assert outcome(load_matrix, path) == want

    @FUZZ
    @given(text=st.one_of(st.text(max_size=200), text_cells, damaged_number_texts()))
    def test_whatever_loads_loads_as_the_oracle_does(self, originals, text):
        path = originals["root"] / "any.txt"
        path.write_bytes(text.encode("utf-8"))
        got = outcome(load_matrix, path)
        want = outcome(oracle_read, path)
        # a text without such cells gets the same values, or the same
        # error with the same message
        if isinstance(got[0], tuple) or not loadtxt_grammar_differs(text):
            assert got == want


class TestModelReader:
    @FUZZ
    @given(cut=st.integers(0, 100_000))
    def test_truncation_is_rejected(self, originals, cut):
        raw = originals["model"]
        assert load_damaged(originals, "model", raw[: cut % len(raw)], load_model) is None

    @FUZZ
    @given(position=positions, mask=masks)
    def test_flip_loads_or_raises(self, originals, position, mask):
        raw = originals["model"]
        # half the examples land in the magic, length and JSON header
        header_end = len(MODEL_MAGIC) + 8 + struct.unpack_from("<Q", raw, len(MODEL_MAGIC))[0]
        at = position % header_end if position % 2 else position
        got = load_damaged(originals, "model", flipped(raw, at, mask), load_model)
        assert got is None or isinstance(got, FableModel)

    @FUZZ
    @given(word=words)
    def test_header_length_overwrite_loads_or_raises(self, originals, word):
        raw = overwritten(originals["model"], len(MODEL_MAGIC), word)
        got = load_damaged(originals, "model", raw, load_model)
        assert got is None or isinstance(got, FableModel)

    @pytest.mark.parametrize(
        "edit",
        [
            (b'"rho_strategy":"mean_b"', b'"rho_strategy":"mean_c"'),
            (b'"tau_sq":', b'"tau_sq":-'),
            (b'"n":20', b'"n":"x"'),
            (b'"mu":[6,2]', b'"mu":[1e999,2]'),
            (b'"mu":[6,2]', b'"mu":[4611686018427387904,4]'),
            (b'"gamma_n":21.0', b'"gamma_n":31.0'),
        ],
        ids=["strategy", "negative-tau", "string-n", "infinite-dim", "overflowing-dims",
             "gamma-n"],
    )
    def test_bad_header_values_are_parse_errors(self, originals, edit):
        old, new = edit
        raw = originals["model"]
        hlen_at = len(MODEL_MAGIC)
        hlen = struct.unpack_from("<Q", raw, hlen_at)[0]
        header = raw[hlen_at + 8 : hlen_at + 8 + hlen]
        assert old in header
        header = header.replace(old, new)
        damaged = (
            raw[:hlen_at] + struct.pack("<Q", len(header)) + header + raw[hlen_at + 8 + hlen :]
        )
        assert load_damaged(originals, "model", damaged, load_model) is None

    def test_negative_payload_value_is_rejected(self, originals):
        raw = originals["model"]
        hlen = struct.unpack_from("<Q", raw, len(MODEL_MAGIC))[0]
        model = load_model(originals["root"] / "model.bin")
        # the first delta_sq entry follows the p x k entries of mu
        at = len(MODEL_MAGIC) + 8 + hlen + model.mu.size * 8 + 7
        damaged = flipped(raw, at, 0x80)  # sign bit
        assert load_damaged(originals, "model", damaged, load_model) is None


class TestSampleStreamReader:
    @FUZZ
    @given(cut=st.integers(0, 100_000))
    def test_truncation_is_a_prefix_or_rejected(self, originals, cut):
        raw, records = originals["samples"], originals["records"]
        cut %= len(raw)
        got = load_damaged(originals, "samples", raw[:cut], read_samples)
        if got is not None:
            assert same_records(got, records[: len(got)])
            record = (len(raw) - len(SAMPLE_MAGIC)) // len(records)
            # an empty file reads as an empty text stream
            assert cut in (0, len(SAMPLE_MAGIC) + len(got) * record)

    @FUZZ
    @given(position=positions, mask=masks)
    def test_flip_loads_or_raises(self, originals, position, mask):
        got = load_damaged(
            originals, "samples", flipped(originals["samples"], position, mask), read_samples
        )
        assert got is None or all(isinstance(s, CovarianceSample) for s in got)

    @FUZZ
    @given(field=st.integers(0, 2), word=words)
    def test_record_header_overwrite_loads_or_raises(self, originals, field, word):
        raw = overwritten(originals["samples"], len(SAMPLE_MAGIC) + 8 * field, word)
        got = load_damaged(originals, "samples", raw, read_samples)
        assert got is None or all(
            s.loadings.shape[0] == s.noise_sq.shape[0] for s in got
        )

    def test_huge_record_size_is_rejected(self, originals):
        raw = SAMPLE_MAGIC + struct.pack("<QQQ", 1, 2**40, 2**40)
        assert load_damaged(originals, "samples", raw, read_samples) is None

    @FUZZ
    @given(position=positions, mask=masks)
    def test_text_flip_loads_or_raises(self, originals, position, mask):
        raw = flipped(originals["samples_text"], position, mask)
        got = load_damaged(originals, "samples.txt", raw, read_text_samples)
        assert got is None or all(
            s.loadings.shape[0] == s.noise_sq.shape[0] for s in got
        )

    @pytest.mark.parametrize(
        "text",
        [
            b"1,100000,100000000000\n1.0\n",
            b"1,2,-3\n1.0\n",
            b"1,2,1\n1.0,x\n1.0\n",
            SAMPLE_MAGIC[:-1] + b"\xdb\x00\n",
        ],
        ids=["rows-beyond-file", "negative-p", "bad-number", "undecodable"],
    )
    def test_bad_text_records_are_rejected(self, originals, text):
        assert load_damaged(originals, "samples.txt", text, read_text_samples) is None


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    """An intervals run's manifest, the bytes as recorded; its paths are
    absolute, inside the fixture's directory."""
    root = tmp_path_factory.mktemp("manifest")
    _, _, y = make_factor_data(30, 6, 2, seed=93)
    save_model(root / "model.bin", fit(center_columns(y), k=2))
    argv = ["intervals", "--model", str(root / "model.bin"), "--indices", "0-3",
            "--alpha", "0.05", "--output", str(root / "iv.csv"),
            "--manifest", str(root / "recorded.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return {"root": root, "raw": (root / "recorded.json").read_bytes()}


def replay_damaged(manifest, data):
    """Load and replay a damaged manifest, from inside the fixture's
    directory so that a damaged relative path stays there."""
    root = manifest["root"]
    path = root / "damaged.json"
    path.write_bytes(bytes(data))
    try:
        load_manifest(path)
    except FableError:
        pass
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["replay", "--manifest", str(path), "--outdir", str(root / "out")])
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1
        name = json.loads(lines[0])["error"]
        # a damaged path ends as the OSError of opening it, as in any command
        error = getattr(fable.errors, name, None) or getattr(builtins, name)
        assert issubclass(error, (FableError, OSError))
    return code


# field paths in the manifest, and values of other JSON types; strings
# hold no path separator, so a damaged path names a file in the cwd
MANIFEST_FIELDS = [
    ("command",), ("config",), ("config", "argv"), ("config", "argv", 0),
    ("config", "argv", 2), ("config", "argv", 8), ("software_version",), ("seed",),
    ("inputs",), ("inputs", "model"), ("inputs", "model", "sha256"), ("resolved",),
    ("outputs",), ("outputs", "intervals"),
    ("outputs", "intervals", "path"), ("outputs", "intervals", "sha256"),
    ("measured",), ("created_unix",), ("openblas_num_threads",),
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(alphabet="abc01-. _", max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["path", "sha256", "argv", "x"]), inner, max_size=3),
    max_leaves=6,
)


class TestManifestReader:
    def test_recorded_manifest_replays(self, manifest):
        assert replay_damaged(manifest, manifest["raw"]) == 0

    @FUZZ
    @given(cut=st.integers(0, 10_000))
    def test_truncation_loads_or_refuses(self, manifest, cut):
        raw = manifest["raw"]
        replay_damaged(manifest, raw[: cut % len(raw)])

    @FUZZ
    @given(position=positions, mask=masks)
    def test_flip_loads_or_refuses(self, manifest, position, mask):
        replay_damaged(manifest, flipped(manifest["raw"], position, mask))

    @FUZZ
    @given(field=st.sampled_from(MANIFEST_FIELDS), value=json_values)
    def test_field_type_swap_loads_or_refuses(self, manifest, field, value):
        payload = json.loads(manifest["raw"])
        holder = payload
        for key in field[:-1]:
            holder = holder[key]
        holder[field[-1]] = value
        replay_damaged(manifest, json.dumps(payload).encode())
