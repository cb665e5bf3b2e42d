"""File formats: matrices, model artifacts, sample streams, and tables.

Binary layouts are little-endian throughout. Text formats use repr
floats, so every value round-trips bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys
from contextlib import suppress
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InvalidOption,
    MagicMismatch,
    NegativeCount,
    NonFinite,
    ParseError,
    ShapeError,
)
from .inference import IntervalGrid
from .linalg import DataMatrix, _abs_max, _center_in_place
from .model import FableModel
from .sampler import CovarianceSample
from .simharness import BenchmarkRow, ConfigSummary, MetricRecord

__all__ = [
    "MATRIX_MAGIC",
    "MODEL_MAGIC",
    "SAMPLE_MAGIC",
    "LoadedMatrix",
    "RunManifest",
    "load_matrix",
    "save_matrix",
    "preprocess",
    "save_model",
    "load_model",
    "save_samples",
    "load_samples",
    "write_intervals",
    "write_metric_records",
    "write_config_summaries",
    "write_benchmark_table",
    "save_manifest",
    "load_manifest",
    "file_sha256",
]

MATRIX_MAGIC = b"FABLEMAT1"
MODEL_MAGIC = b"FABLE-MODEL-v1\n"
SAMPLE_MAGIC = b"FABLESAMP1"

# model artifact arrays, in on-disk order
_MODEL_ARRAYS = ("mu", "delta_sq", "v_sq", "l_sq", "u", "spectrum")
_MODEL_SCALARS = (
    "n", "p", "k", "tau_sq", "gamma0", "delta0_sq", "gamma_n", "rho", "rho_strategy"
)


@dataclass(frozen=True)
class LoadedMatrix:
    """Raw numeric matrix plus whatever labels the file carried."""

    values: np.ndarray
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None


def _read_f8(fh, shape: Sequence[int], path, what: str, end: int) -> np.ndarray:
    """The little-endian float64 block of ``shape`` read from ``fh`` into a fresh
    array. A block past offset ``end`` (refused before anything is allocated)
    and a short read both raise ``ShapeError`` with the message ``what``."""
    nbytes = math.prod(shape) * 8
    if nbytes > end - fh.tell():
        raise ShapeError(f"{path}: {what}")
    try:
        values = np.empty(shape, dtype="<f8")
    except ValueError as exc:
        # a zero-size array with a dimension past numpy's limit
        raise ShapeError(f"{path}: unsupported shape {tuple(shape)} ({exc})") from exc
    # nothing to read into an empty array, which memoryview cannot cast
    if nbytes and fh.readinto(memoryview(values).cast("B")) != nbytes:
        raise ShapeError(f"{path}: {what}")
    return values.astype(np.float64, copy=False)


def _cell_error(path: str, line: int, col: int, cell: str) -> ParseError:
    return ParseError(f"{path}: line {line}, column {col}: could not parse {cell.strip()!r}")


def _is_number(cell: str, path: str, line: int, col: int) -> bool:
    """Whether ``cell`` is a float64 as ``np.loadtxt`` reads one. A cell
    that Python's float reads but loadtxt refuses (digit-group
    underscores, non-ASCII digits) is refused, not taken for a label."""
    try:
        float(cell)
    except ValueError:
        return False
    if "_" in cell or not cell.strip().isascii():
        raise _cell_error(path, line, col, cell)
    return True


def _parse_delimited(text: str, path: str) -> LoadedMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: no data rows")
    # the first line holding a delimiter decides: a one-column header has none
    sniff = next((ln for ln in lines if "\t" in ln or "," in ln), "")
    delim = "\t" if "\t" in sniff else ","

    # A first row whose tail is numeric but first cell is not is data
    # with a row label, not a header; any other non-numeric cell marks a
    # header, a lone one included (the header of a single column).
    first = lines[0].split(delim)
    numeric = [_is_number(cell, path, 1, j) for j, cell in enumerate(first, 1)]
    col_labels = None
    has_row_labels = False
    if len(numeric) > 1 and not numeric[0] and all(numeric[1:]):
        has_row_labels = True
    elif not all(numeric):
        col_labels = tuple(cell.strip() for cell in first)
        lines = lines[1:]
        if not lines:
            raise ParseError(f"{path}: header but no data rows")
        has_row_labels = not _is_number(lines[0].split(delim, 1)[0], path, 2, 1)

    body, row_labels = lines, None
    if has_row_labels:
        parts = [ln.split(delim, 1) for ln in lines]
        if len(parts[0]) == 1:
            raise ParseError(f"{path}: no numeric columns after the labels")
        row_labels = tuple(part[0].strip() for part in parts)
        body = [part[1] if len(part) == 2 else "" for part in parts]
    width = body[0].count(delim) + 1
    if has_row_labels and col_labels is not None and len(col_labels) == width + 1:
        col_labels = col_labels[1:]  # corner cell above the label column

    # The body in one C call. loadtxt skips an empty line as blank and
    # strips U+001F around a cell; the scan below refuses both.
    values = None
    if "" not in body and not any("\x1f" in ln for ln in body):
        try:
            values = np.loadtxt(body, delimiter=delim, comments=None, ndmin=2,
                                dtype=np.float64)
        except ValueError:
            pass
    if values is not None and values.shape == (len(body), width):
        return LoadedMatrix(values, row_labels, col_labels)

    # Refused: find the first bad row or cell, for the error message.
    offset = 2 if col_labels is not None else 1
    for i, ln in enumerate(lines, offset):
        row = ln.split(delim)[1 if has_row_labels else 0 :]
        if len(row) != width:
            raise ShapeError(f"{path}: row {i} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row, 2 if has_row_labels else 1):
            if not _is_number(cell, path, i, j):
                raise _cell_error(path, i, j, cell)
    raise ParseError(f"{path}: could not read the numeric body")


def _load_binary(fh, path: str) -> LoadedMatrix:
    """Read the FABLEMAT1 file open at its start in ``fh``, whose magic
    the caller has seen, straight into one array."""
    header_end = len(MATRIX_MAGIC) + 16
    head = fh.read(header_end)
    if len(head) < header_end:
        raise ShapeError(f"{path}: truncated header")
    n, p = struct.unpack_from("<QQ", head, len(MATRIX_MAGIC))
    body = os.fstat(fh.fileno()).st_size - header_end
    if body != n * p * 8:
        raise ShapeError(f"{path}: body holds {body} bytes, expected {n * p * 8} for {n}x{p}")
    return LoadedMatrix(_read_f8(fh, (n, p), path, "the body changed while it was read",
                                 header_end + body))


def load_matrix(path: str | Path) -> LoadedMatrix:
    """Read a matrix file, binary or delimited text.

    A file that starts with the ``FABLEMAT1`` magic is binary and is read
    into the returned array itself; any other file is text. Text files
    may carry a header row of column labels and a leading label column;
    both are detected by whether cells parse as numbers, as
    ``np.loadtxt`` reads a float64.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.peek(len(MATRIX_MAGIC))[: len(MATRIX_MAGIC)] == MATRIX_MAGIC:
            return _load_binary(fh, str(path))
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 text ({exc})") from exc
    return _parse_delimited(text, str(path))


def save_matrix(path: str | Path, values: np.ndarray) -> None:
    """Write the FABLEMAT1 binary layout: magic, u64 n, u64 p, row-major f64."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.ndim != 2:
        raise ShapeError(f"matrix must be 2-d, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        fh.write(arr)


# Columns per block when the variance filter takes column variances:
# the block's n x 256 temporary stays small next to the data.
_VAR_BLOCK = 256


def _transformed(values: np.ndarray, transform: str) -> np.ndarray:
    """``values`` as a finite 2-d float64 array under ``transform``. The
    log2 transform is written into ``values`` itself when it is a float64
    array, so callers pass an array that fable has made; "none" returns
    it unchanged (as float64)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"matrix must be 2-d, got shape {arr.shape}")
    if not math.isfinite(_abs_max(arr)):
        raise NonFinite("input matrix contains non-finite values")
    if transform == "log2_plus_one":
        if arr.min(initial=0.0) < 0:
            raise NegativeCount("log2(1 + x) transform needs nonnegative counts")
        arr += 1.0
        np.log2(arr, out=arr)
    elif transform != "none":
        raise InvalidOption(f"unknown transform {transform!r}")
    return arr


def _column_variances(arr: np.ndarray) -> np.ndarray:
    """``arr.var(axis=0, ddof=1)``, bit for bit, one block of columns at a
    time, so no n x p temporary is made. No block is a lone column: numpy
    sums one column of a row-major array in another order."""
    p = arr.shape[1]
    variances = np.empty(p)
    starts = range(0, max(p - 1, 1), _VAR_BLOCK)
    for start, stop in zip(starts, [*starts[1:], p]):
        variances[start:stop] = arr[:, start:stop].var(axis=0, ddof=1)
    return variances


def preprocess(
    values: np.ndarray,
    *,
    transform: str = "none",
    filter_top_variance_fraction: float = 1.0,
) -> tuple[DataMatrix, np.ndarray]:
    """Transform counts, keep the most variable columns, and center.

    Returns the centered matrix plus the original indices of the kept
    columns (ascending, so relative column order is preserved). The top
    ceil(fraction * p) columns by post-transform sample variance are
    kept; ties go to the lower original index. ``values`` is copied
    once and left as it was; the transform and the centering then run
    in that copy.
    """
    return _preprocess(np.array(values, dtype=np.float64), transform,
                       filter_top_variance_fraction)


def _preprocess(
    values: np.ndarray, transform: str, filter_top_variance_fraction: float
) -> tuple[DataMatrix, np.ndarray]:
    """:func:`preprocess` of an array that fable has just made and holds
    no other reference to (the CLI's loaded matrix): the transform and the
    centering write into ``values``, and the result holds it when every
    column is kept."""
    f = float(filter_top_variance_fraction)
    if not 0.0 < f <= 1.0:
        raise InvalidOption(f"filter fraction must lie in (0, 1], got {f}")
    arr = _transformed(values, transform)
    p = arr.shape[1]
    # round before ceil so 0.1 * 5300 keeps 530 columns, not 531
    m = max(1, math.ceil(round(f * p, 9)))
    if m < p:
        order = np.argsort(-_column_variances(arr), kind="stable")
        kept = np.sort(order[:m])
        arr = np.take(arr, kept, axis=1)  # row-major, as centering writes
    else:
        kept = np.arange(p)
    # the constant-column warning points at the caller of preprocess
    return _center_in_place(arr, stacklevel=4), kept


def _model_header(model: FableModel) -> dict:
    return {
        "version": 1,
        **{name: getattr(model, name) for name in _MODEL_SCALARS},
        "shapes": {name: list(getattr(model, name).shape) for name in _MODEL_ARRAYS},
    }


def save_model(path: str | Path, model: FableModel) -> None:
    """Write the FABLE-MODEL-v1 artifact.

    Layout: magic line, u64 header length, canonical JSON header
    (sorted keys, no whitespace), then the arrays in a fixed order as
    raw little-endian float64. Same model, same bytes.
    """
    header = json.dumps(_model_header(model), sort_keys=True, separators=(",", ":"))
    blob = header.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in _MODEL_ARRAYS:
            fh.write(np.ascontiguousarray(getattr(model, name), dtype="<f8"))


def load_model(path: str | Path) -> FableModel:
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise MagicMismatch(f"{path}: not a FABLE-MODEL-v1 file")
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8:
            raise ShapeError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<Q", head)
        blob = fh.read(min(hlen, size))
        # where the arrays end; a header length past the file moves it before them
        end = size - (hlen - len(blob))
        try:
            header = json.loads(blob.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: bad model header ({exc})") from exc
        if not isinstance(header, dict):
            raise ParseError(f"{path}: model header is not a JSON object")
        if header.get("version") != 1:
            raise ParseError(f"{path}: unsupported model version {header.get('version')!r}")
        try:
            scalars = {key: header[key] for key in _MODEL_SCALARS}
            shapes = {name: [int(d) for d in header["shapes"][name]] for name in _MODEL_ARRAYS}
        except KeyError as exc:
            raise ParseError(f"{path}: model header missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: malformed model header ({exc})") from exc
        arrays = {}
        for name, shape in shapes.items():
            if any(d < 0 for d in shape):
                raise ShapeError(f"{path}: negative dimension in shape of {name!r}")
            arrays[name] = _read_f8(fh, shape, path, f"truncated array {name!r}", end)
        if fh.tell() != end:
            raise ShapeError(f"{path}: {end - fh.tell()} trailing bytes")
    try:
        return FableModel(**scalars, **arrays)
    except (TypeError, ValueError, OverflowError) as exc:
        # FableModel's own checks on values read from the header or body
        raise ParseError(f"{path}: invalid model ({exc})") from exc


def _write_table(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write ``rows`` as CSV lines; a header is just the first row."""
    with open(path, "w") as fh:
        _write_rows(fh, rows)


def _write_rows(fh: IO[str], rows: Iterable[Sequence]) -> None:
    """Write ``rows`` to the text file ``fh`` as CSV lines. A float cell
    (numpy float64 too) is its ``repr``, which reads back
    bit-identically; any other cell is its ``str``."""
    float_repr = float.__repr__
    for row in rows:
        cells = [float_repr(x) if isinstance(x, float) else str(x) for x in row]
        fh.write(",".join(cells) + "\n")


def _write_json(path: str | Path | None, payload: dict) -> None:
    """Sorted keys, an indent of 2, a final newline; stdout when ``path`` is None."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def save_samples(
    path: str | Path,
    samples: Iterable[CovarianceSample],
    *,
    format: str = "binary",
) -> int:
    """Stream factored draws to a file; returns the record count.

    Each record is the draw index t, the dimensions k and p, the p x k
    loading matrix row-major, then the p noise variances. The binary
    variant packs those as u64 triples plus little-endian float64; the
    text variant is one CSV block per record (header line "t,k,p", p
    loading rows, one noise row). A stream refused part-way (a draw
    that is not finite, say) removes the file before the error
    propagates.
    """
    if format not in ("binary", "text"):
        raise InvalidOption(f"unknown sample format {format!r}")
    binary, count = format == "binary", 0
    fh = open(path, "wb" if binary else "w")  # an error here removes nothing
    try:
        with fh:
            if binary:
                fh.write(SAMPLE_MAGIC)
            for sample in samples:
                p, k = sample.loadings.shape
                if binary:
                    fh.write(struct.pack("<QQQ", sample.index, k, p))
                    fh.write(np.ascontiguousarray(sample.loadings, dtype="<f8"))
                    fh.write(np.ascontiguousarray(sample.noise_sq, dtype="<f8"))
                else:
                    _write_rows(fh, chain(
                        [(sample.index, k, p)], sample.loadings.tolist(),
                        [sample.noise_sq.tolist()],
                    ))
                count += 1
    except BaseException:
        # a stream refused part-way leaves no partial file; only a regular
        # file is removed, never a device, a pipe or a symbolic link
        if os.path.isfile(path) and not os.path.islink(path):
            with suppress(OSError):
                os.remove(path)
        raise
    return count


def _load_samples_binary(path: Path) -> Iterator[CovarianceSample]:
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        fh.seek(len(SAMPLE_MAGIC))  # load_samples has read the magic
        while head := fh.read(24):
            if len(head) < 24:
                raise ShapeError(f"{path}: truncated record header")
            t, k, p = struct.unpack("<QQQ", head)
            yield CovarianceSample(
                index=t,
                loadings=_read_f8(fh, (p, k), path, f"truncated record {t}", end),
                noise_sq=_read_f8(fh, (p,), path, f"truncated record {t}", end),
            )


def _load_samples_text(path: Path) -> Iterator[CovarianceSample]:
    try:
        with open(path) as fh:
            lineno = 0
            while True:
                head = fh.readline()
                lineno += 1
                if not head:
                    return
                if not head.strip():
                    continue
                parts = head.strip().split(",")
                if len(parts) != 3:
                    raise ParseError(f"{path}: line {lineno}: expected t,k,p header")
                t, k, p = (int(x) for x in parts)
                if min(t, k, p) < 0 or t >= 2**64:  # u64 fields in the binary stream
                    raise ParseError(f"{path}: line {lineno}: t,k,p header out of range")
                # p loading rows, then the noise row; arrays are built
                # from the lines read, never sized from the header alone
                rows = []
                for _ in range(p + 1):
                    line = fh.readline()
                    lineno += 1
                    if not line:
                        raise ShapeError(f"{path}: truncated record {t}")
                    rows.append([float(x) for x in line.strip().split(",")])
                lam = np.array(rows[:-1], dtype=np.float64).reshape(p, k)
                noise = np.array(rows[-1], dtype=np.float64).reshape(p)
                yield CovarianceSample(index=t, loadings=lam, noise_sq=noise)
    except (ValueError, IndexError) as exc:  # bad bytes, numbers or widths
        raise ParseError(f"{path}: malformed text sample stream ({exc})") from exc


def load_samples(path: str | Path) -> Iterator[CovarianceSample]:
    """Iterate records written by save_samples. A stream that starts with
    the FABLESAMP1 magic is binary; any other is text, whose first line
    is the digits of a t,k,p header."""
    path = Path(path)
    with open(path, "rb") as fh:
        binary = fh.read(len(SAMPLE_MAGIC)) == SAMPLE_MAGIC
    return _load_samples_binary(path) if binary else _load_samples_text(path)


def write_intervals(path: str | Path, grid: IntervalGrid) -> None:
    """Delimited interval table: u, v, center, lower, upper, asym_sd, method."""
    columns = (grid.u, grid.v, grid.center, grid.lower, grid.upper, grid.asym_sd)
    rows = zip(*(col.tolist() for col in columns), repeat(grid.method))
    _write_table(path, chain(["u,v,center,lower,upper,asym_sd,method".split(",")], rows))


def write_metric_records(path: str | Path, records: Sequence[MetricRecord]) -> None:
    """One row per replicate, columns named as MetricRecord's fields."""
    header = [f.name for f in fields(MetricRecord)]
    rows = (astuple(replace(r, error=(r.error or "").replace(",", ";"))) for r in records)
    _write_table(path, chain([header], rows))


def write_config_summaries(path: str | Path, summaries: Sequence[ConfigSummary]) -> None:
    """One row per configuration, columns named as ConfigSummary's fields."""
    header = [f.name for f in fields(ConfigSummary)]
    _write_table(path, chain([header], map(astuple, summaries)))


def write_benchmark_table(path: str | Path, rows: Sequence[BenchmarkRow]) -> None:
    """Plot-ready timing table: BenchmarkRow's fields, then the log10 of
    each of its three timings."""
    timings = ("fit_seconds", "sample_seconds", "mean_seconds")
    header = [f.name for f in fields(BenchmarkRow)] + [f"log10_{t}" for t in timings]
    lines = ((*astuple(r), *(math.log10(getattr(r, t)) for t in timings)) for r in rows)
    _write_table(path, chain([header], lines))


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to rerun a command and check its outputs.

    ``config`` echoes the resolved options, ``resolved`` the fitted
    quantities (rank, tau_sq, rho, gamma_n), ``outputs`` maps each
    deterministic written file to its sha256, ``inputs`` each file the
    command read (``input``, ``test``, ``model``). Files whose content
    embeds wall-clock measurements (timing tables, per-replicate
    records) go in ``measured`` instead: a replay rewrites them but
    only the ``outputs`` hashes are compared. Timestamps never feed
    into outputs, so a replay writes byte-identical files.

    ``openblas_num_threads`` is the ``OPENBLAS_NUM_THREADS`` setting of
    the run ("" when unset; None in manifests that predate it): BLAS sums
    in an order that depends on its thread count, so a fit's bytes do.
    """

    command: str
    config: dict
    software_version: str
    seed: int | None = None
    inputs: dict = field(default_factory=dict)
    resolved: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    created_unix: float = 0.0
    openblas_num_threads: str | None = None


def save_manifest(path: str | Path, manifest: RunManifest) -> None:
    _write_json(path, asdict(manifest))


def load_manifest(path: str | Path) -> RunManifest:
    """Read a manifest, checking the type of every field replay uses."""
    with open(path, "rb") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: manifest is not a JSON object")
    known = {}  # unknown keys are ignored
    for f in fields(RunManifest):
        if f.name in payload:
            known[f.name] = payload[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ParseError(f"{path}: manifest missing field {f.name!r}")
    manifest = RunManifest(**known)

    def require(ok: bool, name: str, what: str) -> None:
        if not ok:
            raise ParseError(f"{path}: manifest field {name} is not {what}")

    require(isinstance(manifest.command, str), "command", "a string")
    require(isinstance(manifest.software_version, str), "software_version", "a string")
    require(isinstance(manifest.config, dict), "config", "an object")
    argv = manifest.config.get("argv", [])
    require(
        isinstance(argv, list) and all(isinstance(arg, str) for arg in argv),
        "config.argv", "a list of strings",
    )
    for name in ("inputs", "outputs", "measured"):
        records = getattr(manifest, name)
        require(isinstance(records, dict), name, "an object")
        for role, record in records.items():
            require(
                isinstance(record, dict)
                and isinstance(record.get("path"), str)
                and isinstance(record.get("sha256"), str),
                f"{name}.{role}", "an object with string path and sha256",
            )
    if not manifest.inputs and isinstance(payload.get("input_sha256"), str):
        # fable 0.5.8 and earlier hashed --input alone; replay takes paths from argv
        return replace(manifest, inputs={"input": {"sha256": payload["input_sha256"]}})
    return manifest


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
