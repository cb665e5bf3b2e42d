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
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
from .linalg import DataMatrix, _abs_max, center_columns
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


def _f8_array(buf: bytes, shape: Sequence[int], offset: int, path) -> np.ndarray:
    """The little-endian float64 values of ``shape`` at ``buf[offset:]``,
    copied; the caller has checked that enough bytes remain."""
    try:
        flat = np.frombuffer(buf, dtype="<f8", count=math.prod(shape), offset=offset)
        return flat.reshape(shape).astype(np.float64)
    except ValueError as exc:
        # a zero-size array with a dimension past numpy's limit
        raise ShapeError(f"{path}: unsupported shape {tuple(shape)} ({exc})") from exc


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
    """Read the FABLEMAT1 file open at its start in ``fh`` straight into
    one array; the size of the file is checked before it is allocated."""
    header_end = len(MATRIX_MAGIC) + 16
    head = fh.read(header_end)
    if head[: len(MATRIX_MAGIC)] != MATRIX_MAGIC:
        raise MagicMismatch(f"{path}: not a FABLEMAT1 file")
    if len(head) < header_end:
        raise ShapeError(f"{path}: truncated header")
    n, p = struct.unpack_from("<QQ", head, len(MATRIX_MAGIC))
    body = os.fstat(fh.fileno()).st_size - header_end
    expected = n * p * 8
    if body != expected:
        raise ShapeError(
            f"{path}: body holds {body} bytes, expected {expected} for {n}x{p}"
        )
    try:
        values = np.empty((n, p), dtype="<f8")
    except ValueError as exc:
        # a zero-size array with a dimension past numpy's limit
        raise ShapeError(f"{path}: unsupported shape {(n, p)} ({exc})") from exc
    # nothing to read into an empty array, which memoryview cannot cast
    if expected and fh.readinto(memoryview(values).cast("B")) != expected:
        raise ShapeError(f"{path}: the body changed while it was read")
    return LoadedMatrix(values.astype(np.float64, copy=False))


def load_matrix(path: str | Path, format: str = "auto") -> LoadedMatrix:
    """Read a matrix file, binary or delimited text.

    Text files may carry a header row of column labels and a leading
    label column; both are detected by whether cells parse as numbers,
    as ``np.loadtxt`` reads a float64. ``format="auto"`` sniffs the
    binary magic. A binary file is read into the returned array itself.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        if format == "auto":
            magic = fh.peek(len(MATRIX_MAGIC))[: len(MATRIX_MAGIC)]
            format = "raw_binary" if magic == MATRIX_MAGIC else "delimited_text"
        if format == "raw_binary":
            return _load_binary(fh, str(path))
        raw = fh.read()
    if format == "delimited_text":
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 text ({exc})") from exc
        return _parse_delimited(text, str(path))
    raise InvalidOption(f"unknown format {format!r}")


def save_matrix(path: str | Path, values: np.ndarray) -> None:
    """Write the FABLEMAT1 binary layout: magic, u64 n, u64 p, row-major f64."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.ndim != 2:
        raise ShapeError(f"matrix must be 2-d, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def _transformed(values: np.ndarray, transform: str) -> np.ndarray:
    """``values`` as a finite 2-d float64 array under ``transform``: a new
    array for "log2_plus_one", the caller's own (as float64) for "none"."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"matrix must be 2-d, got shape {arr.shape}")
    if not math.isfinite(_abs_max(arr)):
        raise NonFinite("input matrix contains non-finite values")
    if transform == "log2_plus_one":
        if arr.min(initial=0.0) < 0:
            raise NegativeCount("log2(1 + x) transform needs nonnegative counts")
        arr = arr + 1.0
        np.log2(arr, out=arr)
    elif transform != "none":
        raise InvalidOption(f"unknown transform {transform!r}")
    return arr


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
    kept; ties go to the lower original index.
    """
    f = float(filter_top_variance_fraction)
    if not 0.0 < f <= 1.0:
        raise InvalidOption(f"filter fraction must lie in (0, 1], got {f}")
    arr = _transformed(values, transform)
    p = arr.shape[1]
    # round before ceil so 0.1 * 5300 keeps 530 columns, not 531
    m = max(1, math.ceil(round(f * p, 9)))
    if m < p:
        variances = arr.var(axis=0, ddof=1)
        order = np.argsort(-variances, kind="stable")
        kept = np.sort(order[:m])
        arr = np.take(arr, kept, axis=1)  # row-major, as centering writes
    else:
        kept = np.arange(p)
    return center_columns(arr), kept


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
            arr = np.ascontiguousarray(getattr(model, name), dtype="<f8")
            fh.write(arr.tobytes(order="C"))


def load_model(path: str | Path) -> FableModel:
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise MagicMismatch(f"{path}: not a FABLE-MODEL-v1 file")
    offset = len(MODEL_MAGIC)
    if len(raw) < offset + 8:
        raise ShapeError(f"{path}: truncated header length")
    (hlen,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    try:
        header = json.loads(raw[offset : offset + hlen].decode("ascii"))
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
    offset += hlen
    arrays = {}
    for name, shape in shapes.items():
        if any(d < 0 for d in shape):
            raise ShapeError(f"{path}: negative dimension in shape of {name!r}")
        nbytes = math.prod(shape) * 8
        if len(raw) < offset + nbytes:
            raise ShapeError(f"{path}: truncated array {name!r}")
        arrays[name] = _f8_array(raw, shape, offset, path)
        offset += nbytes
    if offset != len(raw):
        raise ShapeError(f"{path}: {len(raw) - offset} trailing bytes")
    try:
        return FableModel(**scalars, **arrays)
    except (TypeError, ValueError, OverflowError) as exc:
        # FableModel's own checks on values read from the header or body
        raise ParseError(f"{path}: invalid model ({exc})") from exc


def _write_table(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write ``rows`` as CSV lines; a header is just the first row. A
    float cell (numpy float64 too) is its ``repr``, which reads back
    bit-identically; any other cell is its ``str``."""
    float_repr = float.__repr__
    with open(path, "w") as fh:
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
    loading rows, one noise row).
    """
    count = 0
    if format == "binary":
        with open(path, "wb") as fh:
            fh.write(SAMPLE_MAGIC)
            for sample in samples:
                lam = np.ascontiguousarray(sample.loadings, dtype="<f8")
                noise = np.ascontiguousarray(sample.noise_sq, dtype="<f8")
                p, k = lam.shape
                fh.write(struct.pack("<QQQ", sample.index, k, p))
                fh.write(lam.tobytes(order="C"))
                fh.write(noise.tobytes(order="C"))
                count += 1
    elif format == "text":

        def rows():
            nonlocal count
            for sample in samples:
                p, k = sample.loadings.shape
                yield sample.index, k, p
                yield from sample.loadings.tolist()
                yield sample.noise_sq.tolist()
                count += 1

        _write_table(path, rows())
    else:
        raise InvalidOption(f"unknown sample format {format!r}")
    return count


def _load_samples_binary(path: Path) -> Iterator[CovarianceSample]:
    size = path.stat().st_size
    with open(path, "rb") as fh:
        if fh.read(len(SAMPLE_MAGIC)) != SAMPLE_MAGIC:
            raise MagicMismatch(f"{path}: not a FABLESAMP1 file")
        while True:
            head = fh.read(24)
            if not head:
                return
            if len(head) < 24:
                raise ShapeError(f"{path}: truncated record header")
            t, k, p = struct.unpack("<QQQ", head)
            # checked against the file before reading, so a damaged
            # header cannot ask for an impossible buffer
            if (p * k + p) * 8 > size - fh.tell():
                raise ShapeError(f"{path}: truncated record {t}")
            body = fh.read((p * k + p) * 8)
            yield CovarianceSample(
                index=int(t),
                loadings=_f8_array(body, (p, k), 0, path),
                noise_sq=_f8_array(body, (p,), p * k * 8, path),
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


def load_samples(path: str | Path, *, format: str = "auto") -> Iterator[CovarianceSample]:
    """Iterate records written by save_samples."""
    path = Path(path)
    if format == "auto":
        with open(path, "rb") as fh:
            sniff = fh.read(len(SAMPLE_MAGIC))
        format = "binary" if sniff == SAMPLE_MAGIC else "text"
    if format == "binary":
        return _load_samples_binary(path)
    if format == "text":
        return _load_samples_text(path)
    raise InvalidOption(f"unknown sample format {format!r}")


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
    deterministic written file to its sha256. Files whose content
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
    input_sha256: str | None = None
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
    try:
        manifest = RunManifest(
            command=payload["command"],
            config=payload["config"],
            software_version=payload["software_version"],
            seed=payload.get("seed"),
            input_sha256=payload.get("input_sha256"),
            resolved=payload.get("resolved", {}),
            outputs=payload.get("outputs", {}),
            measured=payload.get("measured", {}),
            created_unix=payload.get("created_unix", 0.0),
            openblas_num_threads=payload.get("openblas_num_threads"),
        )
    except KeyError as exc:
        raise ParseError(f"{path}: manifest missing field {exc}") from exc

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
    for name in ("outputs", "measured"):
        records = getattr(manifest, name)
        require(isinstance(records, dict), name, "an object")
        for role, record in records.items():
            require(
                isinstance(record, dict)
                and isinstance(record.get("path"), str)
                and isinstance(record.get("sha256"), str),
                f"{name}.{role}", "an object with string path and sha256",
            )
    return manifest


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
