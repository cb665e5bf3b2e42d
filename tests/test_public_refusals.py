"""Refusals of public input that no other test reaches, one table per
module. Each case makes one public call and checks the type of the
error it ends in and a fragment of its message.
"""

import dataclasses
import json
import os
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from fable.errors import (
    DimensionMismatch,
    InvalidOption,
    NonFinite,
    OverlappingIndexSets,
    ParseError,
    ShapeError,
)
from fable.inference import IntervalGrid, credible_intervals, oos_loglik, predictive_coverage
from fable.io import (
    MODEL_MAGIC,
    load_matrix,
    load_model,
    load_samples,
    preprocess,
    save_matrix,
    save_model,
    save_samples,
)
from fable.linalg import (
    LinearMap,
    StructuredCovariance,
    center_columns,
    covariance_difference,
    truncated_svd,
)
from fable.model import compute_rho, fit, hyperparameters_from_factors
from fable.sampler import RngSpec, draw_sample, posterior_mean, sample_entry_stats

from test_model import make_factor_data


@pytest.fixture(scope="module")
def data():
    _, _, y = make_factor_data(30, 8, 2, seed=71)
    return center_columns(y)


@pytest.fixture(scope="module")
def model(data):
    return fit(data, k=2)


@pytest.fixture
def ctx(data, model, tmp_path, monkeypatch):
    return SimpleNamespace(data=data, model=model, tmp=tmp_path, monkeypatch=monkeypatch)


def refused(case, ctx):
    call, error, fragment = case
    with pytest.raises(error, match=re.escape(fragment)):
        call(ctx)


def grid(**changes):
    fields = dict(u=[0, 1], v=[0, 1], center=[1.0, 0.5], lower=[0.0, 0.0], upper=[2.0, 1.0],
                  asym_sd=[0.1, 0.1], alpha=0.05, method="asymptotic")
    return IntervalGrid(**{**fields, **changes})


INFERENCE = {
    "grid-shape": (lambda c: grid(v=[0]), DimensionMismatch, "v must have shape (2,)"),
    "grid-bounds": (lambda c: grid(lower=[3.0, 0.0]), InvalidOption,
                    "interval lower bounds exceed upper bounds"),
    "quantile-needs-draws": (
        lambda c: credible_intervals(c.model, [(0, 1)], method="sample_quantile"),
        InvalidOption, "sample_quantile needs n_samples and rng"),
    "unknown-method": (lambda c: credible_intervals(c.model, [(0, 1)], method="bayes"),
                       InvalidOption, "unknown method 'bayes'"),
    "coverage-width": (
        lambda c: predictive_coverage(c.model, center_columns(c.data.values[:, :3])),
        DimensionMismatch, "data has p=3, model has p=8"),
    "duplicate-targets": (
        lambda c: oos_loglik(c.data, np.zeros((2, 2)), [0, 0], k=1),
        OverlappingIndexSets, "index sets contain duplicates"),
}

SAMPLER = {
    "negative-draw": (lambda c: draw_sample(c.model, -1, RngSpec(0)), InvalidOption,
                      "draw index must be nonnegative, got -1"),
    "unknown-form": (lambda c: posterior_mean(c.model, form="dense"), InvalidOption,
                     "unknown form 'dense'"),
    "entrywise-needs-pairs": (lambda c: posterior_mean(c.model, form="dense_entrywise"),
                              InvalidOption, "dense_entrywise needs explicit index pairs"),
    "quantile-level": (
        lambda c: sample_entry_stats(c.model, 2, RngSpec(0), [(0, 1)], quantiles=(1.5,)),
        InvalidOption, "quantile levels must lie in [0, 1], got 1.5"),
}

MODEL = {
    "rank-zero": (lambda c: dataclasses.replace(c.model, k=0), DimensionMismatch,
                  "bad dimensions n=30, p=8, k=0"),
    "u-shape": (lambda c: dataclasses.replace(c.model, u=np.zeros((3, 2))), DimensionMismatch,
                "u shape (3, 2), expected (30, 2)"),
    "v_sq-shape": (lambda c: dataclasses.replace(c.model, v_sq=np.ones(3)), DimensionMismatch,
                   "v_sq shape (3,), expected (8,)"),
    "factor-rows": (
        lambda c: hyperparameters_from_factors(np.zeros((5, 2)), np.zeros((4, 3)), 1.0),
        DimensionMismatch, "factors have 5 rows but data has 4"),
    "fit-strategy": (lambda c: fit(c.data, k=2, rho_strategy="median_b"), InvalidOption,
                     "rho_strategy must be one of"),
    "rho-shapes": (lambda c: compute_rho(np.ones(3), np.ones(3)), DimensionMismatch,
                   "mu must be (p, k) and v_sq (p,)"),
    "rho-strategy": (lambda c: compute_rho(c.model.mu, c.model.v_sq, strategy="median_b"),
                     InvalidOption, "unknown strategy 'median_b'"),
}


def svd(ctx, **changes):
    return dataclasses.replace(truncated_svd(ctx.data, 2), **changes)


LINALG = {
    "svd-width": (lambda c: svd(c, k=3), DimensionMismatch, "factor widths must all equal k"),
    "svd-spectrum-length": (lambda c: svd(c, spectrum=[1.0]), DimensionMismatch,
                            "spectrum must hold at least k values"),
    "svd-spectrum-order": (lambda c: svd(c, spectrum=[1.0, 2.0, 3.0]), InvalidOption,
                           "singular values must be nonnegative and non-increasing"),
    "svd-orthonormal": (lambda c: svd(c, u=2.0 * truncated_svd(c.data, 2).u), InvalidOption,
                        "columns of u are not orthonormal"),
    "cov-diag-shape": (lambda c: StructuredCovariance(np.ones((3, 2)), np.ones(4)),
                       DimensionMismatch, "diag shape (4,) does not match loadings rows 3"),
    "cov-diag-finite": (lambda c: StructuredCovariance(np.ones((3, 2)), [1.0, np.nan, 1.0]),
                        NonFinite, "diag contains NaN or infinite entries"),
    "map-rmatvec": (lambda c: LinearMap(shape=(2, 3), matvec=lambda x: x), DimensionMismatch,
                    "rmatvec required for non-square maps"),
    "difference-width": (
        lambda c: covariance_difference(StructuredCovariance(np.ones((3, 1)), np.ones(3)),
                                        StructuredCovariance(np.ones((4, 1)), np.ones(4))),
        DimensionMismatch, "operands have p=3 and p=4"),
}


def model_with_shape(ctx, name, shape):
    """Load the model artifact with the header's shape of ``name`` set to
    ``shape``; the body is left as it was."""
    path = ctx.tmp / "m.bin"
    save_model(path, ctx.model)
    raw = path.read_bytes()
    start = len(MODEL_MAGIC) + 8
    (hlen,) = struct.unpack_from("<Q", raw, len(MODEL_MAGIC))
    header = json.loads(raw[start : start + hlen])
    header["shapes"][name] = shape
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(blob)) + blob + raw[start + hlen :])
    return load_model(path)


def changed_while_read(ctx):
    """Load a FABLEMAT1 file cut short while fstat reports the full size."""
    path = ctx.tmp / "x.mat"
    save_matrix(path, np.eye(3))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    with ctx.monkeypatch.context() as patch:
        patch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        return load_matrix(path)


def model_of_version_2(ctx):
    path = ctx.tmp / "m.bin"
    save_model(path, ctx.model)
    raw = path.read_bytes()
    assert raw.count(b'"version":1}') == 1  # the last key of the sorted header
    path.write_bytes(raw.replace(b'"version":1}', b'"version":2}'))
    return load_model(path)


def text_stream(ctx, text):
    """Read every record of the text sample stream ``text``."""
    path = ctx.tmp / "s.txt"
    path.write_text(text)
    return list(load_samples(path))


IO = {
    "model-shape-past-numpy": (lambda c: model_with_shape(c, "mu", [0, 2**62]), ShapeError,
                               "unsupported shape (0, 4611686018427387904)"),
    "matrix-changed-while-read": (changed_while_read, ShapeError,
                                  "the body changed while it was read"),
    "save-1d-matrix": (lambda c: save_matrix(c.tmp / "v.mat", np.ones(3)), ShapeError,
                       "matrix must be 2-d, got shape (3,)"),
    "preprocess-1d": (lambda c: preprocess(np.ones(3)), ShapeError,
                      "matrix must be 2-d, got shape (3,)"),
    "model-negative-shape": (lambda c: model_with_shape(c, "v_sq", [-8]), ShapeError,
                             "negative dimension in shape of 'v_sq'"),
    "sample-format": (lambda c: save_samples(c.tmp / "s", [], format="parquet"), InvalidOption,
                      "unknown sample format 'parquet'"),
    "model-version": (model_of_version_2, ParseError, "unsupported model version 2"),
    # reshape(p, -1) would infer k = 3 from the loading rows
    "text-stream-negative-k": (lambda c: text_stream(c, "1,-1,2\n1.0,2.0,3.0\n4.0,5.0,6.0\n"
                                                        "0.5,0.5\n"),
                               ParseError, "s.txt: line 1: t,k,p header out of range"),
    "text-stream-negative-t": (lambda c: text_stream(c, "1,1,1\n1.0\n1.0\n-3,2,2\n"),
                               ParseError, "s.txt: line 4: t,k,p header out of range"),
    "text-stream-t-past-u64": (lambda c: text_stream(c, f"{2**64},1,1\n1.0\n1.0\n"),
                               ParseError, "s.txt: line 1: t,k,p header out of range"),
}


@pytest.mark.parametrize("case", INFERENCE.values(), ids=INFERENCE)
def test_inference(case, ctx):
    refused(case, ctx)


@pytest.mark.parametrize("case", SAMPLER.values(), ids=SAMPLER)
def test_sampler(case, ctx):
    refused(case, ctx)


@pytest.mark.parametrize("case", MODEL.values(), ids=MODEL)
def test_model(case, ctx):
    refused(case, ctx)


@pytest.mark.parametrize("case", LINALG.values(), ids=LINALG)
def test_linalg(case, ctx):
    refused(case, ctx)


@pytest.mark.parametrize("case", IO.values(), ids=IO)
def test_io(case, ctx):
    refused(case, ctx)
