"""Independent readers and reference computations for the benchmark's checks.

Every check here compares fable's outputs against numpy/scipy code that
does not call into fable, or against a property the method must have.
File formats are read with this module's own parsers, so a fault in
fable's writer and reader pair cannot cancel out.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np
from scipy.special import ndtri

MATRIX_MAGIC = b"FABLEMAT1"
MODEL_MAGIC = b"FABLE-MODEL-v1\n"
SAMPLE_MAGIC = b"FABLESAMP1"
MODEL_ARRAYS = ("mu", "delta_sq", "v_sq", "l_sq", "u", "spectrum")


class CheckFailed(Exception):
    """A program output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def write_fablemat(path: Path, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC + struct.pack("<QQ", *arr.shape) + arr.tobytes())


def read_fablemat(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    require(raw[:9] == MATRIX_MAGIC, f"{path}: not a FABLEMAT1 file")
    n, p = struct.unpack_from("<QQ", raw, 9)
    require(len(raw) == 25 + 8 * n * p, f"{path}: size does not match {n}x{p}")
    return np.frombuffer(raw, dtype="<f8", offset=25).reshape(n, p).copy()


def read_model(path: Path) -> dict:
    """The header fields and the six arrays of a FABLE-MODEL-v1 artifact."""
    raw = Path(path).read_bytes()
    require(raw.startswith(MODEL_MAGIC), f"{path}: not a FABLE-MODEL-v1 file")
    offset = len(MODEL_MAGIC)
    (hlen,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    model = json.loads(raw[offset : offset + hlen])
    offset += hlen
    for name in MODEL_ARRAYS:
        shape = tuple(model["shapes"][name])
        count = int(np.prod(shape))
        model[name] = np.frombuffer(raw, "<f8", count, offset).reshape(shape)
        offset += 8 * count
    require(offset == len(raw), f"{path}: trailing bytes after the arrays")
    return model


def read_sample_stream(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, loadings (draws, p, k) and noise (draws, p) of a FABLESAMP1 file."""
    raw = Path(path).read_bytes()
    require(raw[:10] == SAMPLE_MAGIC, f"{path}: not a FABLESAMP1 file")
    require(len(raw) > 34, f"{path}: holds no records")
    _, k, p = struct.unpack_from("<QQQ", raw, 10)
    record = np.dtype(
        [("t", "<u8"), ("k", "<u8"), ("p", "<u8"),
         ("loadings", "<f8", (p, k)), ("noise", "<f8", (p,))]
    )
    body = len(raw) - 10
    require(body % record.itemsize == 0, f"{path}: records of unequal shape")
    recs = np.frombuffer(raw, record, offset=10)
    require(bool(np.all(recs["k"] == k) and np.all(recs["p"] == p)),
            f"{path}: records of unequal shape")
    return recs["t"].astype(np.int64), recs["loadings"], recs["noise"]


def read_intervals(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {key: np.array([float(r[key]) for r in rows])
           for key in ("center", "lower", "upper", "asym_sd")}
    out["u"] = np.array([int(r["u"]) for r in rows])
    out["v"] = np.array([int(r["v"]) for r in rows])
    return out


def read_csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def upper_pairs(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) pairs u <= v over an index list, in fable's interval order."""
    iu, iv = np.triu_indices(len(indices))
    return indices[iu], indices[iv]


def factored_entries(loadings, noise, u, v) -> np.ndarray:
    """Entries (u, v) of loadings @ loadings.T + diag(noise)."""
    return np.einsum("ek,ek->e", loadings[u], loadings[v]) + np.where(u == v, noise[u], 0.0)


def assert_close(actual, expected, rtol: float, what: str) -> None:
    """Entrywise |a - e| <= rtol * (|e| + max|e|): relative, with the block's
    scale as the floor for entries near zero."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    scale = float(np.max(np.abs(expected)))
    err = np.abs(actual - expected) / (np.abs(expected) + scale)
    worst = float(err.max())
    require(worst <= rtol, f"{what}: relative error {worst:.3g} exceeds {rtol:g}")


def ridge_posterior(x: np.ndarray, k: int, gamma0: float = 1.0, delta0_sq: float = 1.0):
    """Conjugate NIG posterior mean (mu, delta_sq) of centered data x with
    factors sqrt(n) U_k from numpy's SVD, prior scale moment-matched, and
    the ridge system solved in full rather than by its diagonal form."""
    n = x.shape[0]
    u = np.linalg.svd(x, full_matrices=False)[0][:, :k]
    factors = np.sqrt(n) * u
    ysq = np.einsum("ij,ij->j", x, x)
    projsq = np.einsum("ij,ij->j", u.T @ x, u.T @ x)
    tau_sq = float(np.mean(projsq / (ysq - projsq)) / k)
    prec = factors.T @ factors + np.eye(k) / tau_sq
    mu = np.linalg.solve(prec, factors.T @ x).T
    quad = np.einsum("jk,kl,jl->j", mu, prec, mu)
    delta_sq = (gamma0 * delta0_sq + ysq - quad) / (gamma0 + n)
    return mu, delta_sq


def align_signs(actual: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip columns of ``actual`` to agree in sign with ``reference``."""
    signs = np.sign(np.einsum("jk,jk->k", actual, reference))
    signs[signs == 0] = 1.0
    return actual * signs


def top_half_by_variance(values: np.ndarray, kept: np.ndarray, fraction: float) -> None:
    """The kept columns are the most variable ones: none dropped is more
    variable than any kept."""
    p = values.shape[1]
    var = values.var(axis=0, ddof=1)
    require(len(kept) == int(np.ceil(fraction * p)), f"kept {len(kept)} of {p} columns")
    require(bool(np.all(np.diff(kept) > 0)), "kept columns are not ascending")
    dropped = np.setdiff1d(np.arange(p), kept)
    if dropped.size:
        require(float(var[kept].min()) >= float(var[dropped].max()),
                "a dropped column is more variable than a kept one")


def asymptotic_intervals(model: dict, u, v, alpha: float = 0.05):
    """Centre and closed-form sd of entries (u, v), from the artifact's arrays."""
    mu, v_sq, rho, n = model["mu"], model["v_sq"], model["rho"], model["n"]
    m_sq = np.einsum("jk,jk->j", mu, mu)
    dots = np.einsum("ek,ek->e", mu[u], mu[v])
    diag = u == v
    cross = v_sq[v] * m_sq[u] + v_sq[u] * m_sq[v]
    l0 = np.where(diag, 2 * v_sq[u] ** 2 + 4 * rho**2 * v_sq[u] * m_sq[u], rho**2 * cross)
    center = dots + np.where(diag, model["delta_sq"][u], 0.0)
    sd = np.sqrt(l0 / n)
    return center, sd, float(ndtri(1 - alpha / 2))


def closed_form_entry_means(model: dict, u, v) -> np.ndarray:
    """E[lambda_u . lambda_v + sigma_u^2 1(u=v)] under the surrogate posterior."""
    gamma_n, k, rho = model["gamma_n"], model["k"], model["rho"]
    scale_sq = 1.0 / (model["n"] + 1.0 / model["tau_sq"])
    noise_mean = gamma_n * model["delta_sq"] / (gamma_n - 2.0)
    dots = np.einsum("ek,ek->e", model["mu"][u], model["mu"][v])
    return dots + np.where(u == v, (1.0 + k * rho**2 * scale_sq) * noise_mean[u], 0.0)
