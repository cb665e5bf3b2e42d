"""Symmetric eigenvalue steps from the LAPACK that numpy itself ships.

``truncated_svd`` needs every eigenvalue of its Gram matrix but only the
top few eigenvectors, where ``numpy.linalg.eigh`` forms all of them. The
LAPACK routines below do only the work needed: ``dsytrd`` reduces the
matrix to tridiagonal form once, ``dsterf`` takes every eigenvalue from
that, ``dstebz`` and ``dstein`` the top eigenvectors of the tridiagonal,
and ``dormtr`` maps those back.

numpy's wheels bundle OpenBLAS, LAPACK included, as
``numpy.libs/libscipy_openblas64_*.so``: 64-bit integers, symbols named
``scipy_<routine>_64_``. Going through it keeps scipy out of a fit. The
library is opened on first use, not on import. When it or a routine is
missing (:func:`available` is False), the caller takes numpy's ``eigh``;
a failure LAPACK reports raises :class:`~fable.errors.ConvergenceFailure`,
and the caller then takes the SVD.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure

_LIBRARY = "libscipy_openblas64_*.so"
_SYMBOL = "scipy_{}_64_"

_INT = ctypes.POINTER(ctypes.c_int64)
_REAL = ctypes.POINTER(ctypes.c_double)
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t  # gfortran's hidden length of a character argument
_REALS = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_INTS = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")

_ARGTYPES = {
    # uplo, n, a, lda, d, e, tau, work, lwork, info
    "dsytrd": [_CHAR, _INT, _REALS, _INT, _REALS, _REALS, _REALS, _REALS, _INT, _INT, _LEN],
    # n, d, e, info
    "dsterf": [_INT, _REALS, _REALS, _INT],
    # range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock,
    # isplit, work, iwork, info
    "dstebz": [_CHAR, _CHAR, _INT, _REAL, _REAL, _INT, _INT, _REAL, _REALS, _REALS,
               _INT, _INT, _REALS, _INTS, _INTS, _REALS, _INTS, _INT, _LEN, _LEN],
    # n, d, e, m, w, iblock, isplit, z, ldz, work, iwork, ifail, info
    "dstein": [_INT, _REALS, _REALS, _INT, _REALS, _INTS, _INTS, _REALS, _INT, _REALS,
               _INTS, _INTS, _INT],
    # side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork, info
    "dormtr": [_CHAR, _CHAR, _CHAR, _INT, _INT, _REALS, _INT, _REALS, _REALS, _INT,
               _REALS, _INT, _INT, _LEN, _LEN, _LEN],
}


@functools.cache
def _routines() -> dict | None:
    """The five routines by name, or None when numpy ships no such library
    or it lacks one of them."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, _LIBRARY))):
        try:
            lib = ctypes.CDLL(path)
            found = {name: getattr(lib, _SYMBOL.format(name)) for name in _ARGTYPES}
        except (OSError, AttributeError):
            continue
        for name, fn in found.items():
            fn.argtypes = _ARGTYPES[name]
            fn.restype = None
        return found
    return None


def available() -> bool:
    """Whether numpy ships the library with all five routines."""
    return _routines() is not None


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _real(value: float):
    return ctypes.byref(ctypes.c_double(value))


def _workspace(call) -> np.ndarray:
    """The work array a routine asks for in its workspace query, which
    ``call(work, lwork, info)`` runs."""
    size, info = np.zeros(1), ctypes.c_int64(0)
    call(size, _int(-1), ctypes.byref(info))
    return np.empty(max(1, int(size[0])))


def _check(routine: str, info: ctypes.c_int64, found: int = 0, wanted: int = 0) -> None:
    """Refuse a nonzero ``info`` from ``routine``, or a count other than wanted."""
    if info.value or found != wanted:
        raise ConvergenceFailure(f"LAPACK {routine} failed: info={info.value}, {found} of {wanted}")


def eigh(a: np.ndarray) -> tuple[np.ndarray, Callable[[int], np.ndarray]]:
    """Every eigenvalue of the symmetric float64 matrix ``a``, largest
    first, and a function that gives the eigenvectors of the m largest
    as an n x m array, largest first. ``a`` is reduced in place to the
    Householder reflectors of Q in Q' A Q = T, T tridiagonal. A failure
    LAPACK reports, here or in that function, raises
    :class:`ConvergenceFailure`. Needs :func:`available`."""
    lapack = _routines()
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigh needs a square float64 matrix")
    if not a.flags.c_contiguous or not a.flags.writeable:
        raise ValueError("eigh needs a writable C-contiguous matrix")
    n = a.shape[0]
    d, e, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1))
    info = ctypes.c_int64(0)

    # A symmetric row-major buffer is its own column-major transpose, so it
    # goes to LAPACK as it is; d and e are then T's diagonal and off-diagonal
    def dsytrd(work, lwork, info_ref):
        lapack["dsytrd"](b"L", _int(n), a, _int(n), d, e, tau, work, lwork, info_ref, 1)

    work = _workspace(dsytrd)
    dsytrd(work, _int(work.shape[0]), ctypes.byref(info))
    _check("dsytrd", info)
    evals = d.copy()
    lapack["dsterf"](_int(n), evals, e.copy(), ctypes.byref(info))
    _check("dsterf", info)

    def top_vectors(m: int) -> np.ndarray:
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= {n} eigenvectors, got {m}")
        found, nsplit = ctypes.c_int64(0), ctypes.c_int64(0)
        w = np.empty(n)
        iblock, isplit = np.empty(n, np.int64), np.empty(n, np.int64)
        # RANGE "I" over the m largest (1-based ascending indices), ORDER "B"
        # as dstein wants; abstol 2 * safmin asks for full relative accuracy
        lapack["dstebz"](
            b"I", b"B", _int(n), _real(0.0), _real(0.0), _int(n - m + 1), _int(n),
            _real(2.0 * np.finfo(np.float64).tiny), d, e, ctypes.byref(found),
            ctypes.byref(nsplit), w, iblock, isplit, np.empty(4 * n),
            np.empty(3 * n, np.int64), ctypes.byref(info), 1, 1,
        )
        _check("dstebz", info, found.value, m)
        # Fortran's n x m column-major Z is this (m, n) row-major array
        z = np.empty((m, n))
        lapack["dstein"](
            _int(n), d, e, _int(m), w, iblock, isplit, z, _int(n), np.empty(5 * n),
            np.empty(n, np.int64), np.empty(m, np.int64), ctypes.byref(info),
        )
        _check("dstein", info)

        def dormtr(work, lwork, info_ref):
            lapack["dormtr"](
                b"L", b"L", b"N", _int(n), _int(m), a, _int(n), tau, z, _int(n), work,
                lwork, info_ref, 1, 1, 1,
            )

        work = _workspace(dormtr)
        dormtr(work, _int(work.shape[0]), ctypes.byref(info))
        _check("dormtr", info)
        # dstebz orders by split block; sort to largest first
        return z[np.argsort(-w[:m], kind="stable")].T

    return evals[::-1], top_vectors
