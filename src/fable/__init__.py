"""Factor-based covariance estimation for wide data.

Fits a low-rank-plus-diagonal covariance to an n x p data matrix via a
truncated SVD, puts conjugate Normal-Inverse-Gamma posteriors on the
per-variable loadings and noise variances, and quantifies uncertainty
either by direct Monte Carlo draws from that surrogate posterior or by
closed-form asymptotic intervals. No Markov chains are involved, so the
expensive steps are one SVD and (optionally) embarrassingly parallel
sampling.
"""

from .errors import FableError
from .linalg import (
    DataMatrix,
    LinearMap,
    StructuredCovariance,
    TruncatedSvd,
    center_columns,
    gaussian_loglik,
    spectral_norm,
    truncated_svd,
)

__version__ = "0.5.2"

__all__ = [
    "FableError",
    "DataMatrix",
    "LinearMap",
    "StructuredCovariance",
    "TruncatedSvd",
    "center_columns",
    "gaussian_loglik",
    "spectral_norm",
    "truncated_svd",
    "__version__",
]
