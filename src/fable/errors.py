"""Exception types raised across the package.

Everything derives from :class:`FableError` so callers can catch one type
at the boundary (the CLI does exactly that and turns it into an error
record on stderr).
"""

from __future__ import annotations


class FableError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOption(FableError, ValueError):
    """An option or argument value is refused: out of range, NaN, an
    unknown choice, or missing. A ValueError too, for older callers."""


class NonFinite(FableError):
    """An input or a result holds NaN or infinity: data or model arrays,
    or a draw, log-likelihood, entry statistic, interval or posterior mean
    past the double range."""


class TooFewRows(FableError):
    """Operation needs more rows than the input provides."""


class DimensionMismatch(FableError):
    """Shapes of two inputs are incompatible."""


class RankOutOfRange(FableError):
    """Requested rank k is outside [1, min(n, p)]."""


class NonPositiveDiag(FableError):
    """Diagonal of a covariance must be strictly positive."""


class ConvergenceFailure(FableError):
    """A numerical routine failed: an iteration cap was hit before the
    tolerance was met, a LAPACK routine returned an error, or the SVD
    did not converge."""


class AllZeroSpectrum(FableError):
    """Singular value spectrum is identically zero."""


class ZeroResidual(FableError):
    """Residual sum of squares is zero where a positive value is required."""


class ZeroResidualVariance(FableError):
    """A column's residual variance is numerically zero; noise-level
    estimation would divide by it."""


class DegenerateDenominator(FableError):
    """Variance-ratio denominator vanished while the numerator did not."""


class BracketFailure(FableError):
    """Root-finding bracket does not enclose a sign change."""


class InvalidSampleCount(FableError):
    """Number of requested samples must be a positive integer."""


class TooFewSamples(FableError):
    """Not enough samples for the requested quantile computation."""


class GammaTooSmall(FableError):
    """Posterior mean of the noise variance needs shape gamma_n > 2."""


class InvalidAlpha(FableError):
    """Interval level alpha must lie strictly inside (0, 1)."""


class InvalidSpectrumFraction(FableError):
    """Spectrum-mass fraction S0 must lie in (0, 1]."""


class IndexOutOfRange(FableError):
    """A variable index falls outside [0, p)."""


class OverlappingIndexSets(FableError):
    """Index sets that must be disjoint share elements."""


class EmptyTarget(FableError):
    """Target index set must be non-empty."""


class ParseError(FableError):
    """Malformed text input; message carries line and column context."""


class ShapeError(FableError):
    """Parsed input has inconsistent row lengths or impossible dimensions."""


class MagicMismatch(FableError):
    """Binary input does not start with the expected magic bytes."""


class NegativeCount(FableError):
    """Count data required by a log transform contains negative values."""


class OutOfMemory(FableError):
    """An allocation failed: the command needs more memory than is free."""


class ReplayMismatch(FableError):
    """A replayed command wrote outputs that differ from its manifest."""
