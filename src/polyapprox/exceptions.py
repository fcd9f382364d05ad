"""Exception types raised across the package.

Parsing errors identify the offending line or digit so callers can point
users at the exact spot in an input file.  Numeric errors carry enough
context to distinguish bad inputs from degenerate geometry.
"""

__all__ = [
    "PolyApproxError",
    "MalformedLine",
    "TooFewPoints",
    "DuplicateConsecutive",
    "InvalidDigit",
    "NotClosed",
    "DegenerateSegment",
    "CurveTooLarge",
    "InvalidCounts",
    "AboveBound",
    "ZeroError",
    "ConstantSeries",
    "LengthMismatch",
    "AllZero",
    "InvalidGeometry",
]


class PolyApproxError(Exception):
    """Base class for all package errors."""


class MalformedLine(PolyApproxError):
    """Curve input is malformed: a line is not a pair of integers, the
    bytes are not UTF-8, or a coordinate is not a 64-bit integer."""


class TooFewPoints(PolyApproxError):
    """A closed curve needs at least 3 points."""


class DuplicateConsecutive(PolyApproxError):
    """Two consecutive curve points (including the wrap pair) coincide."""


class InvalidDigit(PolyApproxError):
    """A chain-code character is outside 0..7."""


class NotClosed(PolyApproxError):
    """A chain-code trace does not return to its start point."""


class DegenerateSegment(PolyApproxError):
    """Segment endpoints coincide, so no line is defined."""


class CurveTooLarge(PolyApproxError):
    """A curve's O(n^2) cost tables would exceed the memory limit."""


class InvalidCounts(PolyApproxError):
    """A vertex or size argument is out of its allowed range."""


class AboveBound(PolyApproxError):
    """A read needs optimal values, or compares a scheme error, above the
    bound its cost table was built to; `counts` are the vertex counts
    whose values are needed, none for the error."""

    def __init__(self, message: str, counts: tuple[int, ...] = ()):
        super().__init__(message)
        self.counts = counts


class ZeroError(PolyApproxError):
    """A ratio against a zero approximation error is undefined."""


class ConstantSeries(PolyApproxError):
    """Correlation of a zero-variance series is undefined."""


class LengthMismatch(PolyApproxError):
    """Paired series must have equal length (and enough points)."""


class AllZero(PolyApproxError):
    """A series of all zeros cannot be rescaled."""


class InvalidGeometry(PolyApproxError):
    """A geometric normalizer (extent, denominator) is not positive."""
