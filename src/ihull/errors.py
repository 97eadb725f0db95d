"""Exception types shared across the package.

Arithmetic on truncated series with interval coefficients is three-valued:
a query can succeed, fail, or be undecidable at the working precision /
truncation order.  Undecidable queries raise rather than guess; the caller
can retry at a higher order or precision.
"""

from __future__ import annotations


class IhullError(Exception):
    """Base class for all package errors."""


class ParseError(IhullError):
    """Malformed number/point/expression literal.

    `position` is the 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IndeterminateComparison(IhullError):
    """A sign/order query that the stored enclosure cannot decide.

    `exponent` is the exponent of t at which the decision blocked, so the
    caller knows what order/precision a retry would need.
    """

    def __init__(self, message: str, exponent=None):
        if exponent is not None:
            message = f"{message} (blocking exponent {exponent})"
        super().__init__(message)
        self.exponent = exponent


class ZeroOrUnknownLeading(IhullError):
    """Inversion of a value whose leading coefficient may be zero."""


class NotPositive(IhullError):
    """Square root of a value whose leading coefficient is not certainly positive."""


class NotFinite(IhullError):
    """A finite (galaxy) value was required but cannot be certified."""


class BranchIndeterminate(IndeterminateComparison):
    """Angle gap vs. pi undecidable, so the geodesic branch cannot be chosen."""


class InvalidPoint(IhullError):
    """Coordinates violate a space's domain constraints (e.g. r <= 0)."""


class PreconditionViolated(IhullError):
    """An operation-specific precondition failed decidably."""


class NotApplicable(IhullError):
    """A certificate's applicability conditions cannot be established."""


class NotStandard(IhullError):
    """Exact standard coordinates were required."""


class SpaceMismatch(IhullError):
    """A point was used with a space it does not belong to."""


class OutOfWindow(IhullError):
    """A query point lies outside the oracle grid window (or its margin)."""
