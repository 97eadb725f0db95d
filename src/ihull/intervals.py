"""Exact rational intervals and rigorous enclosures of sqrt, pi, cos, sin.

All endpoints are `fractions.Fraction`, so interval arithmetic here is exact:
no rounding ever happens, and an operation's result interval contains every
possible value of the operation over the input intervals.  An exact number is
the degenerate interval with `lo == hi`.

Enclosures are *nested under refinement*: calling any function here with a
larger `precision` returns an interval contained in the one returned at a
smaller precision.  Tests rely on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotPositive

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi]; invariant lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(value) -> "Interval":
        """Degenerate (exact) interval."""
        q = Fraction(value)
        return Interval(q, q)

    @classmethod
    def _unchecked(cls, lo: Fraction, hi: Fraction) -> "Interval":
        """Internal constructor for endpoints already known valid."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "lo", lo)
        object.__setattr__(obj, "hi", hi)
        return obj

    # -- predicates ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def is_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __contains__(self, value) -> bool:
        q = Fraction(value)
        return self.lo <= q <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # -- measures -----------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def mag(self) -> Fraction:
        """max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        if self.lo is self.hi or self.lo == self.hi:
            lo = self.lo + other.lo
            if other.lo == other.hi:
                return Interval._unchecked(lo, lo)
            return Interval._unchecked(lo, self.lo + other.hi)
        return Interval._unchecked(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __neg__(self) -> "Interval":
        return Interval._unchecked(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        if self.lo == self.hi:
            return other.scale(self.lo)
        if other.lo == other.hi:
            return self.scale(other.lo)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval._unchecked(min(products), max(products))

    def scale(self, factor) -> "Interval":
        f = factor if isinstance(factor, Fraction) else Fraction(factor)
        if self.lo == self.hi:
            p = self.lo * f
            return Interval._unchecked(p, p)
        if f >= 0:
            return Interval._unchecked(self.lo * f, self.hi * f)
        return Interval._unchecked(self.hi * f, self.lo * f)

    def reciprocal(self) -> "Interval":
        if self.contains_zero():
            raise ZeroDivisionError("reciprocal of an interval containing 0")
        return Interval(1 / self.hi, 1 / self.lo)

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    # -- display ------------------------------------------------------------

    def __float__(self) -> float:
        return float(self.midpoint)

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


ZERO_INTERVAL = Interval(_ZERO, _ZERO)
ONE_INTERVAL = Interval(_ONE, _ONE)


# ---------------------------------------------------------------------------
# square roots
# ---------------------------------------------------------------------------

def sqrt_bounds(x: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    """Rational bounds lo <= sqrt(x) <= hi with hi - lo <= 2^-precision.

    Scales to an integer square root: sqrt(n/d) = isqrt(n*d*4^p) / (d*2^p),
    up to one unit in the last place.  Exact when x is a perfect rational
    square.  Bounds at precision p+1 are nested inside those at p.
    """
    if x < 0:
        raise NotPositive(f"sqrt of negative rational {x}")
    if x == 0:
        return _ZERO, _ZERO
    n, d = x.numerator, x.denominator
    shift = 1 << precision
    target = n * d * shift * shift
    root = math.isqrt(target)
    denom = d * shift
    if root * root == target:
        exact = Fraction(root, denom)
        return exact, exact
    return Fraction(root, denom), Fraction(root + 1, denom)


def sqrt_interval(x: Interval, precision: int) -> Interval:
    """Enclosure of sqrt over the interval; requires x.lo >= 0."""
    if x.lo < 0:
        raise NotPositive(f"sqrt of interval {x} reaching below 0")
    lo, _ = sqrt_bounds(x.lo, precision)
    _, hi = sqrt_bounds(x.hi, precision)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

def _arctan_inv_bounds(x: int, target: Fraction) -> Interval:
    """Enclosure of arctan(1/x) from consecutive partial sums.

    The series sum (-1)^k / ((2k+1) x^(2k+1)) alternates with strictly
    decreasing terms, so the limit always lies between consecutive partial
    sums.  More terms give nested enclosures.
    """
    x2 = x * x
    power = x  # x^(2k+1)
    k = 0
    total = _ZERO
    while True:
        term = Fraction(1, (2 * k + 1) * power)
        if term <= target:
            if k % 2 == 0:
                return Interval(total, total + term)
            return Interval(total - term, total)
        total += term if k % 2 == 0 else -term
        power *= x2
        k += 1


@lru_cache(maxsize=None)
def pi_interval(precision: int) -> Interval:
    """Rational interval containing pi with width <= 2^-precision.

    Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239), each arctan
    bracketed by consecutive alternating partial sums.
    """
    if precision < 1:
        raise ValueError("precision must be a positive integer")
    target = Fraction(1, 1 << (precision + 6))
    a5 = _arctan_inv_bounds(5, target)
    a239 = _arctan_inv_bounds(239, target)
    return a5.scale(16) - a239.scale(4)


def two_pi_interval(precision: int) -> Interval:
    return pi_interval(precision + 1).scale(2)


# ---------------------------------------------------------------------------
# cos / sin at rational arguments
# ---------------------------------------------------------------------------

def _cos_sin_rational(s: Fraction, precision: int) -> tuple[Interval, Interval]:
    """Taylor enclosures of (cos s, sin s) for exact rational s.

    The remainder after the partial sum is bounded by the next term's
    magnitude divided by (1 - q), q the (eventually < 1/2) term ratio; this
    geometric form makes enclosures at higher precision nested inside those
    at lower precision.
    """
    target = Fraction(1, 1 << (precision + 1))
    s2 = s * s

    def series(start_term: Fraction, first_index: int) -> Interval:
        # terms a_j = |s|^(m)/m! at m = first_index, first_index+2, ...
        total = _ZERO
        term = start_term
        m = first_index
        sign = 1
        while True:
            ratio = s2 / ((m + 1) * (m + 2))
            next_term = term * ratio
            if ratio < Fraction(1, 2) and next_term <= target:
                tail = next_term / (1 - ratio)
                total += sign * term
                return Interval(total - tail, total + tail)
            total += sign * term
            term = next_term
            sign = -sign
            m += 2

    return series(_ONE, 0), series(s, 1) if s >= 0 else -series(-s, 1)


def cos_sin_interval(x: Interval, precision: int) -> tuple[Interval, Interval]:
    """Enclosures of (cos, sin) over a rational interval.

    Evaluates both at the midpoint and pads each by the halfwidth
    (|cos'|, |sin'| <= 1), then clamps to [-1, 1].
    """
    c, s = _cos_sin_rational(x.midpoint, precision)
    return _pad_and_clamp(c, x.width / 2), _pad_and_clamp(s, x.width / 2)


def _pad_and_clamp(enc: Interval, pad: Fraction) -> Interval:
    padded = Interval(enc.lo - pad, enc.hi + pad)
    clamped = padded.intersect(Interval(Fraction(-1), Fraction(1)))
    return clamped if clamped is not None else padded
