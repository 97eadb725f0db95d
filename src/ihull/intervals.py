"""Exact rational intervals and rigorous enclosures of sqrt, pi, cos, sin.

Endpoints are rationals, so interval arithmetic here is exact: no rounding
ever happens, and an operation's result interval contains every possible
value of the operation over the input intervals (R. E. Moore's inclusion
property).  An exact number is the degenerate interval with `lo == hi`.

An interval is stored as its reduced integer triple (L, H, E), meaning
[L/E, H/E] with E > 0 and gcd(L, H, E) = 1: a canonical form, so equal
intervals have equal fields.  `lo` and `hi` build a Fraction each when read,
for JSON, checks and callers; arithmetic and every test of sign,
exactness or containment read the integers (exact is L == H, certainly
positive L > 0).  Sum, product and reciprocal run on triples, the form `lcf`
stores coefficients in: `_triple` reads the fields, `_reduced` puts a triple
over its least E by one gcd and `_interval` boxes a reduced triple as it is.
A chain of exact operations on triples gives the rationals the same chain on
Fractions gives, without a gcd after each (Brent and Zimmermann, Modern
Computer Arithmetic, ch. 1).

Enclosures are *nested under refinement*: calling any function here but
`reduce_angle` with a larger `precision` returns an interval contained in the
one returned at a smaller precision.  Tests rely on this.

cos and sin at a rational s run on integers.  An |s| of 4 or more is first
reduced by `reduce_angle` to an enclosure of s - 2 pi k within
pi + 2^-(precision + C + 8) of 0: any integer k gives the same cos and sin,
so k is not certified, and the proof below needs only that the raw enclosure
contains the value with half-width at most g.  For the magnitude a of either
end of the argument, X_lo = floor(a 2^w) and X_hi = ceil(a 2^w) at
w = precision + C + guard bits; each Taylor term magnitude a^m/m! is carried
as a lower and an upper integer, the lower one rounded down (floor division)
and the upper one up (ceil division), so the alternating partial sums plus
the tail bound next/(1 - ratio) give a raw enclosure [L, H] of the value v.
A run-time check requires (H - L)/2 <= g = 2^-(precision + C).  At 12 guard
bits it holds for an argument at most g/256 wide, as a point or a reduced
argument is, so the kernel runs once; a failure means the argument's
enclosure was wider than the proof allows, an AssertionError.  The result
is [m - 4g, m + 4g], with m the midpoint of [L, H] rounded to the nearest
multiple of g/2, so |m - v| <= 5g/4 and the endpoints are dyadic with
precision + C + 1 bits.  It contains v, and for p < q (so g_q <= g_p/2) it
nests: O_q lies within v +- 21g_q/4, so within v +- 21g_p/8, which lies
within v +- 11g_p/4, which O_p contains.  s = 0 stays exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from .errors import NotPositive


class Record:
    """An immutable record that compares, hashes, prints, pickles and copies as a frozen
    dataclass does, without importing `dataclasses`; a subclass names its fields in __slots__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)  # the tuple of field values

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        same = other.__class__ is self.__class__  # as a dataclass: no tuple is equal
        return self._fields(self) == other._fields(other) if same else NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        values = zip(self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in values)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):  # rebuilt without running a subclass's __new__ or __init__
        return object.__new__, (type(self),), self._fields(self)

    def __setstate__(self, values):
        Record.__init__(self, *values)


class Interval(Record):
    """Closed rational interval [lo, hi], lo <= hi, stored as its reduced
    integer triple (L, H, E) (module docstring)."""

    __slots__ = ("lo_num", "hi_num", "den")

    def __init__(self, lo: Fraction, hi: Fraction):
        (a, b), (c, d) = _ratio(lo), _ratio(hi)
        den = math.lcm(b, d)  # over the lcm, the triple is reduced
        lo_num, hi_num = a * (den // b), c * (den // d)
        if lo_num > hi_num:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        Record.__init__(self, lo_num, hi_num, den)

    @staticmethod
    def point(value) -> "Interval":
        """Degenerate (exact) interval."""
        n, d = _ratio(value)
        return _interval((n, n, d))

    # -- predicates ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo_num == self.hi_num

    @property
    def is_zero(self) -> bool:
        return not (self.lo_num or self.hi_num)

    def __contains__(self, value) -> bool:
        n, d = _ratio(value)
        return self.lo_num * d <= n * self.den <= self.hi_num * d

    # -- endpoints and measures: Fractions, built when read ------------------

    lo = property(lambda self: Fraction(self.lo_num, self.den))
    hi = property(lambda self: Fraction(self.hi_num, self.den))
    width = property(lambda self: Fraction(self.hi_num - self.lo_num, self.den))
    midpoint = property(lambda self: Fraction(self.lo_num + self.hi_num, 2 * self.den))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return _interval(_reduced(_sum(_triple(self), _triple(other))))

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __neg__(self) -> "Interval":
        return _interval((-self.hi_num, -self.lo_num, self.den))

    def __mul__(self, other: "Interval") -> "Interval":
        return _interval(_reduced(_product(_triple(self), _triple(other))))

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


# ---------------------------------------------------------------------------
# integer-endpoint core (module docstring)
# ---------------------------------------------------------------------------

def _ratio(value) -> tuple[int, int]:
    """(n, d) with n/d = value in lowest terms, d > 0."""
    return (value if isinstance(value, (int, Fraction)) else Fraction(value)).as_integer_ratio()


#: (L, H, E) of an interval: its three fields, read at once
_triple = Interval._fields


def _interval(c: tuple[int, int, int]) -> Interval:
    """The interval of a reduced triple (L <= H, E > 0, gcd 1), boxed as it
    is: no gcd and no check of __init__ runs."""
    interval = object.__new__(Interval)
    Record.__init__(interval, *c)
    return interval


def _product(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """The interval product of two triples, over the product of their E."""
    (l1, h1, d1), (l2, h2, d2) = x, y
    if l1 == h1:
        lo, hi = l1 * l2, l1 * h2
    elif l2 == h2:
        lo, hi = l1 * l2, h1 * l2
    else:
        p = (l1 * l2, l1 * h2, h1 * l2, h1 * h2)
        lo, hi = min(p), max(p)
    return (lo, hi, d1 * d2) if lo <= hi else (hi, lo, d1 * d2)


def _sum(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """The interval sum of two triples, over the lcm of their E."""
    (l1, h1, d1), (l2, h2, d2) = x, y
    if d1 == d2:
        return l1 + l2, h1 + h2, d1
    g = math.gcd(d1, d2)
    m1, m2 = d2 // g, d1 // g
    return l1 * m1 + l2 * m2, h1 * m1 + h2 * m2, d1 * m1


def _reduced(x: tuple[int, int, int]) -> tuple[int, int, int]:
    """x over its least E: the triple `_triple` gives for the same interval."""
    g = math.gcd(*x)
    return x[0] // g, x[1] // g, x[2] // g


def _reciprocal(x: tuple[int, int, int]) -> tuple[int, int, int]:
    """[E/H, E/L] for a triple with L H > 0, over L H and reduced."""
    lo, hi, d = x
    return _reduced((d * lo, d * hi, lo * hi))


ZERO_INTERVAL = _interval((0, 0, 1))
ONE_INTERVAL = _interval((1, 1, 1))


# ---------------------------------------------------------------------------
# square roots
# ---------------------------------------------------------------------------

def sqrt_interval(x: Interval, precision: int) -> Interval:
    """Enclosure of sqrt over the interval; requires x.lo >= 0.  At each
    endpoint n/d in lowest terms, sqrt(n/d) = isqrt(n*d*4^p) / (d*2^p) up to
    one unit in the last place (an unreduced n/d gives another rational);
    exact at perfect rational squares.  Bounds at p + 1 nest inside those at p."""
    lo_num, hi_num, den = _triple(x)
    if lo_num < 0:
        raise NotPositive(f"sqrt of interval {x} reaching below 0")
    (lo, _, d1), (_, hi, d2) = (_root_bounds(n, den, precision) for n in (lo_num, hi_num))
    return _interval(_reduced((lo * d2, hi * d1, d1 * d2)))


def _root_bounds(n: int, e: int, precision: int) -> tuple[int, int, int]:
    """(r, r', d 2^p) with r/(d 2^p) <= sqrt(n/e) <= r'/(d 2^p), d the
    denominator of n/e in lowest terms."""
    g = math.gcd(n, e)
    n, d = n // g, e // g
    shift = 1 << precision
    target = n * d * shift * shift
    root = math.isqrt(target)
    return root, root if root * root == target else root + 1, d * shift


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
    total = Fraction(0)
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
    # endpoints formed directly: a first call at a new precision then adds
    # no interval operation to the work it is made from
    return Interval(16 * a5.lo - 4 * a239.hi, 16 * a5.hi - 4 * a239.lo)


# ---------------------------------------------------------------------------
# angle reduction
# ---------------------------------------------------------------------------

def reduce_angle(x: Fraction, precision: int) -> Interval:
    """An enclosure of x - 2 pi k, k the integer nearest x / 2 pi by the
    midpoint of 2 pi enclosed at precision + n + 1 bits, |x| < 2^n.

    |k| < 2^(n+1), so it is at most 2^-precision wide and lies within
    pi + 2^-precision of 0.  k is not certified and the enclosure need not
    nest: any integer k gives the same cos and sin.
    """
    size = max(x.numerator.bit_length() - x.denominator.bit_length() + 1, 0)
    two_pi = pi_interval(precision + size + 2) * Interval.point(2)
    return Interval.point(x) - two_pi * Interval.point(round(x / two_pi.midpoint))


# ---------------------------------------------------------------------------
# cos / sin at rational arguments
# ---------------------------------------------------------------------------

#: C: the raw enclosures are at most g = 2^-(precision + C) in half-width.
_COS_SIN_EXTRA_BITS = 8
#: working bits beyond precision + C: a raw enclosure is as wide as the
#: argument plus the rounding, which these keep below g, and a reduced argument
#: is at most g/256 wide, so the width check fails only on a broken width bound
_COS_SIN_GUARD_BITS = 12
#: arguments below this are summed directly, larger ones reduced by 2 pi k
_REDUCE_ABOVE = 4


def _cos_sin_rational(s: Fraction, precision: int) -> tuple[Interval, Interval]:
    """Enclosures [m - 4g, m + 4g] of (cos s, sin s) from raw enclosures of
    half-width <= g = 2^-(precision + C) (module docstring)."""
    if not s:
        return ONE_INTERVAL, ZERO_INTERVAL
    bits = precision + _COS_SIN_EXTRA_BITS
    n, d = s.as_integer_ratio()
    angle = _interval((n, n, d)) if abs(n) < _REDUCE_ABOVE * d else reduce_angle(s, bits + 8)
    raw = _fixed_cos_sin(angle, bits + _COS_SIN_GUARD_BITS, bits)
    if raw is None:
        raise AssertionError(f"cos/sin of {s}: raw enclosure wider than 2g")
    (cos_lo, cos_hi), (sin_lo, sin_hi) = raw
    return _around(cos_lo + cos_hi, bits), _around(sin_lo + sin_hi, bits)


def _around(twice_mid: int, bits: int) -> Interval:
    """[m - 4g, m + 4g] for m = twice_mid / 2^(bits + G + 1), G the guard
    bits, rounded to the nearest multiple of g/2, g = 2^-bits."""
    m = (twice_mid + (1 << (_COS_SIN_GUARD_BITS - 1))) >> _COS_SIN_GUARD_BITS
    unit = 1 << (bits + 1)
    return _interval(_reduced((m - 8, m + 8, unit)))


def _fixed_cos_sin(x: Interval, w: int, bits: int):
    """Raw integer enclosures ((L, H), (L', H')) of 2^w cos x and 2^w sin x
    for every x in the interval, by Taylor sums on w-bit fixed point, or None
    when either is wider than 2 * 2^(w - bits)."""
    if x.lo_num >= 0:
        a_lo, a_hi, sin_sign = x.lo_num, x.hi_num, 1
    elif x.hi_num <= 0:
        a_lo, a_hi, sin_sign = -x.hi_num, -x.lo_num, -1
    else:
        a_lo, a_hi, sin_sign = 0, max(-x.lo_num, x.hi_num), 0
    one = 1 << w
    x_lo = a_lo * one // x.den
    x_hi = -(-a_hi * one // x.den)
    sq_lo = x_lo * x_lo >> w
    sq_hi = -(-x_hi * x_hi >> w)
    limit = 1 << (w - bits)  # g in units of 2^-w
    cos = _alternating_sum(one, one, sq_lo, sq_hi, 0, w, limit)
    sin = _alternating_sum(x_lo, x_hi, sq_lo, sq_hi, 1, w, limit)
    if sin_sign == 0:  # x straddles 0: sin x lies within +-sin|x|
        sin = (-sin[1], sin[1])
    elif sin_sign < 0:
        sin = (-sin[1], -sin[0])
    if max(cos[1] - cos[0], sin[1] - sin[0]) > 2 * limit:
        return None
    return cos, sin


def _alternating_sum(t_lo, t_hi, sq_lo, sq_hi, m, w, limit):
    """[L, H] containing 2^w sum_j (-1)^j a^(m+2j)/(m+2j)! for a with
    t_lo <= 2^w a^m/m! <= t_hi and sq_lo <= 2^w a^2 <= sq_hi.

    Term bounds round down and up; the sum stops once the next term is
    below limit/8 and its ratio below 1/2, and adds +-next/(1 - ratio).
    """
    lo = hi = 0
    sign = 1
    while True:
        divisor = (m + 1) * (m + 2) << w
        next_lo = t_lo * sq_lo // divisor
        next_hi = -(-t_hi * sq_hi // divisor)
        if sign > 0:
            lo, hi = lo + t_lo, hi + t_hi
        else:
            lo, hi = lo - t_hi, hi - t_lo
        if 2 * sq_hi < divisor and 8 * next_hi <= limit:
            tail = -(-next_hi * divisor // (divisor - sq_hi))
            return lo - tail, hi + tail
        t_lo, t_hi, sign, m = next_lo, next_hi, -sign, m + 2


def cos_sin_interval(x: Interval, precision: int) -> tuple[Interval, Interval]:
    """Enclosures of (cos, sin) over a rational interval.

    Evaluates both at the midpoint and pads each by the halfwidth
    (|cos'|, |sin'| <= 1), then clamps to [-1, 1].  An exact point is its
    own midpoint and needs no pad, and an enclosure within [-1, 1] no clamp.
    """
    c, s = _cos_sin_rational(x.midpoint, precision)
    lo, hi, den = _triple(x)
    if lo != hi:
        pad = (lo - hi, hi - lo, 2 * den)  # [-w/2, w/2], w the width
        c, s = (_interval(_reduced(_sum(_triple(e), pad))) for e in (c, s))
    return _clamp(c), _clamp(s)


def _clamp(enc: Interval) -> Interval:
    if -enc.den <= enc.lo_num and enc.hi_num <= enc.den:
        return enc
    return enc.intersect(_interval((-1, 1, 1))) or enc
