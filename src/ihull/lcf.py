"""A computable ordered non-Archimedean field of truncated power series.

Values are finite sums  sum_i c_i * t^(q_i)  in a fixed positive
infinitesimal t, with strictly increasing rational exponents q_i and
rational-interval coefficients c_i, plus a truncation order T: exponents at
or above T are unknown.  Such a value denotes the *set* of field elements

    sum_i c_i t^(q_i) + tail,   c_i in its interval,
                                tail any finite sum supported on [T, oo).

Negative exponents give infinite elements (t^-1 is the canonical infinite
witness), positive exponents infinitesimal ones (t is the canonical
infinitesimal).  A value is exact when T = oo and every coefficient interval
is a point; arithmetic on exact values is exact.

Sign and magnitude queries answer only when every member of the denoted set
agrees; otherwise they report unknown / raise IndeterminateComparison with
the blocking exponent, so callers can retry at higher order or precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    IndeterminateComparison,
    NotFinite,
    NotPositive,
    PreconditionViolated,
    ZeroOrUnknownLeading,
)
from .intervals import (
    Interval,
    ONE_INTERVAL,
    ZERO_INTERVAL,
    cos_sin_interval,
    pi_interval,
    sqrt_interval,
)

#: Truncation order of exact values ("no unknown tail").
INFINITE_ORDER = math.inf

#: Library-wide defaults, overridable per call and from the CLI.
DEFAULT_ORDER = Fraction(8)
DEFAULT_PRECISION = 64


class Ordering(Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"


class Magnitude(Enum):
    """Coarse size of a field element relative to the standard reals."""

    INFINITESIMAL = "infinitesimal"
    APPRECIABLE = "appreciable"
    INFINITE = "infinite"
    UNKNOWN = "unknown"


class Ternary(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def _as_exponent(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _as_order(value):
    if value is INFINITE_ORDER or value == math.inf:
        return INFINITE_ORDER
    return Fraction(value)


def _as_interval(value) -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval.point(Fraction(value))


@dataclass(frozen=True)
class LeviCivitaNumber:
    """Truncated series with interval coefficients; immutable.

    `terms` is kept canonical: strictly increasing exponents, no [0, 0]
    coefficients, every exponent below `order`.  Construction merges
    duplicate exponents by interval addition and drops out-of-range terms.
    """

    terms: tuple[tuple[Fraction, Interval], ...] = ()
    order: Fraction | float = INFINITE_ORDER

    def __post_init__(self):
        order = _as_order(self.order)
        merged: dict[Fraction, Interval] = {}
        for exponent, coeff in self.terms:
            q = _as_exponent(exponent)
            c = _as_interval(coeff)
            merged[q] = merged[q] + c if q in merged else c
        canonical = tuple(
            (q, c) for q, c in sorted(merged.items()) if q < order and not c.is_zero
        )
        object.__setattr__(self, "terms", canonical)
        object.__setattr__(self, "order", order)

    @classmethod
    def _from_canonical(cls, terms, order) -> "LeviCivitaNumber":
        """Internal constructor for terms already in canonical form."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "order", order)
        return obj

    # -- inspection ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.order is INFINITE_ORDER and all(c.is_exact for _, c in self.terms)

    @property
    def is_zero(self) -> bool:
        """Exactly zero (not merely indistinguishable from it)."""
        return not self.terms and self.order is INFINITE_ORDER

    @property
    def leading(self) -> tuple[Fraction, Interval] | None:
        return self.terms[0] if self.terms else None

    @property
    def lead_exponent(self) -> Fraction | None:
        return self.terms[0][0] if self.terms else None

    def coefficient(self, exponent) -> Interval:
        q = _as_exponent(exponent)
        for e, c in self.terms:
            if e == q:
                return c
        return ZERO_INTERVAL

    # -- operators ------------------------------------------------------------

    def __add__(self, other: "LeviCivitaNumber") -> "LeviCivitaNumber":
        return add(self, other)

    def __sub__(self, other: "LeviCivitaNumber") -> "LeviCivitaNumber":
        return add(self, neg(other))

    def __neg__(self) -> "LeviCivitaNumber":
        return neg(self)

    def __mul__(self, other: "LeviCivitaNumber") -> "LeviCivitaNumber":
        return mul(self, other)

    def __str__(self) -> str:
        from .parsing import format_number

        return format_number(self)

    def __repr__(self) -> str:
        return f"LeviCivitaNumber({self})"


# -- constructors -------------------------------------------------------------

def zero(order=INFINITE_ORDER) -> LeviCivitaNumber:
    return LeviCivitaNumber((), order)


def one() -> LeviCivitaNumber:
    return LeviCivitaNumber(((Fraction(0), ONE_INTERVAL),))


def from_rational(value) -> LeviCivitaNumber:
    return monomial(Fraction(value), 0)


def from_interval(value: Interval) -> LeviCivitaNumber:
    return monomial(value, 0)


def monomial(coeff, exponent) -> LeviCivitaNumber:
    return LeviCivitaNumber(((_as_exponent(exponent), _as_interval(coeff)),))


def t_power(exponent) -> LeviCivitaNumber:
    return monomial(1, exponent)


#: Canonical infinitesimal and infinite witnesses.
T = t_power(1)
T_INVERSE = t_power(-1)


# -- structural helpers --------------------------------------------------------

def truncate(a: LeviCivitaNumber, order) -> LeviCivitaNumber:
    """Forget everything at or above `order` (keeps the tighter of the two)."""
    order = _as_order(order)
    if order >= a.order:
        return a
    kept = a.terms
    while kept and kept[-1][0] >= order:
        kept = kept[:-1]
    return LeviCivitaNumber._from_canonical(kept, order)


def shift(a: LeviCivitaNumber, delta) -> LeviCivitaNumber:
    """Multiply by t^delta: shifts every exponent and the truncation order."""
    d = _as_exponent(delta)
    return LeviCivitaNumber._from_canonical(
        tuple((q + d, c) for q, c in a.terms),
        a.order if a.order is INFINITE_ORDER else a.order + d,
    )


def scale(a: LeviCivitaNumber, factor) -> LeviCivitaNumber:
    """Multiply by a scalar rational or interval (exponents unchanged)."""
    f = _as_interval(factor)
    if f.is_zero:
        return zero()  # an exact zero factor leaves no unknown tail
    return LeviCivitaNumber._from_canonical(
        tuple((q, c * f) for q, c in a.terms), a.order
    )


def _lead_or_zero(a: LeviCivitaNumber) -> Fraction:
    return a.terms[0][0] if a.terms else Fraction(0)


# -- ring operations ------------------------------------------------------------

def add(a: LeviCivitaNumber, b: LeviCivitaNumber) -> LeviCivitaNumber:
    order = min(a.order, b.order)
    merged = []
    i = j = 0
    ta, tb = a.terms, b.terms
    while i < len(ta) and j < len(tb):
        qa, qb = ta[i][0], tb[j][0]
        if qa < qb:
            merged.append(ta[i])
            i += 1
        elif qb < qa:
            merged.append(tb[j])
            j += 1
        else:
            coeff = ta[i][1] + tb[j][1]
            if not coeff.is_zero:
                merged.append((qa, coeff))
            i += 1
            j += 1
    merged.extend(ta[i:])
    merged.extend(tb[j:])
    while merged and merged[-1][0] >= order:
        merged.pop()
    return LeviCivitaNumber._from_canonical(tuple(merged), order)


def neg(a: LeviCivitaNumber) -> LeviCivitaNumber:
    return LeviCivitaNumber._from_canonical(
        tuple((q, -c) for q, c in a.terms), a.order
    )


def sub(a: LeviCivitaNumber, b: LeviCivitaNumber) -> LeviCivitaNumber:
    return add(a, neg(b))


def mul(a: LeviCivitaNumber, b: LeviCivitaNumber, cap=INFINITE_ORDER) -> LeviCivitaNumber:
    """Cauchy product, optionally truncated at `cap`.

    The unknown tail of one factor meets the leading term of the other at
    exponent T_a + lead(b) (resp. T_b + lead(a)), which caps the result's
    truncation order; two exact factors stay exact.  Term pairs landing at
    or above the resulting order are never multiplied out.  A product with
    an exactly zero factor is exactly zero, whatever the other's tail.
    """
    if a.is_zero or b.is_zero:
        return zero()
    if a.order is INFINITE_ORDER and b.order is INFINITE_ORDER:
        order = cap
    else:
        order = min(
            a.order + _lead_or_zero(b), b.order + _lead_or_zero(a), cap
        )
    accumulated: dict[Fraction, Interval] = {}
    for qa, ca in a.terms:
        if qa + _lead_or_zero(b) >= order:
            break  # b's exponents only grow from its lead
        for qb, cb in b.terms:
            q = qa + qb
            if q >= order:
                break
            product = ca * cb
            if q in accumulated:
                accumulated[q] = accumulated[q] + product
            else:
                accumulated[q] = product
    terms = tuple(
        (q, c) for q, c in sorted(accumulated.items()) if not c.is_zero
    )
    return LeviCivitaNumber._from_canonical(terms, order)


def inverse(a: LeviCivitaNumber, order=DEFAULT_ORDER) -> LeviCivitaNumber:
    """Multiplicative inverse via the geometric series.

    Writes a = c t^q (1 + u) with u infinitesimal and returns
    c^-1 t^-q sum (-u)^k, the series truncated at `order`, so that
    mul(a, inverse(a, order)) = 1 + O(t^order).  Exact monomials invert
    exactly.
    """
    order = _as_order(order)
    lead = a.leading
    if lead is None or lead[1].contains_zero():
        raise ZeroOrUnknownLeading(
            "cannot invert: leading coefficient is zero or of unknown sign"
        )
    q, c, u = _split_leading(a)
    (series,) = _power_series(neg(u), order, itertools.repeat(1))
    return shift(scale(series, c.reciprocal()), -q)


# -- order ------------------------------------------------------------------------

def _sign_possibilities(a: LeviCivitaNumber) -> tuple[set[int], Fraction | float | None]:
    """Signs the denoted set can take, plus the first blocking exponent.

    Walks terms from the dominant (smallest) exponent; a coefficient interval
    that excludes zero settles the sign, one that contains zero branches
    (this coefficient could vanish, deferring to later terms).  The unknown
    tail contributes every sign when the truncation order is finite.
    """
    signs: set[int] = set()
    blocking = None
    for q, c in a.terms:
        if c.lo > 0:
            signs.add(1)
            return signs, blocking
        if c.hi < 0:
            signs.add(-1)
            return signs, blocking
        if blocking is None:
            blocking = q
        if c.hi > 0:
            signs.add(1)
        if c.lo < 0:
            signs.add(-1)
    if a.order is INFINITE_ORDER:
        signs.add(0)
    else:
        signs.update((-1, 0, 1))
        if blocking is None:
            blocking = a.order
    return signs, blocking


def sign(a: LeviCivitaNumber) -> int:
    """-1, 0, or +1; raises IndeterminateComparison when undecided."""
    signs, blocking = _sign_possibilities(a)
    if len(signs) == 1:
        return signs.pop()
    raise IndeterminateComparison("sign undecidable at current precision", blocking)


def compare(a: LeviCivitaNumber, b: LeviCivitaNumber) -> Ordering:
    """Three-way comparison; EQ only for exactly equal exact values."""
    s = sign(sub(a, b))
    return Ordering.GT if s > 0 else Ordering.LT if s < 0 else Ordering.EQ


def abs_value(a: LeviCivitaNumber) -> LeviCivitaNumber:
    """|a| when the sign is decidable."""
    return neg(a) if sign(a) < 0 else a


def magnitude_bound(a: LeviCivitaNumber) -> LeviCivitaNumber:
    """Exact-coefficient upper bound for |x| over every member x of `a`."""
    return LeviCivitaNumber(
        tuple((q, Interval.point(c.mag())) for q, c in a.terms), a.order
    )


# -- magnitude classification -------------------------------------------------------

def _class_of_exponent(q: Fraction) -> Magnitude:
    if q < 0:
        return Magnitude.INFINITE
    if q == 0:
        return Magnitude.APPRECIABLE
    return Magnitude.INFINITESIMAL


def classify_magnitude(a: LeviCivitaNumber) -> Magnitude:
    """Infinitesimal / appreciable / infinite, or unknown if members disagree.

    Zero counts as infinitesimal.  A coefficient interval containing zero at
    the decisive exponent branches the scan, so e.g. [-d, d]*t^-2 + 5*t^-1 is
    still decidably infinite, while [-d, d] + t is unknown (appreciable or
    infinitesimal depending on the true coefficient).
    """
    possible: set[Magnitude] = set()
    for q, c in a.terms:
        possible.add(_class_of_exponent(q))
        if not c.contains_zero():
            break
    else:
        if a.order is INFINITE_ORDER or a.order > 0:
            possible.add(Magnitude.INFINITESIMAL)
        elif a.order == 0:
            possible.update((Magnitude.INFINITESIMAL, Magnitude.APPRECIABLE))
        else:
            possible.update(
                (Magnitude.INFINITESIMAL, Magnitude.APPRECIABLE, Magnitude.INFINITE)
            )
    if len(possible) == 1:
        return possible.pop()
    return Magnitude.UNKNOWN


def is_surely_finite(a: LeviCivitaNumber) -> bool:
    """True when every member is finite: no exponent below 0 anywhere."""
    if a.terms and a.terms[0][0] < 0:
        return False
    return a.order is INFINITE_ORDER or a.order >= 0


def standard_part(a: LeviCivitaNumber) -> Interval:
    """The real coefficient at exponent 0, as an interval; st(a) - a is
    infinitesimal.

    Requires `a` certainly finite and determined at exponent 0 (truncation
    order above 0), else NotFinite.
    """
    if not is_surely_finite(a):
        raise NotFinite("standard part undefined: value may be infinite")
    if a.order is not INFINITE_ORDER and a.order <= 0:
        raise NotFinite(
            f"standard part undetermined: truncation order {a.order} <= 0"
        )
    return a.coefficient(0)


def halo_equal(a: LeviCivitaNumber, b: LeviCivitaNumber) -> Ternary:
    """Whether a - b is infinitesimal (same halo)."""
    m = classify_magnitude(sub(a, b))
    if m is Magnitude.INFINITESIMAL:
        return Ternary.TRUE
    if m is Magnitude.UNKNOWN:
        return Ternary.UNKNOWN
    return Ternary.FALSE


# -- series functions -----------------------------------------------------------------

def _split_leading(a: LeviCivitaNumber) -> tuple[Fraction, Interval, LeviCivitaNumber]:
    """a = c t^q (1 + u) with u strictly infinitesimal; returns (q, c, u)."""
    q, c = a.terms[0]
    tail = LeviCivitaNumber(a.terms[1:], a.order)
    u = shift(scale(tail, c.reciprocal()), -q)
    return q, c, u


def _binomial_half():
    """binomial(1/2, k) for k = 0, 1, 2, ...: the coefficients of (1 + u)^(1/2)."""
    coeff = Fraction(1)
    for k in itertools.count():
        yield coeff
        coeff *= (Fraction(1, 2) - k) / (k + 1)


def _power_series(
    u: LeviCivitaNumber, order, *sequences
) -> tuple[LeviCivitaNumber, ...]:
    """sum_k c_k u^k for infinitesimal u, truncated at `order`, once for each
    coefficient iterator (c_0, c_1, ...) in `sequences`.

    One pass over the powers u, u^2, ... feeds every sum; each power is the
    previous one times u, truncated at `order`.  A zero coefficient adds
    nothing (an odd power must not cap cos's truncation order) and a unit
    coefficient adds the power unscaled.  The first power that truncates to
    nothing carries its truncation order into every sum.
    """
    order = _as_order(order)
    totals = [from_rational(next(c)) for c in sequences]
    if u.is_zero:
        return tuple(totals)
    if not u.terms:
        # an unknown tail in u caps what we know even though no term is stored
        capped = min(order, u.order)
        return tuple(truncate(total, capped) for total in totals)
    if order is INFINITE_ORDER:
        raise ValueError("series does not terminate at infinite truncation order")
    power = truncate(u, order)
    while power.terms:
        for i, sequence in enumerate(sequences):
            c = next(sequence)
            if c == 1:
                totals[i] = add(totals[i], power)
            elif c != 0:
                totals[i] = add(totals[i], scale(power, c))
        power = mul(power, u, order)
    return tuple(add(total, power) for total in totals)


def sqrt(
    a: LeviCivitaNumber, order=DEFAULT_ORDER, precision: int = DEFAULT_PRECISION
) -> LeviCivitaNumber:
    """Square root of a value with certainly-positive leading coefficient.

    a = c t^q (1 + u) gives sqrt(c) t^(q/2) (1 + u)^(1/2) with the binomial
    series truncated at `order` and sqrt(c) enclosed to width <= 2^-precision
    (exactly, for perfect squares).  Squaring the result re-encloses `a` up
    to O(t^order).
    """
    order = _as_order(order)
    lead = a.leading
    if lead is None or lead[1].lo <= 0:
        raise NotPositive("sqrt requires a strictly positive leading coefficient")
    q, c, u = _split_leading(a)
    root = from_interval(sqrt_interval(c, precision))
    (series,) = _power_series(
        u, order if order is INFINITE_ORDER else order - q / 2, _binomial_half()
    )
    return shift(mul(root, series), q / 2)


def pi_number(precision: int = DEFAULT_PRECISION) -> LeviCivitaNumber:
    """pi as an exponent-0 enclosure."""
    return from_interval(pi_interval(precision))


def _split_standard(a: LeviCivitaNumber) -> tuple[Interval, LeviCivitaNumber]:
    """a = s + u with s the exponent-0 coefficient and u the positive part.

    Raises NotFinite unless `a` is certainly finite with the exponent-0
    coefficient determined.
    """
    s = standard_part(a)
    u = LeviCivitaNumber(tuple((q, c) for q, c in a.terms if q > 0), a.order)
    return s, u


def cos_enclosure(
    a: LeviCivitaNumber, order=DEFAULT_ORDER, precision: int = DEFAULT_PRECISION
) -> LeviCivitaNumber:
    """cos of a finite value: cos(s)cos(u) - sin(s)sin(u) with s = st-part."""
    cos_s, sin_s, cos_u, sin_u = _angle_addition_parts(a, order, precision)
    return sub(scale(cos_u, cos_s), scale(sin_u, sin_s))


def sin_enclosure(
    a: LeviCivitaNumber, order=DEFAULT_ORDER, precision: int = DEFAULT_PRECISION
) -> LeviCivitaNumber:
    """sin of a finite value, by the same angle-addition split as cos."""
    cos_s, sin_s, cos_u, sin_u = _angle_addition_parts(a, order, precision)
    return add(scale(sin_u, cos_s), scale(cos_u, sin_s))


def _angle_addition_parts(
    a: LeviCivitaNumber, order, precision: int
) -> tuple[Interval, Interval, LeviCivitaNumber, LeviCivitaNumber]:
    """(cos s, sin s, cos u, sin u) for a = s + u split by `_split_standard`."""
    s, u = _split_standard(a)
    return (
        *cos_sin_interval(s, precision),
        *_power_series(u, order, _cos_sin_coefficients(0), _cos_sin_coefficients(1)),
    )


def _cos_sin_coefficients(parity: int):
    """Taylor coefficients (-1)^(k//2) / k! at each k of the given parity and
    0 at the others: cos for parity 0, sin for parity 1."""
    coeff = Fraction(1)
    for k in itertools.count(1):
        yield coeff if (k - 1) % 2 == parity else 0
        coeff /= k if k % 2 else -k


# -- rational approximation -----------------------------------------------------------

def approximate_within(
    y: LeviCivitaNumber, eps: LeviCivitaNumber
) -> LeviCivitaNumber:
    """An exact rational-coefficient q with |y - q| < eps, eps > 0.

    Copies y's coefficients (midpoints, for intervals) at every exponent up
    to eps's leading exponent, then certifies |y - q| < eps by two sign
    scans.  When y's enclosure is wider than eps at a decisive exponent no
    certified answer exists and IndeterminateComparison is raised.
    """
    if sign(eps) <= 0:
        raise PreconditionViolated("eps must be strictly positive")
    e = eps.lead_exponent
    q = LeviCivitaNumber(
        tuple((qe, Interval.point(c.midpoint)) for qe, c in y.terms if qe <= e)
    )
    d = sub(y, q)
    if sign(sub(eps, d)) > 0 and sign(add(eps, d)) > 0:
        return q
    raise IndeterminateComparison(
        "no rational approximation certifiable within eps", e
    )  # pragma: no cover - sign() raises first in practice
