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

Valuation.  v(a), the first stored exponent or else T (INFINITE_ORDER only
for exact zero), is the least exponent any member can have, and the rules
that need where members start read it.  A product's unknown tail enters at
min(T_a + v(b), T_b + v(a)) (K. Shamseddine and M. Berz, Analysis on the
Levi-Civita field, 2010), a series' at T + (k1 - 1) v(u) (below), and the
root of a value with no certainly positive lead lies in O(t^(v/2)).
`LeviCivitaNumber(terms, order)` is the pairwise sum `add_all` of
zero(order) and the monomials of `terms`.

Lattice.  A number is stored on its least lattice (1/D)Z, the least that
holds both its exponents and its order, as integers n = q D and top = T D
(INFINITE_ORDER, the float inf, when exact), so equal numbers have equal
fields.  `add` merges them after one rescale to lcm(D1, D2), `mul` adds them
on that lcm, and a series starts on the stored lattice joined with the
denominator of the order asked for (and doubled in a sqrt whose leading n is
odd, so that q/2 is on it); each result goes onto its least lattice by one
gcd.  An int compares and adds exactly with inf, so a term is kept when
n < top and orders combine by + and min, with no case for an exact operand.
A coefficient [L/E, H/E] is stored as the reduced triple (L, H, E) an
`Interval` stores (E > 0, L <= H, gcd 1), never (0, 0), so equal coefficients
are equal tuples.  Operations run on triples (`intervals`' `_sum`, `_product`,
`_reciprocal`, and `_sqrt` and `_cos_sin` for a series' start) and store each
result by `_reduced`, one gcd; `neg` needs none.  An `Interval` is built only
where a coefficient leaves for a caller (`coefficient`, `terms`, and the
standard part cos and sin start from) and read only where one enters
(`monomial`, `sign_plus`); `parsing` prints the stored integers.

Sign and magnitude queries answer only when every member of the denoted set
agrees; otherwise they report unknown / raise IndeterminateComparison with
the blocking exponent, so callers can retry at higher order or precision.

Series.  inverse, sqrt, cos and sin reduce to series in an infinitesimal
u = sum_k u_k t^k, computed without powers of u, one product per term of u
per coefficient, by recurrences for the Euler operator theta = t d/dt
(theta t^q = q t^q on rational q; J. C. P. Miller, Knuth TAOCP 4.7):

    (1 + u)^alpha, alpha = -1, 1/2:  e w_e = sum_k ((alpha+1) k - e) u_k w_(e-k)
    (cos u, sin u):  e c_e = -sum_k k u_k s_(e-k),  e s_e = sum_k k u_k c_(e-k)

with w_0 = c_0 = 1 and s_0 = 0, so a series in u = 0 is its start, exact,
and runs no recurrence (`inverse` of an exact monomial, `cos` of an exact
constant).  An unknown tail O(t^T) in u first reaches
a series through its first power k1 >= 1 with a nonzero Taylor coefficient
(k1 = 2 for cos, else 1), so it is truncated at min(order, T + (k1 - 1) L),
L = v(u).  On interval coefficients the result is sound, each coefficient
being an interval evaluation of a polynomial in u's coefficients, and
nested under refinement: the sequence of interval operations depends only
on u's exponents, and a coefficient refined to exactly 0 acts as a [0, 0]
operand and can only raise L.  The integer core scales each product by the
integer a k + b e of the rule table and divides the sum once by d e > 0,
which is the same interval, and puts it in lowest terms by one gcd: the
arguments above carry over unchanged.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import reduce

from .errors import (
    IndeterminateComparison,
    NotFinite,
    NotPositive,
    PreconditionViolated,
    ZeroOrUnknownLeading,
)
from .intervals import (
    Interval,
    ZERO_INTERVAL,
    Record,
    _cos_sin,
    _interval,
    _product,
    _ratio,
    _reciprocal,
    _reduced,
    _sqrt,
    _sum,
    _triple,
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


def _order_ratio(order) -> tuple:
    """(top, D) with order = top / D in lowest terms; (inf, 1) at INFINITE_ORDER."""
    return (order, 1) if order == INFINITE_ORDER else _ratio(order)


def _as_triple(value) -> tuple[int, int, int]:
    if isinstance(value, Interval):
        return _triple(value)
    n, d = _ratio(value)
    return n, n, d


class LeviCivitaNumber(Record):
    """Truncated series with interval coefficients; immutable.

    Stored on its least lattice (1/D)Z, D = `denominator`, with its order T
    as `top` = T D: `pairs` holds one (n, c) per term c t^(n/D), n increasing,
    n < top, c a reduced triple (L, H, E) not (0, 0) (module docstring);
    `terms` and `order` read them back as Fractions and Intervals.
    `valuation` v is the least exponent a member can have, and a product's
    tail starts at min(T_a + v(b), T_b + v(a)).
    `LeviCivitaNumber(terms, order)` is the pairwise sum of zero(order) and
    the monomials of `terms`: duplicates add, zero and out-of-range terms drop.
    """

    __slots__ = ("denominator", "pairs", "top")  # int, ((int, (L, H, E)), ...), int | inf
    __init__ = object.__init__  # __new__ returns the number built

    def __new__(cls, terms=(), order=INFINITE_ORDER):
        return add_all([zero(order), *(monomial(c, q) for q, c in terms)])

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Fraction, Interval], ...]:
        return tuple((Fraction(n, self.denominator), _interval(c)) for n, c in self.pairs)

    @property
    def order(self) -> Fraction | float:
        """T, the truncation order: exponents at or above it are unknown."""
        return INFINITE_ORDER if self.top == INFINITE_ORDER else Fraction(self.top, self.denominator)

    @property
    def is_exact(self) -> bool:
        return self.top == INFINITE_ORDER and all(c[0] == c[1] for _, c in self.pairs)

    @property
    def is_zero(self) -> bool:
        """Exactly zero (not merely indistinguishable from it)."""
        return not self.pairs and self.top == INFINITE_ORDER

    @property
    def valuation(self) -> Fraction | float:
        """v(a), the least exponent a member can have (module docstring)."""
        return Fraction(self.pairs[0][0], self.denominator) if self.pairs else self.order

    def coefficient(self, exponent) -> Interval:
        n, d = _ratio(exponent)
        if self.denominator % d == 0:
            n *= self.denominator // d
            for m, c in self.pairs:
                if m == n:
                    return _interval(c)
        return ZERO_INTERVAL

    # -- operators ------------------------------------------------------------

    def __add__(self, other: "LeviCivitaNumber") -> "LeviCivitaNumber":
        return add(self, other)

    def __sub__(self, other: "LeviCivitaNumber") -> "LeviCivitaNumber":
        return sub(self, other)

    def __neg__(self) -> "LeviCivitaNumber":
        return neg(self)

    def __mul__(self, other: "LeviCivitaNumber") -> "LeviCivitaNumber":
        return mul(self, other)

    def __str__(self) -> str:
        from .parsing import format_number

        return format_number(self)

    def __repr__(self) -> str:
        return f"LeviCivitaNumber({self})"


# -- the stored lattice ----------------------------------------------------------

def _number(denominator: int, pairs, top) -> LeviCivitaNumber:
    """The number of canonical `pairs` and order top / D on (1/D)Z, moved to
    its least lattice."""
    if denominator != 1:
        exact = top == INFINITE_ORDER
        divisor = math.gcd(denominator, 0 if exact else top, *(n for n, _ in pairs))
        if divisor != 1:
            denominator //= divisor
            pairs = tuple((n // divisor, c) for n, c in pairs)
            top = top if exact else top // divisor
    number = object.__new__(LeviCivitaNumber)
    object.__setattr__(number, "denominator", denominator)
    object.__setattr__(number, "pairs", pairs)
    object.__setattr__(number, "top", top)
    return number


def _rescaled(a: LeviCivitaNumber, denominator: int):
    """a's pairs and top on (1/denominator)Z, a lattice that holds a's."""
    factor = denominator // a.denominator
    if factor == 1:
        return a.pairs, a.top
    return [(n * factor, c) for n, c in a.pairs], a.top * factor


# -- constructors -------------------------------------------------------------

def zero(order=INFINITE_ORDER) -> LeviCivitaNumber:
    top, denominator = _order_ratio(order)
    return _number(denominator, (), top)


def one() -> LeviCivitaNumber:
    return monomial(1, 0)


def from_rational(value) -> LeviCivitaNumber:
    return monomial(Fraction(value), 0)


def from_interval(value: Interval) -> LeviCivitaNumber:
    return monomial(value, 0)


def monomial(coeff, exponent) -> LeviCivitaNumber:
    c = _as_triple(coeff)
    if not (c[0] or c[1]):
        return zero()
    n, d = _ratio(exponent)
    return _number(d, ((n, c),), INFINITE_ORDER)


def t_power(exponent) -> LeviCivitaNumber:
    return monomial(1, exponent)


#: Canonical infinitesimal and infinite witnesses.
T = t_power(1)
T_INVERSE = t_power(-1)


# -- structural helpers --------------------------------------------------------

def scale(a: LeviCivitaNumber, factor) -> LeviCivitaNumber:
    """Multiply by a scalar rational or interval (exponents unchanged)."""
    f = _as_triple(factor)
    if not (f[0] or f[1]):
        return zero()  # an exact zero factor leaves no unknown tail
    return _number(a.denominator, tuple((n, _reduced(_product(c, f))) for n, c in a.pairs), a.top)


# -- ring operations ------------------------------------------------------------

def add(a: LeviCivitaNumber, b: LeviCivitaNumber, negate: bool = False) -> LeviCivitaNumber:
    """a + b, or a - b when `negate`: one merge, b's triples negated as read."""
    denominator = math.lcm(a.denominator, b.denominator)
    (ta, top_a), (tb, top_b) = _rescaled(a, denominator), _rescaled(b, denominator)
    tb = [(n, (-h, -l, e)) for n, (l, h, e) in tb] if negate else tb
    top = min(top_a, top_b)
    merged = []
    i = j = 0
    while i < len(ta) and j < len(tb):
        na, nb = ta[i][0], tb[j][0]
        if na < nb:
            merged.append(ta[i])
            i += 1
        elif nb < na:
            merged.append(tb[j])
            j += 1
        else:
            coeff = _sum(ta[i][1], tb[j][1])
            if coeff[0] or coeff[1]:
                merged.append((na, _reduced(coeff)))
            i += 1
            j += 1
    merged.extend(ta[i:])
    merged.extend(tb[j:])
    while merged and merged[-1][0] >= top:
        merged.pop()
    return _number(denominator, tuple(merged), top)


def add_all(numbers: list[LeviCivitaNumber]) -> LeviCivitaNumber:
    """The sum of a non-empty list, added pairwise in rounds, so that each
    term is merged about log2(n) times, not up to n times."""
    while len(numbers) > 1:
        odd = numbers[-1:] if len(numbers) % 2 else []
        numbers = [add(x, y) for x, y in zip(numbers[::2], numbers[1::2])] + odd
    return numbers[0]


def neg(a: LeviCivitaNumber) -> LeviCivitaNumber:
    return _number(a.denominator, tuple((n, (-h, -l, e)) for n, (l, h, e) in a.pairs), a.top)


def sub(a: LeviCivitaNumber, b: LeviCivitaNumber) -> LeviCivitaNumber:
    return add(a, b, negate=True)


def mul(a: LeviCivitaNumber, b: LeviCivitaNumber) -> LeviCivitaNumber:
    """Cauchy product.

    The unknown tail of one factor meets the members of the other from
    exponent T_a + v(b) (resp. T_b + v(a)), which caps the result's order;
    two exact factors stay exact.  Term pairs landing at or above the
    resulting order are never multiplied out.  A product with an exactly
    zero factor is exactly zero, whatever the other's tail.  Exponents are
    summed as integers on the lcm of the factors' lattices.
    """
    if a.is_zero or b.is_zero:
        return zero()
    denominator = math.lcm(a.denominator, b.denominator)
    (ta, top_a), (tb, top_b) = _rescaled(a, denominator), _rescaled(b, denominator)
    v_a, v_b = ta[0][0] if ta else top_a, tb[0][0] if tb else top_b
    top = min(top_a + v_b, top_b + v_a)
    accumulated: dict[int, tuple[int, int, int]] = {}
    for na, ca in ta:
        if na + v_b >= top:
            break  # b's exponents only grow from its lead
        for nb, cb in tb:
            n = na + nb
            if n >= top:
                break
            product = _product(ca, cb)
            if n in accumulated:
                accumulated[n] = _sum(accumulated[n], product)
            else:
                accumulated[n] = product
    pairs = tuple((n, _reduced(c)) for n, c in sorted(accumulated.items()) if c[0] or c[1])
    return _number(denominator, pairs, top)


def inverse(a: LeviCivitaNumber, order=DEFAULT_ORDER) -> LeviCivitaNumber:
    """Multiplicative inverse via the geometric series.

    Writes a = c t^q (1 + u) with u infinitesimal and returns
    c^-1 t^-q (1 + u)^-1, the series truncated at `order`, so that
    mul(a, inverse(a, order)) = 1 + O(t^order).  Exact monomials invert
    exactly.
    """
    if not a.pairs or a.pairs[0][1][0] <= 0 <= a.pairs[0][1][1]:
        raise ZeroOrUnknownLeading("cannot invert: leading coefficient is zero or of unknown sign")
    u, inverse_c, n = _split_leading(a)
    return _series(u, order, _INVERSE, ((0, inverse_c),), -n)


# -- order ------------------------------------------------------------------------

def _leading_term(pairs) -> tuple[int, int]:
    """(i, s): pairs[i] is the first term whose coefficient excludes 0 and s its
    sign, else (len(pairs), 0).  Each term before pairs[i] may vanish."""
    for i, (_, (lo, hi, _)) in enumerate(pairs):
        if lo > 0:
            return i, 1
        if hi < 0:
            return i, -1
    return len(pairs), 0


def _sign_of(pairs, denominator: int, top) -> int:
    """The sign of the number stored as (denominator, pairs, top), its
    coefficients (L, H, E) with E > 0, none (0, 0), reduced or not."""
    i, s = _leading_term(pairs)
    # each term before pairs[i] may vanish, or take s's sign, or the other
    if s and (not i or all(c[0] >= 0 if s > 0 else c[1] <= 0 for _, c in pairs[:i])):
        return s
    if not pairs and top == INFINITE_ORDER:
        return 0
    valuation = Fraction(pairs[0][0] if pairs else top, denominator)
    raise IndeterminateComparison("sign undecidable at current precision", valuation)


def sign(a: LeviCivitaNumber) -> int:
    """-1, 0, or +1; raises IndeterminateComparison when undecided, blocked at
    the valuation (the first exponent whose coefficient contains 0, else T)."""
    return _sign_of(a.pairs, a.denominator, a.top)


def sign_plus(a: LeviCivitaNumber, constant, negate: bool = False) -> int:
    """sign(a + c), or sign(a - c) when `negate`, for a rational or interval c:
    `sign`'s scan over a's pairs with c's triple added at exponent 0, so it
    answers and raises as sign(add(a, from_interval(c))) does, building no number."""
    lo, hi, e = _as_triple(constant)
    c, pairs = ((-hi, -lo, e) if negate else (lo, hi, e)), a.pairs
    if a.top > 0:  # else c lies in a's unknown tail
        i = next((k for k, (n, _) in enumerate(pairs) if n >= 0), len(pairs))
        j = i + 1 if i < len(pairs) and pairs[i][0] == 0 else i  # pairs[i:j]: a's term at 0
        c = _sum(pairs[i][1], c) if j > i else c
        pairs = [*pairs[:i], *([(0, c)] if c[0] or c[1] else []), *pairs[j:]]
    return _sign_of(pairs, a.denominator, a.top)


def compare(a: LeviCivitaNumber, b: LeviCivitaNumber) -> Ordering:
    """Three-way comparison; EQ only for exactly equal exact values."""
    s = sign(sub(a, b))
    return Ordering.GT if s > 0 else Ordering.LT if s < 0 else Ordering.EQ


def abs_value(a: LeviCivitaNumber) -> LeviCivitaNumber:
    """|a| when the sign is decidable."""
    return neg(a) if sign(a) < 0 else a


def magnitude_bound(a: LeviCivitaNumber) -> LeviCivitaNumber:
    """Exact-coefficient upper bound for |x| over every member x of `a`."""
    bounds = ((n, max(-lo, hi), e) for n, (lo, hi, e) in a.pairs)
    return _number(a.denominator, tuple((n, _reduced((m, m, e))) for n, m, e in bounds), a.top)


# -- magnitude classification -------------------------------------------------------

def _class_of_exponent(n: int) -> Magnitude:
    """The class of t^(n/D), read from the sign of n."""
    if n < 0:
        return Magnitude.INFINITE
    if n == 0:
        return Magnitude.APPRECIABLE
    return Magnitude.INFINITESIMAL


def classify_magnitude(a: LeviCivitaNumber) -> Magnitude:
    """Infinitesimal / appreciable / infinite, or unknown if members disagree.

    Zero counts as infinitesimal.  A coefficient interval containing zero at
    the decisive exponent branches the scan, so e.g. [-d, d]*t^-2 + 5*t^-1 is
    still decidably infinite, while [-d, d] + t is unknown (appreciable or
    infinitesimal depending on the true coefficient).
    """
    i, _ = _leading_term(a.pairs)
    if i < len(a.pairs):
        last = _class_of_exponent(a.pairs[i][0])
    elif a.top > 0:
        last = Magnitude.INFINITESIMAL
    else:
        return Magnitude.UNKNOWN  # the tail holds members at t^order and at t
    # the class only grows with the exponent: one class from first to last
    first = _class_of_exponent(a.pairs[0][0]) if i else last
    return last if first is last else Magnitude.UNKNOWN


def is_surely_finite(a: LeviCivitaNumber) -> bool:
    """True when every member is finite: v(a) >= 0, read on the integers."""
    if a.pairs and a.pairs[0][0] < 0:
        return False
    return a.top >= 0


def standard_part(a: LeviCivitaNumber) -> Interval:
    """The real coefficient at exponent 0, as an interval; st(a) - a is
    infinitesimal.

    The one standard-part rule: answered when every member is finite and the
    truncation order is above 0; NotFinite when every member is infinite;
    otherwise IndeterminateComparison, blocked at v(a).
    """
    if is_surely_finite(a) and a.top > 0:
        return a.coefficient(0)
    if classify_magnitude(a) is Magnitude.INFINITE:
        raise NotFinite("standard part undefined: value is infinite")
    raise IndeterminateComparison("standard part undetermined", a.valuation)


def halo_equal(a: LeviCivitaNumber, b: LeviCivitaNumber) -> Ternary:
    """Whether a - b is infinitesimal (same halo)."""
    m = classify_magnitude(sub(a, b))
    if m is Magnitude.INFINITESIMAL:
        return Ternary.TRUE
    if m is Magnitude.UNKNOWN:
        return Ternary.UNKNOWN
    return Ternary.FALSE


# -- series functions -----------------------------------------------------------------

def _split_leading(a: LeviCivitaNumber, halve: bool = False):
    """a = c t^q (1 + u) with u strictly infinitesimal: (u as `_series` takes
    it, the triple of 1/c, q D), on a's lattice (1/D)Z, or on twice it when
    `halve` and q D is odd, so that q/2 is on it too."""
    denominator = a.denominator * (2 if halve and a.pairs[0][0] % 2 else 1)
    ((lead, c), *tail), top = _rescaled(a, denominator)
    inverse_c = _reciprocal(c)
    steps = [(n - lead, _reduced(_product(ci, inverse_c))) for n, ci in tail]
    return (denominator, steps, top - lead), inverse_c, lead


#: Series rules (y_0, a, b, d, source, k1), all integers, y_0 in {0, 1}:
#: d e y_e = sum_k (a k + b e) u_k y'_(e-k) with y' = rules[source];
#: (1 + u)^alpha has a = d (alpha + 1) and b = -d.
_INVERSE = ((1, 0, -1, 1, 0, 1),)
_SQRT = ((1, 3, -2, 2, 0, 1),)
_COS_SIN = ((1, -1, 0, 1, 1, 2), (0, 1, 0, 1, 0, 1))


def _series(u, order, rules, combination, shift: int, offset: int = 0) -> LeviCivitaNumber:
    """One series per rule at infinitesimal u = (D, its terms (n, triple) on
    (1/D)Z, its top) (module docstring), at the lattice points n of sums of
    u's exponents below the cap; returns the sum of the series `combination`
    names times their factor triples, every exponent raised by shift / D.
    `order` caps (n + offset) / D, and the caps are integers on D joined with
    its denominator.  Every term sits at n >= 0, so an order below offset / D
    acts as it: the result is then O(t^(shift / D)), its valuation.  At u = 0
    (no terms, no tail) it is the sum of the starts times their factors, exact."""
    denominator, steps, u_top = u
    if not steps and u_top == INFINITE_ORDER:  # u = 0: each series is its start
        start = reduce(_sum, (f for i, f in combination if rules[i][0]), (0, 0, 1))
        pairs = ((shift, _reduced(start)),) if start[0] or start[1] else ()
        return _number(denominator, pairs, INFINITE_ORDER)
    order_top, order_denominator = _order_ratio(order)
    factor = order_denominator // math.gcd(denominator, order_denominator)
    if factor != 1:
        denominator *= factor
        steps = [(k * factor, c) for k, c in steps]
        u_top, shift, offset = u_top * factor, shift * factor, offset * factor
    order_top = max(order_top * (denominator // order_denominator) - offset, 0)
    if order_top == INFINITE_ORDER and steps:
        raise ValueError("series does not terminate at infinite truncation order")
    lead = steps[0][0] if steps else u_top
    caps = [min(order_top, u_top + (k1 - 1) * lead) for *_, k1 in rules]
    series = [{0: (y0, y0, 1)} if y0 else {} for y0, *_ in rules]
    top = max(caps)
    steps = [(k, c) for k, c in steps if k < top]
    reached, frontier = {0}, {0}
    while steps and frontier:
        frontier = {e + k for e in frontier for k, _ in steps if e + k < top} - reached
        reached |= frontier
    for e in sorted(reached)[1:]:
        for y, cap, (_, a, b, d, source, _) in zip(series, caps, rules):
            total = None
            for k, c in steps:
                if k > e or e >= cap:
                    break
                w = series[source].get(e - k)
                if w is not None:
                    lo, hi, den = _product(c, w)
                    f = a * k + b * e
                    term = (lo * f, hi * f, den) if f >= 0 else (hi * f, lo * f, den)
                    total = term if total is None else _sum(total, term)
            if total is not None and (total[0] or total[1]):
                y[e] = _reduced((total[0], total[1], total[2] * d * e))
    # the rescale and angle addition: one product per term, one sum per exponent
    parts = [(series[i], caps[i], f) for i, f in combination if f[0] or f[1]]
    top = min(cap for _, cap, _ in parts)
    pairs = []
    for e in sorted({e for y, _, _ in parts for e in y}):
        if e >= top:
            break
        total = reduce(_sum, (_product(y[e], f) for y, _, f in parts if e in y))
        if total[0] or total[1]:
            pairs.append((e + shift, _reduced(total)))
    return _number(denominator, tuple(pairs), top + shift)


def sqrt(
    a: LeviCivitaNumber, order=DEFAULT_ORDER, precision: int = DEFAULT_PRECISION
) -> LeviCivitaNumber:
    """Square root of a value with certainly-positive leading coefficient.

    a = c t^q (1 + u) gives sqrt(c) t^(q/2) (1 + u)^(1/2) with the binomial
    series truncated at `order` and sqrt(c) enclosed to width <= 2^-precision
    (exactly, for perfect squares).  Squaring the result re-encloses `a` up
    to O(t^order).
    """
    if not a.pairs or a.pairs[0][1][0] <= 0:
        raise NotPositive("sqrt requires a strictly positive leading coefficient")
    u, _, n = _split_leading(a, halve=True)
    root_c = _sqrt(a.pairs[0][1], precision)
    return _series(u, order, _SQRT, ((0, root_c),), n // 2, n // 2)


def sqrt_nonnegative(
    a: LeviCivitaNumber, order=DEFAULT_ORDER, precision: int = DEFAULT_PRECISION
) -> LeviCivitaNumber:
    """Square root of a value whose every member the caller knows is >= 0.

    Exact zero gives zero.  Let L be the valuation.  Without a certainly
    positive leading coefficient every member is 0 or c t^e + ... with c > 0
    and e >= L, so the root is O(t^(L/2)), whatever the sign of L.  Anything
    else goes to `sqrt`.
    """
    if a.is_zero:
        return zero()
    if not a.pairs or a.pairs[0][1][0] <= 0:  # O(t^(L/2)), on twice a's lattice
        return _number(2 * a.denominator, (), a.pairs[0][0] if a.pairs else a.top)
    return sqrt(a, order, precision)


def cos_enclosure(
    a: LeviCivitaNumber, order=DEFAULT_ORDER, precision: int = DEFAULT_PRECISION
) -> LeviCivitaNumber:
    """cos of a finite value: cos(s)cos(u) - sin(s)sin(u) with s = st-part."""
    (cos_s, (lo, hi, den)), u = _angle_addition_parts(a, precision)
    return _series(u, order, _COS_SIN, ((0, cos_s), (1, (-hi, -lo, den))), 0)


def sin_enclosure(
    a: LeviCivitaNumber, order=DEFAULT_ORDER, precision: int = DEFAULT_PRECISION
) -> LeviCivitaNumber:
    """sin of a finite value, by the same angle-addition split as cos."""
    (cos_s, sin_s), u = _angle_addition_parts(a, precision)
    return _series(u, order, _COS_SIN, ((1, cos_s), (0, sin_s)), 0)


def _angle_addition_parts(a: LeviCivitaNumber, precision: int):
    """(cos s, sin s) as triples and u as `_series` takes it for a = s + u, s
    the standard part (NotFinite unless determined), u the positive part."""
    u = (a.denominator, [(n, c) for n, c in a.pairs if n > 0], a.top)
    return _cos_sin(_triple(standard_part(a)), precision), u


# -- rational approximation -----------------------------------------------------------

def approximate_within(y: LeviCivitaNumber, eps: LeviCivitaNumber) -> LeviCivitaNumber:
    """An exact rational-coefficient q with |y - q| < eps, eps > 0.

    Copies y's coefficients (midpoints, for intervals) at every exponent up
    to eps's valuation, then certifies |y - q| < eps by two sign
    scans.  When y's enclosure is wider than eps at a decisive exponent no
    certified answer exists and IndeterminateComparison is raised.
    """
    if sign(eps) <= 0:
        raise PreconditionViolated("eps must be strictly positive")
    e = eps.valuation
    q = LeviCivitaNumber(tuple((qe, c.midpoint) for qe, c in y.terms if qe <= e))
    d = sub(y, q)
    if sign(sub(eps, d)) > 0 and sign(add(eps, d)) > 0:
        return q
    raise IndeterminateComparison(
        "no rational approximation certifiable within eps", e
    )  # pragma: no cover - sign() raises first in practice
