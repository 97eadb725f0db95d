"""The truncated-series field: arithmetic, order, classification, enclosures."""

import math
from fractions import Fraction as F
from random import Random

import pytest

from ihull import intervals, lcf
from ihull.errors import (
    IndeterminateComparison,
    NotFinite,
    NotPositive,
    PreconditionViolated,
    ZeroOrUnknownLeading,
)
from ihull.intervals import Interval, pi_interval
from ihull.lcf import (
    INFINITE_ORDER,
    LeviCivitaNumber,
    Magnitude,
    Ordering,
    Ternary,
)
from ihull.probes import random_appreciable_positive, random_exact, random_finite
from kernels import cos_sin_interval, sqrt_interval

T = lcf.T
TI = lcf.T_INVERSE
ONE = lcf.one()

SQRT2 = F(14142135623730950488016887242096980785696, 10**40)
COS1 = F(5403023058681397174009366074429766037323, 10**40)


def num(text):
    from ihull.parsing import parse_number

    return parse_number(text)


def truncate(a, order):
    """a with everything at or above `order` forgotten; the tighter order wins."""
    return LeviCivitaNumber(a.terms, min(order, a.order))


# ---------------------------------------------------------------------------
# construction and normalization
# ---------------------------------------------------------------------------

def test_terms_canonicalized():
    x = LeviCivitaNumber(((F(2), 1), (F(0), 3), (F(2), -1)))
    assert x.terms == ((F(0), Interval.point(3)),)
    assert LeviCivitaNumber(((F(5), 7),), order=F(3)).terms == ()


def test_exactness_flags():
    assert ONE.is_exact and lcf.zero().is_zero
    assert not lcf.zero(F(3)).is_zero
    assert not lcf.from_rational(Interval(F(1), F(2))).is_exact


def test_constructors_equal_the_public_constructor():
    rng = Random(11)
    for _ in range(200):
        q = F(rng.randint(-6, 6), rng.randint(1, 4))
        c = F(rng.randint(-5, 5), rng.randint(1, 5))
        iv = Interval(c, c + F(rng.randint(0, 3), 8))
        assert lcf.monomial(c, q) == LeviCivitaNumber(((q, c),))
        assert lcf.monomial(iv, q) == LeviCivitaNumber(((q, iv),))
        assert lcf.from_rational(c) == LeviCivitaNumber(((0, c),))
        assert lcf.from_rational(iv) == LeviCivitaNumber(((0, iv),))
        assert lcf.t_power(q) == LeviCivitaNumber(((q, 1),))
        assert lcf.monomial(0, q).is_zero and lcf.from_rational(Interval(0, 0)).is_zero
    assert ONE == LeviCivitaNumber(((0, 1),))
    assert type(ONE.terms[0][0]) is F and type(lcf.t_power(2).terms[0][0]) is F
    assert lcf.from_rational(pi_interval(32)) == LeviCivitaNumber(((0, pi_interval(32)),))


# ---------------------------------------------------------------------------
# add / mul / inverse
# ---------------------------------------------------------------------------

def test_reading_stored_coefficients_runs_no_gcd(monkeypatch):
    # a number stores reduced triples, so boxing one as an Interval, for a
    # coefficient, its terms or an approximate term's display, needs no gcd
    from ihull import intervals, parsing

    values = [num("3/2 - 2t + 5/6t^3/2 + O(t^4)"), lcf.sqrt(num("2 + t"), 4, 64)]
    expected = [(x.coefficient(0), x.terms, parsing.format_number(x)) for x in values]
    calls = []
    reduced = intervals._reduced
    monkeypatch.setattr(intervals, "_reduced", lambda c: calls.append(c) or reduced(c))
    assert [(x.coefficient(0), x.terms, parsing.format_number(x)) for x in values] == expected
    assert calls == []


def test_add_cancellation():
    assert (ONE + T) + (ONE - T) == lcf.from_rational(2)


def test_add_disjoint_exponents():
    assert (TI + ONE).terms == ((F(-1), Interval.point(1)), (F(0), Interval.point(1)))


def test_add_truncation_dominates():
    result = truncate(ONE, 3) + lcf.t_power(5)
    assert result.terms == ((F(0), Interval.point(1)),)
    assert result.order == 3


def test_mul_difference_of_squares():
    assert (ONE + T) * (ONE - T) == num("1 - t^2")


def test_mul_fractional_exponents():
    assert lcf.t_power(F(1, 2)) * lcf.t_power(F(1, 2)) == T


def test_mul_annihilation():
    assert (lcf.zero() * TI).is_zero
    # an exact zero factor annihilates the other's unknown tail too
    truncated = truncate(ONE + T, 3)
    assert (lcf.zero() * truncated).is_zero and (truncated * lcf.zero()).is_zero
    assert lcf.scale(truncated, 0).is_zero


def test_mul_truncation_rule():
    a = truncate(ONE + T, 4)               # 1 + t + O(t^4)
    b = lcf.scale(T, 3)                    # 3t
    product = a * b
    assert product.order == 5              # O(t^4) * 3t enters at t^5
    assert product == truncate(num("3t + 3t^2"), 5)


def test_inverse_geometric_series():
    assert lcf.inverse(ONE - T, 3) == truncate(num("1 + t + t^2"), 3)


def test_inverse_monomials_exact():
    assert lcf.inverse(T, 5) == TI
    assert lcf.inverse(lcf.from_rational(2), 5) == lcf.from_rational(F(1, 2))


def test_inverse_identity_up_to_order():
    rng = Random(11)
    for _ in range(40):
        a = random_exact(rng)
        if not a.terms or 0 in a.terms[0][1]:
            continue
        inv = lcf.inverse(a, 6)
        residue = a * inv - ONE
        assert not [q for q, _ in residue.terms if q < 6]
        assert residue.order >= 6 - a.terms[0][0] or residue.order >= 6


def test_inverse_rejects_unknown_leading():
    with pytest.raises(ZeroOrUnknownLeading):
        lcf.inverse(lcf.zero(), 4)
    with pytest.raises(ZeroOrUnknownLeading):
        lcf.inverse(lcf.from_rational(Interval(F(-1), F(1))), 4)


# ---------------------------------------------------------------------------
# comparison and order structure
# ---------------------------------------------------------------------------

def test_compare_examples():
    assert lcf.compare(T, T * T) is Ordering.GT
    assert lcf.compare(ONE + T, ONE) is Ordering.GT
    assert lcf.compare(TI, lcf.from_rational(10**6)) is Ordering.GT
    assert lcf.compare(ONE, ONE) is Ordering.EQ


def test_compare_indeterminate_carries_exponent():
    with pytest.raises(IndeterminateComparison) as info:
        lcf.compare(truncate(ONE, 3), ONE)
    assert info.value.exponent == 3
    with pytest.raises(IndeterminateComparison) as info:
        lcf.sign(lcf.from_rational(Interval(F(-1), F(1))))
    assert info.value.exponent == 0


def test_sign_reads_past_a_lead_that_touches_zero():
    # [0, 1] vanishes or is positive, so the next term's sign decides when it agrees
    assert lcf.sign(lcf.from_rational(Interval(F(0), F(1))) + T) == 1
    assert lcf.sign(lcf.from_rational(Interval(F(-1), F(0))) - T) == -1
    with pytest.raises(IndeterminateComparison) as info:
        lcf.sign(lcf.from_rational(Interval(F(0), F(1))) - T)
    assert info.value.exponent == 0


def test_compare_decides_despite_deep_straddle():
    # a straddling coefficient *after* a decisive one is irrelevant
    x = ONE + lcf.monomial(Interval(F(-1), F(1)), 1)
    assert lcf.compare(x, lcf.zero()) is Ordering.GT


def test_order_transitivity_on_random_triples():
    rng = Random(5)
    for _ in range(200):
        values = sorted(
            (random_exact(rng) for _ in range(3)),
            key=lambda v: [(q, c.lo) for q, c in v.terms],
        )
        a, b, c = values
        try:
            if (
                lcf.compare(a, b) is Ordering.LT
                and lcf.compare(b, c) is Ordering.LT
            ):
                assert lcf.compare(a, c) is Ordering.LT
        except IndeterminateComparison:
            pass


def test_abs_value():
    assert lcf.abs_value(num("-2 + t")) == num("2 - t")
    assert lcf.abs_value(T) == T


# ---------------------------------------------------------------------------
# sqrt / cos / pi enclosures
# ---------------------------------------------------------------------------

def test_sqrt_perfect_square():
    result = lcf.sqrt(num("1 + 2t + t^2"), 4, 64)
    assert result.coefficient(0) == Interval.point(1)
    assert result.coefficient(1) == Interval.point(1)
    assert all(c.is_zero for q, c in result.terms if q > 1)


def test_sqrt_monomial_square():
    assert lcf.sqrt(num("4t^2"), 4, 64) == num("2t")


def test_sqrt_scalar_enclosure():
    enc = lcf.sqrt(lcf.from_rational(2), 4, 64).coefficient(0)
    assert SQRT2 in enc and enc.width <= F(1, 2**64)


def test_sqrt_square_re_encloses_input():
    rng = Random(3)
    for _ in range(25):
        a = random_appreciable_positive(rng)
        root = lcf.sqrt(a, 6, 64)
        residue = root * root - a
        for q, c in residue.terms:
            if q < 6:
                assert 0 in c


def test_sqrt_requires_positive_leading():
    with pytest.raises(NotPositive):
        lcf.sqrt(num("-1 + t"), 4, 64)
    with pytest.raises(NotPositive):
        lcf.sqrt(lcf.zero(), 4, 64)


def test_sqrt_nonnegative():
    assert lcf.sqrt_nonnegative(lcf.zero(), 4, 64) == lcf.zero()
    assert lcf.sqrt_nonnegative(num("4t^2"), 4, 64) == num("2t")
    # no term below an exponent L and none certainly positive: O(t^(L/2))
    assert lcf.sqrt_nonnegative(num("O(t^3)"), 4, 64) == lcf.zero(F(3, 2))
    maybe_zero = LeviCivitaNumber(((2, Interval(F(0), F(1))),), F(4))
    assert lcf.sqrt_nonnegative(maybe_zero, 4, 64) == lcf.zero(F(1))
    # so is any other L: an undecided t^0 coefficient, none determined, O(t^-2)
    undecided = LeviCivitaNumber(((0, Interval(F(0), F(1))),))
    assert lcf.sqrt_nonnegative(undecided, 4, 64) == lcf.zero(0)
    assert lcf.sqrt_nonnegative(num("O(1)"), 4, 64) == lcf.zero(0)
    assert lcf.sqrt_nonnegative(num("O(t^-2)"), 4, 64) == lcf.zero(-1)


def test_sqrt_fractional_lead_exponent():
    result = lcf.sqrt(num("9t^3"), 6, 64)
    assert result == lcf.monomial(3, F(3, 2))


def test_series_on_truncated_arguments():
    # an unknown tail in the argument caps the result's truncation order
    assert lcf.sqrt(num("4 + t + O(t^2)"), 8, 64) == num("2 + 1/4t + O(t^2)")
    assert lcf.inverse(num("2 + t^1/2 + O(t^2)"), 3) == num(
        "1/2 - 1/4t^1/2 + 1/8t - 1/16t^3/2 + O(t^2)"
    )
    assert lcf.sin_enclosure(num("t + O(t^3)"), 8, 64) == num("t + O(t^3)")
    # sin(0) = 0 is exact, so sin(u) carries no O(t^3) into cos
    cos = lcf.cos_enclosure(num("t + O(t^3)"), 8, 64)
    assert cos == num("1 - 1/2t^2 + O(t^4)") and cos.order == 4
    # no stored term after the leading one: only the truncation order remains
    root = lcf.sqrt(num("4 + O(t^2)"), 8, 64)
    assert root.terms == ((F(0), Interval.point(2)),) and root.order == 2


def test_series_on_interval_coefficients():
    x = lcf.from_rational(Interval(F(1), F(2))) + T
    assert lcf.inverse(x, 3) == LeviCivitaNumber(
        (
            (F(0), Interval(F(1, 2), F(1))),
            (F(1), Interval(F(-1), F(-1, 4))),
            (F(2), Interval(F(1, 8), F(1))),
        ),
        3,
    )
    y = LeviCivitaNumber(((F(0), 4), (F(1), Interval(F(-1, 8), F(1, 8)))))
    # the t^2 term of the recurrence multiplies u_1 by w_1 as if the two were
    # independent, so the t^2 enclosure is twice the true range [-1/4096, 0]
    assert lcf.sqrt(y, 3, 64) == LeviCivitaNumber(
        (
            (F(0), Interval.point(2)),
            (F(1), Interval(F(-1, 32), F(1, 32))),
            (F(2), Interval(F(-1, 4096), F(1, 4096))),
        ),
        3,
    )


# Taylor coefficients c_k of each series function, and how the public
# function is applied to an infinitesimal u so that it returns sum c_k u^k.
SERIES = {
    "inverse": (lambda k: (-1) ** k, lambda u, order: lcf.inverse(ONE + u, order)),
    "sqrt": (
        lambda k: math.prod(F(1, 2) - j for j in range(k)) / math.factorial(k),
        lambda u, order: lcf.sqrt(ONE + u, order, 64),
    ),
    "cos": (
        lambda k: 0 if k % 2 else F((-1) ** (k // 2), math.factorial(k)),
        lambda u, order: lcf.cos_enclosure(u, order, 64),
    ),
    "sin": (
        lambda k: F((-1) ** (k // 2), math.factorial(k)) if k % 2 else 0,
        lambda u, order: lcf.sin_enclosure(u, order, 64),
    ),
}
SERIES_ORDERS = (F(2), F(4), F(17, 3), F(8), F(16))


def reference_series(u, order, coefficient):
    """sum_k c_k u^k from the powers u^k, each one lcf.mul from the last."""
    total, power, k = lcf.from_rational(coefficient(0)), truncate(u, order), 1
    while power.terms:
        if coefficient(k):
            total = total + lcf.scale(power, coefficient(k))
        power, k = truncate(lcf.mul(power, u), order), k + 1
    return truncate(total, order)


def random_lattice_u(rng, interval=False):
    """An infinitesimal on the 1/6 lattice, sometimes with an unknown tail;
    with `interval`, most coefficients are intervals around a rational or
    around 0."""
    exponents = sorted(rng.sample([F(n, 6) for n in range(1, 13)], rng.randint(1, 4)))
    terms = []
    for q in exponents:
        c = F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))
        if interval and rng.random() < 0.6:
            if rng.random() < 0.25:
                c = 0
            c = Interval(c - F(rng.randint(0, 4), 64), c + F(rng.randint(1, 4), 64))
        terms.append((q, c))
    tail = F(rng.randint(int(6 * exponents[-1]) + 1, 24), 6)
    return LeviCivitaNumber(tuple(terms), tail if rng.random() < 0.5 else INFINITE_ORDER)


def as_triples(x):
    return [(q, c.lo, c.hi) for q, c in x.terms], x.order


def encloses(big, small):
    """Every coefficient of `small` below big's order lies in big's."""
    if small.order < big.order:
        return False
    inner = dict(small.terms)
    exponents = {q for q, _ in big.terms + small.terms if q < big.order}
    pairs = [(big.coefficient(q), inner.get(q, Interval.point(0))) for q in exponents]
    return all(outer.intersect(c) == c for outer, c in pairs)


def reference_mul(a, b, cap=INFINITE_ORDER):
    """The Cauchy product on Fraction exponents, the loop lcf.mul replaced,
    truncated at `cap`."""
    cap = cap if cap is INFINITE_ORDER else F(cap)
    if a.is_zero or b.is_zero:
        return lcf.zero(cap)
    lead = lambda x: x.terms[0][0] if x.terms else x.order  # no member starts lower
    if a.order is INFINITE_ORDER and b.order is INFINITE_ORDER:
        order = cap
    else:
        order = min(a.order + lead(b), b.order + lead(a), cap)
    accumulated = {}
    for qa, ca in a.terms:
        if qa + lead(b) >= order:
            break
        for qb, cb in b.terms:
            q = qa + qb
            if q >= order:
                break
            product = ca * cb
            accumulated[q] = accumulated[q] + product if q in accumulated else product
    terms = tuple((q, c) for q, c in sorted(accumulated.items()) if not c.is_zero)
    return LeviCivitaNumber(terms, order)


def random_lattice_operand(rng):
    """Up to 5 terms on a lattice (1/D)Z, D in 1..6, exponents of both signs,
    point or interval coefficients (some straddling 0), finite or no order."""
    d = rng.randint(1, 6)
    exponents = rng.sample(range(-8, 16), rng.randint(0, 5))
    terms = []
    for n in exponents:
        c = F(rng.randint(-3, 3), rng.randint(1, 4))
        if rng.random() < 0.4:
            c = Interval(c - F(rng.randint(0, 2), 8), c + F(rng.randint(0, 2), 8))
        terms.append((F(n, d), c))
    order = F(rng.randint(-4, 20), rng.randint(1, 6))
    return LeviCivitaNumber(tuple(terms), order if rng.random() < 0.4 else INFINITE_ORDER)


def random_wide_interval(rng):
    """A 40-bit exact coefficient or an interval around one (sometimes
    around 0) whose endpoints have different 40-bit denominators."""
    big = lambda: rng.randint(1 << 39, (1 << 40) - 1)
    c = F(rng.choice([-1, 1]) * big(), big()) if rng.random() < 0.8 else F(0)
    if rng.random() < 0.3:
        return c
    return Interval(c - F(rng.randint(0, 4) * big(), big() << 8), c + F(big(), big() << 8))


def test_mul_equals_the_fraction_exponent_product():
    rng = Random(97)
    for _ in range(3000):
        a, b = random_lattice_operand(rng), random_lattice_operand(rng)
        cap = rng.choice(
            [INFINITE_ORDER, F(rng.randint(-8, 24), rng.randint(1, 6)), rng.randint(-2, 6)]
        )
        got, want = truncate(lcf.mul(a, b), cap), reference_mul(a, b, cap)
        assert got.terms == want.terms, (a, b, cap)
        assert got.order == want.order and type(got.order) is type(want.order)
    # 40-bit coefficients whose endpoint denominators differ: every sum of
    # two products meets two denominators and goes over their lcm
    for _ in range(300):
        a, b = (
            LeviCivitaNumber(
                tuple(
                    (F(n, rng.randint(1, 6)), random_wide_interval(rng))
                    for n in rng.sample(range(-6, 12), rng.randint(1, 5))
                ),
                F(rng.randint(6, 18), 2) if rng.random() < 0.4 else INFINITE_ORDER,
            )
            for _ in range(2)
        )
        got, want = lcf.mul(a, b), reference_mul(a, b)
        assert got.terms == want.terms and got.order == want.order, (a, b)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_equal_sum_of_powers(name):
    coefficient, series = SERIES[name]
    rng = Random(41)
    for order in SERIES_ORDERS:
        for _ in range(10):
            u = random_lattice_u(rng)
            assert as_triples(series(u, order)) == as_triples(
                reference_series(u, order, coefficient)
            )


def reference_recurrence(u, order, rules):
    """The series recurrence of lcf._series as it ran on Interval objects
    before the integer core, each endpoint a gcd-normalised Fraction.  As
    there, an order below 0 acts as 0: every term sits at e >= 0.  An order
    is a Fraction or the float inf, which min, max and + meet exactly."""
    order = max(order, 0)
    starts = [lcf.from_rational(rule[0]) for rule in rules]
    if u.is_zero:
        return tuple(starts)
    if order == INFINITE_ORDER and u.terms:
        raise ValueError("series does not terminate at infinite truncation order")
    lead = u.terms[0][0] if u.terms else u.order
    caps = [min(order, u.order + (k1 - 1) * lead) for *_, k1 in rules]
    steps = [(q, c) for q, c in u.terms if q < max(caps)]
    if not steps:
        return tuple(truncate(start, cap) for start, cap in zip(starts, caps))
    denominator = math.lcm(*(q.denominator for q, _ in steps))
    steps = [(q.numerator * (denominator // q.denominator), c) for q, c in steps]
    tops = [math.ceil(cap * denominator) for cap in caps]  # u has terms: every cap is finite
    top, reached, frontier = max(tops), {0}, {0}
    while frontier:
        frontier = {e + k for e in frontier for k, _ in steps if e + k < top} - reached
        reached |= frontier
    series = [{0: start.terms[0][1]} if start.terms else {} for start in starts]
    for e in sorted(reached)[1:]:
        for y, top_y, (_, a, b, d, source, _) in zip(series, tops, rules):
            total = None
            for k, c in steps:
                if k > e or e >= top_y:
                    break
                w = series[source].get(e - k)
                if w is not None:
                    term = c * w * Interval.point(F(a * k + b * e, d * e))
                    total = term if total is None else total + term
            if total is not None and not total.is_zero:
                y[e] = total
    return tuple(
        LeviCivitaNumber(tuple((F(e, denominator), c) for e, c in y.items()), cap)
        for y, cap in zip(series, caps)
    )


def random_wide_u(rng):
    """An infinitesimal on the 1/6 lattice with random_wide_interval
    coefficients: they straddle 0, touch it, are 40-bit and have different
    lo/hi denominators; sometimes with an unknown tail."""
    exponents = sorted(rng.sample([F(n, 6) for n in range(1, 13)], rng.randint(1, 4)))
    terms = tuple((q, random_wide_interval(rng)) for q in exponents)
    tail = F(rng.randint(13, 30), 6)
    return LeviCivitaNumber(terms, tail if rng.random() < 0.5 else INFINITE_ORDER)


def _refined_to_zero(u):
    """u with every coefficient that contains 0 refined to exactly 0."""
    kept = tuple((q, c) for q, c in u.terms if 0 not in c)
    return LeviCivitaNumber(kept, u.order)


def _each_series(u, order, rules):
    """lcf._series once per rule, each series times the exact factor 1."""
    return tuple(
        lcf._series((u.denominator, u.pairs, u.top), order, rules, ((i, (1, 1, 1)),), 0)
        for i in range(len(rules))
    )


@pytest.mark.parametrize("rules", ["_INVERSE", "_SQRT", "_COS_SIN"])
def test_series_equals_the_interval_recurrence(rules):
    rules = getattr(lcf, rules)
    rng = Random(47)
    for order in (F(2), F(17, 6), F(4), F(8)):
        for _ in range(8):
            for u in (random_wide_u(rng), random_lattice_u(rng, interval=True)):
                for v in (u, _refined_to_zero(u)):
                    got = _each_series(v, order, rules)
                    want = reference_recurrence(v, order, rules)
                    assert [as_triples(x) for x in got] == [as_triples(x) for x in want]


def reference_scale(a, factor):
    """lcf.scale as it ran on Interval objects."""
    if factor.is_zero:
        return lcf.zero()
    return LeviCivitaNumber(tuple((q, c * factor) for q, c in a.terms), a.order)


def reference_shift(a, delta):
    """Multiplication by t^delta, the step the fused rescale replaced."""
    terms = tuple((q + delta, c) for q, c in a.terms)
    return LeviCivitaNumber(terms, a.order + delta)  # inf + delta is inf


def reference_cos_sin(x, precision):
    """cos_sin_interval as it ran before its exact-point path: midpoint,
    pad by the halfwidth and clamp to [-1, 1], also at an exact point.  The
    point's enclosure arrives clamped, which leaves the padded clamp as it is."""
    pad = x.width / 2
    return tuple(
        Interval(e.lo - pad, e.hi + pad).intersect(Interval(F(-1), F(1)))
        for e in cos_sin_interval(Interval.point(x.midpoint), precision)
    )


def reference_function(name, a, order, precision):
    """inverse, sqrt, cos_enclosure or sin_enclosure composed as before the
    fused rescale: the Interval-based split a = c t^q (1 + u),
    reference_recurrence, then shift(scale(series, f), delta), or for cos
    and sin the add/sub of the series scaled by cos s and sin s."""
    if name in ("inverse", "sqrt"):
        q, c = a.terms[0]
        tail = LeviCivitaNumber(a.terms[1:], a.order)
        inverse_c = Interval(1 / c.hi, 1 / c.lo)
        u = reference_shift(reference_scale(tail, inverse_c), -q)
        if name == "inverse":
            (series,) = reference_recurrence(u, order, lcf._INVERSE)
            return reference_shift(reference_scale(series, inverse_c), -q)
        (series,) = reference_recurrence(u, order - q / 2, lcf._SQRT)
        return reference_shift(reference_scale(series, sqrt_interval(c, precision)), q / 2)
    cos_s, sin_s = reference_cos_sin(lcf.standard_part(a), precision)
    u = LeviCivitaNumber(tuple((q, c) for q, c in a.terms if q > 0), a.order)
    cos_u, sin_u = reference_recurrence(u, order, lcf._COS_SIN)
    if name == "cos_enclosure":
        return lcf.sub(reference_scale(cos_u, cos_s), reference_scale(sin_u, sin_s))
    return lcf.add(reference_scale(sin_u, cos_s), reference_scale(cos_u, sin_s))


def random_series_argument(rng, name):
    """A valid argument of `name`: for inverse and sqrt a leading term c t^q
    with q negative or fractional and c an interval or exact (positive for
    sqrt), for cos and sin a standard part that is 0, exact (large ones
    reduced mod 2 pi) or an interval; then up to four higher terms from
    random_wide_interval or small rationals, touching or straddling 0, and
    a finite or no truncation order."""
    d = rng.choice([1, 2, 3, 6])
    if name in ("inverse", "sqrt"):
        lead = F(rng.randint(-6, 6), d)
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        if name == "inverse" and rng.random() < 0.5:
            c = -c
        if rng.random() < 0.5:
            c = Interval(c - F(rng.randint(0, 3), 64), c + F(rng.randint(0, 3), 64))
    else:
        lead, c = F(0), rng.choice([0, F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(5, 10**6))])
        if rng.random() < 0.3:
            c = Interval(F(c) - F(rng.randint(0, 3), 64), F(c) + F(rng.randint(0, 3), 64))
    terms = [(lead, c)]
    for n in sorted(rng.sample(range(1, 4 * d), rng.randint(0, min(4, 4 * d - 1)))):
        coeff = random_wide_interval(rng) if rng.random() < 0.5 else F(rng.randint(-3, 3), 4)
        if rng.random() < 0.3:
            coeff = Interval(F(0), F(rng.randint(1, 3), 8))  # touches 0
        terms.append((lead + F(n, d), coeff))
    order = lead + F(4 * d + rng.randint(0, 6), d)
    return LeviCivitaNumber(tuple(terms), order if rng.random() < 0.5 else INFINITE_ORDER)


def flagged(x):
    """The terms with each coefficient's `lo is hi` flag, the order and its type."""
    return [(q, c.lo, c.hi, c.lo is c.hi) for q, c in x.terms], x.order, type(x.order)


@pytest.mark.parametrize("name", ["inverse", "sqrt", "cos_enclosure", "sin_enclosure"])
def test_fused_rescale_equals_the_interval_composition(name):
    function = getattr(lcf, name)
    rng = Random(53)
    for _ in range(300):
        a = random_series_argument(rng, name)
        order = rng.choice([F(2), F(17, 6), F(4), F(8), F(-1), INFINITE_ORDER])
        precision = rng.choice([16, 64, 100])
        try:
            want = flagged(reference_function(name, a, order, precision))
        except ValueError as exc:  # a series at infinite order
            with pytest.raises(type(exc)):
                function(a, order, precision) if name != "inverse" else function(a, order)
            continue
        got = function(a, order, precision) if name != "inverse" else function(a, order)
        assert flagged(got) == want, (a, order, precision)


def _member(rng, u):
    """An exact member of u's coefficient intervals, endpoints included."""
    pick = lambda c: rng.choice([c.lo, c.hi, c.lo + c.width * F(rng.randint(0, 8), 8)])
    return LeviCivitaNumber(tuple((q, pick(c)) for q, c in u.terms), u.order)


def _refinement(rng, u):
    """u with each coefficient interval narrowed to a sub-interval, and
    sometimes to exactly 0, which drops the term."""
    def narrow(c):
        if 0 in c and rng.random() < 0.3:
            return Interval.point(0)
        cut = lambda: c.width * F(rng.randint(0, 3), 8)
        return Interval(c.lo + cut(), c.hi - cut())

    return LeviCivitaNumber(tuple((q, narrow(c)) for q, c in u.terms), u.order)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_on_intervals_sound_and_nested(name):
    _, series = SERIES[name]
    rng = Random(43)
    for order in SERIES_ORDERS[:4]:
        for _ in range(6):
            u = random_lattice_u(rng, interval=True)
            enclosure = series(u, order)
            for _ in range(3):
                assert encloses(enclosure, series(_member(rng, u), order))
            assert encloses(enclosure, series(_refinement(rng, u), order))


def test_series_nested_when_a_coefficient_refines_to_zero():
    # refining [-1, 1]t^2 to 0 leaves u = O(t^3), whose cos is 1 + O(t^6)
    coarse = lcf.cos_enclosure(
        LeviCivitaNumber(((F(2), Interval(F(-1), F(1))),), F(3)), 8, 64
    )
    fine = lcf.cos_enclosure(lcf.zero(F(3)), 8, 64)
    assert as_triples(coarse) == ([(0, 1, 1), (4, F(-1, 2), F(1, 2))], 5)
    assert as_triples(fine) == ([(0, 1, 1)], 6)
    assert encloses(coarse, fine)


def test_series_cost_is_linear_in_terms(monkeypatch):
    # per term: two products of the recurrence from a two-term u and one of
    # the rescale by 1/c; the two tail terms of u take one product each
    calls = 0
    product = lcf._product

    def counted(x, y):
        nonlocal calls
        calls += 1
        return product(x, y)

    monkeypatch.setattr(lcf, "_product", counted)
    result = lcf.inverse(num("1 - t - t^2"), 200)
    assert len(result.terms) == 200 and 0 < calls <= 3 * 200


def test_a_series_in_zero_is_its_start(monkeypatch):
    # u = 0: cos/sin of an exact constant, the root of a constant and the
    # inverse of an exact monomial are the start times its factor, at exact
    # order, with no product of the recurrence or of the rescale
    cases = []
    for s in (lcf.zero(), num("1/3"), num("-22/7"), lcf.from_rational(pi_interval(64))):
        cos_s, sin_s = cos_sin_interval(lcf.standard_part(s), 64)
        cases.append((lcf.cos_enclosure, s, lcf.from_rational(cos_s)))
        cases.append((lcf.sin_enclosure, s, lcf.from_rational(sin_s)))
    for c in (F(9, 4), F(2)):
        root = sqrt_interval(Interval.point(c), 64)
        cases.append((lcf.sqrt, lcf.from_rational(c), lcf.from_rational(root)))
    one_two = Interval(F(1), F(2))
    half_one = Interval(1 / one_two.hi, 1 / one_two.lo)
    cases.append((lcf.inverse, lcf.monomial(3, F(1, 3)), lcf.monomial(F(1, 3), F(-1, 3))))
    cases.append((lcf.inverse, lcf.from_rational(one_two), lcf.from_rational(half_one)))
    calls = 0
    product = lcf._product

    def counted(x, y):
        nonlocal calls
        calls += 1
        return product(x, y)

    monkeypatch.setattr(lcf, "_product", counted)
    for op, x, expected in cases:
        for order in (F(-1), F(8), F(7, 3)):
            result = op(x, order) if op is lcf.inverse else op(x, order, 64)
            assert result == expected and result.order == INFINITE_ORDER, (op, x, order)
    assert calls == 0


def test_sqrt_cos_sin_hand_the_kernels_stored_triples(monkeypatch):
    # the root of the lead and cos/sin of the standard part run on the
    # triples the field stores: no Fraction is built and no Interval is boxed
    ops = (lcf.sqrt, lcf.cos_enclosure, lcf.sin_enclosure)
    cases = [(op, x, op(x, 4, 64)) for op, x in zip(ops, map(num, ("2 + t", "1/3 + t", "1/3 + t")))]
    counts = {"Fraction": 0, "Interval": 0}
    fraction_new, box = F.__new__, intervals._interval

    def counted_fraction(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return fraction_new(cls, *args, **kwargs)

    def counted_box(c):
        counts["Interval"] += 1
        return box(c)

    monkeypatch.setattr(F, "__new__", counted_fraction)
    monkeypatch.setattr(intervals, "_interval", counted_box)
    monkeypatch.setattr(lcf, "_interval", counted_box)
    for op, x, expected in cases:
        counts.update(Fraction=0, Interval=0)
        assert op(x, 4, 64) == expected
        assert counts == {"Fraction": 0, "Interval": 0}, (op, counts)


def test_cos_examples():
    assert lcf.cos_enclosure(lcf.zero(), 4, 64) == ONE
    expansion = lcf.cos_enclosure(T, 4, 64)
    assert expansion.coefficient(0) == Interval.point(1)
    assert expansion.coefficient(2) == Interval.point(F(-1, 2))
    assert expansion.order == 4
    enc = lcf.cos_enclosure(ONE, 4, 64).coefficient(0)
    assert COS1 in enc


def test_cos_angle_addition_structure():
    # cos(1 + t) = cos1 - sin1 * t - (cos1/2) t^2 + ...
    SIN1 = F(8414709848078965066525023216302989996225, 10**40)
    value = lcf.cos_enclosure(ONE + T, 6, 64)
    assert COS1 in value.coefficient(0)
    assert -SIN1 in value.coefficient(1)
    assert -COS1 / 2 in value.coefficient(2)


def test_cos_sin_pythagoras_at_exponent_zero():
    for arg in (ONE, num("2"), num("1/3"), num("1 + t")):
        c = lcf.cos_enclosure(arg, 4, 64).coefficient(0)
        s = lcf.sin_enclosure(arg, 4, 64).coefficient(0)
        total = c * c + s * s
        assert F(1) in total
        assert total.width <= F(1, 2**58)


def test_cos_rejects_infinite():
    with pytest.raises(NotFinite):
        lcf.cos_enclosure(TI, 4, 64)


def test_pi_number():
    PI = F(31415926535897932384626433832795028841971, 10**40)
    assert PI in lcf.from_rational(pi_interval(64)).coefficient(0)


def test_refinement_monotonicity():
    coarse = lcf.sqrt(lcf.from_rational(2), 4, 24).coefficient(0)
    fine = lcf.sqrt(lcf.from_rational(2), 4, 96).coefficient(0)
    assert coarse.intersect(fine) == fine
    coarse = lcf.cos_enclosure(ONE, 4, 24).coefficient(0)
    fine = lcf.cos_enclosure(ONE, 4, 96).coefficient(0)
    assert coarse.intersect(fine) == fine


# ---------------------------------------------------------------------------
# classification / standard part / halos
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert lcf.classify_magnitude(T) is Magnitude.INFINITESIMAL
    assert lcf.classify_magnitude(num("3/2 + 5t")) is Magnitude.APPRECIABLE
    assert lcf.classify_magnitude(TI) is Magnitude.INFINITE
    assert lcf.classify_magnitude(lcf.zero()) is Magnitude.INFINITESIMAL
    assert lcf.classify_magnitude(lcf.zero(F(2))) is Magnitude.INFINITESIMAL
    assert lcf.classify_magnitude(lcf.zero(F(0))) is Magnitude.UNKNOWN


def test_classify_straddles():
    wide = lcf.from_rational(Interval(F(-1), F(1)))
    assert lcf.classify_magnitude(wide + T) is Magnitude.UNKNOWN
    # a definite deeper term rescues the verdict
    assert (
        lcf.classify_magnitude(lcf.monomial(Interval(F(-1), F(1)), -2) + lcf.scale(TI, 5))
        is Magnitude.INFINITE
    )


def test_standard_part_examples():
    assert lcf.standard_part(num("3/2 + 5t")) == Interval.point(F(3, 2))
    assert lcf.standard_part(num("t - t^2")) == Interval.point(0)
    with pytest.raises(NotFinite):
        lcf.standard_part(TI)
    # members of O(1) are infinitesimal or appreciable, of O(t^-1) finite or
    # infinite, of [-1, 1] t^-1 + 1 too: undecided, not infinite
    wide = lcf.monomial(Interval(F(-1), F(1)), -1) + ONE
    for undecided, exponent in ((lcf.zero(F(0)), 0), (lcf.zero(F(-1)), -1), (wide, -1)):
        with pytest.raises(IndeterminateComparison) as blocked:
            lcf.standard_part(undecided)
        assert blocked.value.exponent == exponent


def test_halo_equal_examples():
    assert lcf.halo_equal(ONE, ONE + lcf.t_power(3)) is Ternary.TRUE
    assert lcf.halo_equal(ONE, lcf.from_rational(2)) is Ternary.FALSE
    assert lcf.halo_equal(TI, TI + T) is Ternary.TRUE
    wide = lcf.from_rational(Interval(F(-1), F(1)))
    assert lcf.halo_equal(wide, lcf.zero()) is Ternary.UNKNOWN


# ---------------------------------------------------------------------------
# field laws and the standard-part morphism on random exact values
# ---------------------------------------------------------------------------

def test_field_laws_random():
    rng = Random(23)
    for _ in range(120):
        a, b, c = (random_exact(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_standard_part_is_ring_morphism():
    rng = Random(29)
    for _ in range(200):
        a, b = random_finite(rng), random_finite(rng)
        assert lcf.standard_part(a + b) == lcf.standard_part(a) + lcf.standard_part(b)
        assert lcf.standard_part(a * b) == lcf.standard_part(a) * lcf.standard_part(b)


def test_kernel_characterization():
    rng = Random(31)
    for _ in range(300):
        a = random_finite(rng)
        is_kernel = lcf.standard_part(a).is_zero
        assert is_kernel == (lcf.classify_magnitude(a) is Magnitude.INFINITESIMAL)


# ---------------------------------------------------------------------------
# rational approximation
# ---------------------------------------------------------------------------

def test_approximate_within_identity_case():
    y = num("3/2 + 5t")
    assert lcf.approximate_within(y, T * T) == y


def test_approximate_within_scalar_tolerance():
    enc = lcf.sqrt(lcf.from_rational(2), 4, 64)
    q = lcf.approximate_within(enc, lcf.from_rational(F(1, 1000)))
    assert q.is_exact
    assert abs(q.coefficient(0).lo - SQRT2) < F(1, 1000)


def test_approximate_within_infinitesimal_tolerance():
    q = lcf.approximate_within(ONE, T)
    assert lcf.standard_part(q) == Interval.point(1)
    assert lcf.halo_equal(q, ONE) is Ternary.TRUE


def test_approximate_within_random():
    rng = Random(37)
    for _ in range(100):
        y = random_finite(rng)
        q = lcf.approximate_within(y, T)
        assert q.is_exact
        assert lcf.halo_equal(q, y) is Ternary.TRUE
        gap = lcf.sub(y, q)
        assert lcf.sign(lcf.sub(T, gap)) > 0 and lcf.sign(lcf.add(T, gap)) > 0


def test_approximate_within_requires_positive_eps():
    with pytest.raises(PreconditionViolated):
        lcf.approximate_within(ONE, lcf.zero())
    with pytest.raises(IndeterminateComparison):
        lcf.approximate_within(ONE, lcf.zero(F(4)))


def test_approximate_within_enclosure_wider_than_eps():
    enc = lcf.sqrt(lcf.from_rational(2), 4, 64)
    with pytest.raises(IndeterminateComparison):
        lcf.approximate_within(enc, T)
