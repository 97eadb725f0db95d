"""Property tests of the stored form of `lcf` numbers: each on its least
lattice (1/D)Z, that of its exponents and its order, so that equal values
have equal fields whatever built them."""

import math
from fractions import Fraction as F

import pytest

from ihull import lcf, parsing
from ihull.errors import IndeterminateComparison
from ihull.intervals import ZERO_INTERVAL, Interval
from ihull.lcf import INFINITE_ORDER, LeviCivitaNumber
from ihull.parsing import format_number, parse_number

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(database=None, derandomize=True)

#: exponents of both signs with denominators 1..6; exact coefficients (0
#: included), and coefficients that are points or intervals of either sign
_exponents = st.builds(F, st.integers(-12, 24), st.integers(1, 6))
_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
_widths = st.builds(F, st.integers(1, 9), st.integers(1, 6))
_coefficients = st.one_of(_rationals, st.builds(lambda lo, w: Interval(lo, lo + w), _rationals, _widths))
_terms = st.lists(st.tuples(_exponents, _rationals), max_size=5)
_interval_terms = st.lists(st.tuples(_exponents, _coefficients), max_size=5)
_orders = st.one_of(st.just(INFINITE_ORDER), st.builds(F, st.integers(-6, 30), st.integers(1, 6)))
_exact = st.builds(LeviCivitaNumber, _terms)
_rational_numbers = st.builds(LeviCivitaNumber, _terms, _orders)
_numbers = st.builds(LeviCivitaNumber, _interval_terms, _orders)
#: infinitesimals u with point or interval coefficients: [1, 2] + u has a
#: certainly positive lead
_infinitesimals = st.builds(
    LeviCivitaNumber,
    st.lists(st.tuples(st.builds(F, st.integers(1, 12), st.integers(1, 6)), _coefficients), max_size=4),
    st.one_of(st.just(INFINITE_ORDER), st.builds(F, st.integers(1, 30), st.integers(1, 6))),
)


def _canonical(x):
    """x is on its least lattice, gcd(D, top, every n) = 1 (top left out when
    the order is infinite), stores every coefficient as a reduced triple
    (L, H, E): gcd 1, E > 0, L <= H and not (0, 0), and equals, field by
    field and in hash, the number rebuilt from its terms."""
    tops = () if x.top == INFINITE_ORDER else (x.top,)
    least = math.gcd(x.denominator, *tops, *(n for n, _ in x.pairs)) == 1
    reduced = all(
        math.gcd(lo, hi, e) == 1 and e > 0 and lo <= hi and (lo or hi) for _, (lo, hi, e) in x.pairs
    )
    rebuilt = LeviCivitaNumber(x.terms, x.order)
    return least and reduced and rebuilt == x and hash(rebuilt) == hash(x)


@PROPERTY
@given(_rational_numbers)  # the text of an interval coefficient is approximate
def test_rebuilt_and_parsed_numbers_equal_the_stored_one(x):
    assert _canonical(x)
    assert [n for n, _ in x.pairs] == sorted({n for n, _ in x.pairs})
    assert x.order == INFINITE_ORDER or x.order == F(x.top, x.denominator)
    assert parse_number(format_number(x)) == x


@PROPERTY
@given(st.integers(-(1 << 200), 1 << 200), st.integers(1, 1 << 200), st.integers(1, 1 << 40))
@example(0, 1, 1)
@example(0, 12, 5)
@example(-6, 4, 1)
@example(7, 1, 3)
def test_a_printed_rational_is_what_its_fraction_prints(n, d, k):
    # the stored integers print as their Fraction does, reduced or not
    assert parsing._rational(n, d) == str(F(n, d))
    assert parsing._rational(n * k, d * k) == str(F(n, d))


def _json_from_terms(x):
    """`number_to_json` of x computed from its terms as Fractions and Intervals."""
    if x.is_exact:
        return format_number(x)
    return {
        "terms": [
            {"exponent": str(q), "lo": str(c.lo), "hi": str(c.hi), "approx": float(c.midpoint)}
            for q, c in x.terms
        ],
        "order": None if x.order is INFINITE_ORDER else str(x.order),
        "display": format_number(x),
    }


@PROPERTY
@given(_numbers)
def test_json_from_the_stored_integers_equals_the_json_from_the_terms(x):
    assert parsing.number_to_json(x) == _json_from_terms(x)


@PROPERTY
@given(_numbers, _exponents)
def test_coefficient_reads_the_term_at_any_exponent(x, q):
    terms = dict(x.terms)
    assert x.coefficient(q) == terms.get(q, ZERO_INTERVAL)
    assert x.coefficient(q.numerator) == terms.get(q.numerator, ZERO_INTERVAL)


def _sign_or_blocking_exponent(f, *args):
    try:
        return f(*args)
    except IndeterminateComparison as exc:
        return "blocked", exc.exponent


@PROPERTY
@given(_numbers, _coefficients, st.booleans())
@example(lcf.from_rational(3) + lcf.monomial(Interval(-1, 1), 1), F(3), True)  # the 0 term cancels
def test_sign_plus_reads_the_sum_off_the_stored_pairs(x, c, negate):
    # the sign of x + c, or x - c, and where it blocks, with no sum built
    total = lcf.add(x, lcf.monomial(c, 0), negate)
    want = _sign_or_blocking_exponent(lcf.sign, total)
    assert _sign_or_blocking_exponent(lcf.sign_plus, x, c, negate) == want


@PROPERTY
@given(_numbers, _numbers, _numbers)
def test_add_and_mul_commute_and_associate(x, y, z):
    for op in (lcf.add, lcf.mul):
        assert op(x, y) == op(y, x) and _canonical(op(x, y))
    assert lcf.add(lcf.add(x, y), z) == lcf.add(x, lcf.add(y, z))


@PROPERTY
@given(_exact, _exact, _exact)
def test_exact_mul_associates_and_distributes(x, y, z):
    # with unknown tails both sides are enclosures, not always the same one:
    # (O(1) O(1)) t is O(t), O(1) (O(1) t) is O(1)
    assert lcf.mul(lcf.mul(x, y), z) == lcf.mul(x, lcf.mul(y, z))
    assert lcf.mul(x, lcf.add(y, z)) == lcf.add(lcf.mul(x, y), lcf.mul(x, z))


@PROPERTY
@given(_numbers, st.integers(1, 6))
def test_values_equal_whatever_path_built_them(x, d):
    # through a finer lattice and back, and a cancelling sum, land on the
    # least lattice again
    there = lcf.mul(lcf.mul(x, lcf.t_power(F(1, d))), lcf.t_power(F(-1, d)))
    assert there == x and _canonical(there)
    root = lcf.t_power(F(1, 2 * d))
    assert lcf.mul(root, root) == lcf.t_power(F(1, d))
    cancelled = lcf.sub(lcf.add(x, root), root)
    assert cancelled == x and _canonical(cancelled)


@PROPERTY
@given(_numbers, _coefficients, _infinitesimals, st.integers(1, 6))
def test_every_operation_stores_reduced_triples(x, c, u, order):
    # neg, scale, add and mul of any numbers, and the inverse, sqrt, cos and
    # sin series of a number with an interval lead
    for y in (lcf.neg(x), lcf.scale(x, c), lcf.add(x, u), lcf.mul(x, u), lcf.magnitude_bound(x)):
        assert _canonical(y)
    a = lcf.add(lcf.from_rational(Interval(1, 2)), u)
    for f in (lcf.inverse, lcf.sqrt, lcf.cos_enclosure, lcf.sin_enclosure):
        assert _canonical(f(a, order))


def test_equal_values_have_equal_fields():
    half = lcf.t_power(F(1, 2))
    assert half * half == lcf.T and (half * half).denominator == 1
    third = parse_number("t^1/3")
    one = (lcf.one() + third) - third
    assert one == lcf.one() and one.denominator == 1 and one.pairs == lcf.one().pairs


def test_the_order_denominator_does_not_lengthen_a_series():
    # at order 17/3 the inverse is stored on (1/3)Z, yet its series reaches
    # only sums of u's exponents: the 6 terms below t^6, as at order 6
    x = lcf.inverse(lcf.one() - lcf.T, F(17, 3))
    assert x.terms == lcf.inverse(lcf.one() - lcf.T, 6).terms and len(x.terms) == 6
    assert x.order == F(17, 3) and x.denominator == 3
