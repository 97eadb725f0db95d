"""Every enclosure holds its members: a member of a number is an exact series
with one rational from each coefficient interval (an endpoint or an interior
point) plus a finite tail on lattice exponents at or above the order.  Each
operation's result must hold the members' result below its order, every
exponent's coefficient inside its interval (a missing term counting as
[0, 0]); a series operation's members are expanded at a higher order and
precision.  Sign, comparison, magnitude and standard-part queries must agree
with every member they answer for."""

from fractions import Fraction as F

import pytest

from ihull import cover, lcf
from ihull.errors import IndeterminateComparison, NotFinite
from ihull.intervals import Interval
from ihull.lcf import INFINITE_ORDER, LeviCivitaNumber, Magnitude

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(database=None, derandomize=True)

#: the series operations' orders (below 0 too) and precision, and how far the
#: members' expansions exceed them
ORDERS, PRECISION = (-1, 0, 3), 24
EXTRA_ORDER, MEMBER_PRECISION = 3, 64

#: [lo, lo + width] / den: exact one time in four, containing 0 or not
_coefficients = st.builds(
    lambda lo, width, den: Interval(F(lo, den), F(lo + width, den)),
    st.integers(-4, 4), st.integers(0, 3), st.integers(1, 3),
)
_positive_coefficients = _coefficients.filter(lambda c: c.lo > 0)
_rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
_quarters = st.integers(0, 4)
_orders = st.sampled_from(ORDERS)


@st.composite
def _numbers(draw, low=-3, positive_order=False):
    """A number on (1/d)Z, d <= 3: termless one time in four (exact zero when
    its order is infinite), else up to four terms from exponent `low` on."""
    d = draw(st.integers(1, 3))
    low_order = 1 if positive_order else low * d
    order = draw(st.one_of(
        st.just(INFINITE_ORDER), st.integers(low_order, 4 * d).map(lambda n: F(n, d))
    ))
    if draw(st.integers(0, 3)) == 0:
        return lcf.zero(order)
    exponents = draw(st.lists(st.integers(low * d, 4 * d), unique=True, max_size=4))
    return LeviCivitaNumber([(F(n, d), draw(_coefficients)) for n in exponents], order)


_infinitesimals = _numbers(low=1, positive_order=True)


def _pick(draw, c: Interval) -> F:
    """A rational of `c`: an endpoint, or an interior point."""
    return c.lo + (c.hi - c.lo) * F(draw(_quarters), 4)


@st.composite
def _members(draw, x):
    """An exact member of x: a rational per coefficient, plus a tail of up to
    three terms at exponents order + k/D, 0 <= k <= 2D, D x's lattice."""
    terms = [(q, _pick(draw, c)) for q, c in x.terms]
    if x.order is not INFINITE_ORDER:
        steps = draw(st.lists(st.integers(0, 2 * x.denominator), unique=True, max_size=3))
        terms += [(x.order + F(k, x.denominator), draw(_rationals)) for k in steps]
    return LeviCivitaNumber(terms)


def _holds(result, member):
    """`member` (a member's result) lies in `result` below result's order."""
    assert member.order is INFINITE_ORDER or (
        result.order is not INFINITE_ORDER and member.order >= result.order
    ), (result, member)
    for q in {q for q, _ in result.terms} | {q for q, _ in member.terms}:
        if result.order is INFINITE_ORDER or q < result.order:
            c, m = result.coefficient(q), member.coefficient(q)
            assert c.lo <= m.lo and m.hi <= c.hi, (q, result, member)


# -- ring operations -------------------------------------------------------------

@PROPERTY
@given(_numbers(), _numbers(), _coefficients, st.data())
def test_ring_operations_hold_their_members(x, y, factor, data):
    mx, my = data.draw(_members(x)), data.draw(_members(y))
    _holds(lcf.add(x, y), lcf.add(mx, my))
    _holds(lcf.neg(x), lcf.neg(mx))
    _holds(lcf.mul(x, y), lcf.mul(mx, my))
    _holds(lcf.scale(x, factor), lcf.scale(mx, _pick(data.draw, factor)))


@PROPERTY
@given(_numbers(), _numbers(), st.booleans())
@example(lcf.from_rational(F(2, 3)) + lcf.T, None, True)  # exact: exact zero
@example(LeviCivitaNumber([(F(-1), 2), (F(1, 2), F(1, 3))], F(5, 2)), None, True)  # O(t^(5/2))
def test_sub_is_the_sum_with_the_negation(x, y, same):
    y = x if same else y
    difference = lcf.sub(x, y)
    assert difference == lcf.add(x, lcf.neg(y)) == x - y
    if same and all(c.is_exact for _, c in x.terms):
        assert difference == lcf.zero(x.order)


# -- series operations -----------------------------------------------------------

def _expanded(op, x, mx, order):
    """op at (order, PRECISION) on x, and on mx at a higher order and precision."""
    if op is lcf.inverse:
        return op(x, order), op(mx, order + EXTRA_ORDER)
    return op(x, order, PRECISION), op(mx, order + EXTRA_ORDER, MEMBER_PRECISION)


@PROPERTY
@given(_numbers(), _orders, st.data())
def test_inverse_and_roots_hold_their_members(x, order, data):
    mx = data.draw(_members(x))
    leading = x.terms[0][1] if x.pairs else None
    if leading is not None and 0 not in leading:
        _holds(*_expanded(lcf.inverse, x, mx, order))
    if leading is not None and leading.lo > 0:
        _holds(*_expanded(lcf.sqrt, x, mx, order))
    # every member of x*x is >= 0, as sqrt_nonnegative requires
    _holds(*_expanded(lcf.sqrt_nonnegative, lcf.mul(x, x), lcf.mul(mx, mx), order))


@PROPERTY
@given(_numbers(low=0, positive_order=True), _orders, st.data())
def test_cos_and_sin_hold_their_members(x, order, data):
    mx = data.draw(_members(x))
    _holds(*_expanded(lcf.cos_enclosure, x, mx, order))
    _holds(*_expanded(lcf.sin_enclosure, x, mx, order))


@st.composite
def _cover_points(draw, angles):
    """(r, zeta): r = c t^e (1 + u) with c > 0, zeta = s + u' with s drawn
    from `angles`, u and u' infinitesimal."""
    c = draw(_positive_coefficients)
    r = lcf.mul(lcf.monomial(c, draw(st.integers(-1, 1))), lcf.add(lcf.one(), draw(_infinitesimals)))
    zeta = lcf.add(lcf.from_rational(draw(angles)), draw(_infinitesimals))
    return cover.CoverPoint(r, zeta)


#: standard angle gaps below pi (the chord) and at least 4 (through the puncture)
_BRANCHES = {
    "chord": (st.integers(-1, 1), st.integers(-1, 1)),
    "puncture": (st.integers(2, 4), st.integers(-4, -2)),
}


@pytest.mark.parametrize("branch", _BRANCHES)
@settings(PROPERTY, max_examples=40)  # 80 examples over the two branches
@given(st.data())
def test_cover_distance_holds_its_members_on_both_branches(branch, data):
    a, b = (data.draw(_cover_points(angles)) for angles in _BRANCHES[branch])
    order = data.draw(_orders)
    d = cover.cover_distance(a, b, order, PRECISION)
    ma, mb = (
        cover.CoverPoint(data.draw(_members(p.r)), data.draw(_members(p.zeta))) for p in (a, b)
    )
    _holds(d, cover.cover_distance(ma, mb, order + EXTRA_ORDER, MEMBER_PRECISION))


# -- queries ---------------------------------------------------------------------

def _answer(query, *args):
    try:
        return query(*args)
    except IndeterminateComparison:
        return None


@PROPERTY
@given(_numbers(), _numbers(), st.data())
def test_queries_agree_with_every_member(x, y, data):
    mx, my = data.draw(_members(x)), data.draw(_members(y))
    s = _answer(lcf.sign, x)
    assert s is None or lcf.sign(mx) == s
    ordering = _answer(lcf.compare, x, y)
    assert ordering is None or lcf.compare(mx, my) is ordering
    magnitude = lcf.classify_magnitude(x)
    assert magnitude is Magnitude.UNKNOWN or lcf.classify_magnitude(mx) is magnitude
    try:
        part = _answer(lcf.standard_part, x)
    except NotFinite:  # every member has a nonzero term below t^0
        assert mx.pairs and mx.pairs[0][0] < 0, (x, mx)
    else:
        assert part is None or mx.coefficient(0).lo in part, (x, mx, part)
