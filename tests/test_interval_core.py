"""Property tests of the integer-endpoint core under `Interval` arithmetic."""

import math
from fractions import Fraction as F

import pytest

from ihull import lcf
from ihull.errors import ZeroOrUnknownLeading
from ihull.intervals import (
    ONE_INTERVAL,
    ZERO_INTERVAL,
    Interval,
    _interval,
    _reciprocal,
    _reduced,
    _triple,
    cos_sin_interval,
    sqrt_interval,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY = settings(database=None, derandomize=True)

_small = st.builds(F, st.integers(-20, 20), st.integers(1, 12))
_large = st.builds(F, st.integers(-(1 << 90), 1 << 90), st.integers(1, 1 << 90))
_rationals = st.one_of(_small, _large)
_nonnegative = _rationals.map(abs)

#: points, intervals of any sign, and intervals straddling or touching 0
_intervals = st.one_of(
    _rationals.map(Interval.point),
    st.tuples(_rationals, _rationals).map(lambda ends: Interval(*sorted(ends))),
    st.tuples(_nonnegative, _nonnegative).map(lambda ends: Interval(-ends[0], ends[1])),
)
#: a fraction of the way from lo to hi
_positions = st.builds(F, st.integers(0, 64), st.just(64))


def _reference(x, y):
    """x + y, x - y, x * y and 1/x (None when x holds 0) on Fraction endpoints."""
    products = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return (
        (x.lo + y.lo, x.hi + y.hi),
        (x.lo - y.hi, x.hi - y.lo),
        (min(products), max(products)),
        None if x.lo <= 0 <= x.hi else (1 / x.hi, 1 / x.lo),
    )


def _results(x, y):
    reciprocal = None if 0 in x else _interval(_reciprocal(_triple(x)))
    return x + y, x - y, x * y, reciprocal


@PROPERTY
@given(_intervals, _intervals)
def test_core_arithmetic_equals_the_fraction_reference(x, y):
    got = [None if r is None else (r.lo, r.hi) for r in _results(x, y)]
    assert got == list(_reference(x, y))
    if 0 in x:  # the reciprocal of an interval holding 0
        with pytest.raises(ZeroOrUnknownLeading):
            lcf.inverse(lcf.from_interval(x))


@PROPERTY
@given(_intervals, _intervals, _positions, _positions)
def test_members_land_inside_the_results(x, y, s, u):
    a, b = x.lo + s * x.width, y.lo + u * y.width
    total, difference, product, reciprocal = _results(x, y)
    assert a + b in total and a - b in difference and a * b in product
    assert reciprocal is None or 1 / a in reciprocal


@PROPERTY
@given(st.integers(-(1 << 80), 1 << 80), st.integers(0, 1 << 80), st.integers(1, 1 << 80))
def test_reduced_is_the_triple_of_its_interval(lo, width, denominator):
    x = (lo, lo + width, denominator)
    assert _reduced(x) == _triple(Interval(F(lo, denominator), F(lo + width, denominator)))


@PROPERTY
@given(_rationals, _rationals)
def test_an_interval_stores_its_reduced_triple(a, b):
    lo, hi = min(a, b), max(a, b)
    x = Interval(lo, hi)
    low, high, den = _triple(x)
    assert den > 0 and math.gcd(low, high, den) == 1
    assert (x.lo, x.hi) == (lo, hi) and (F(low, den), F(high, den)) == (lo, hi)


@PROPERTY
@given(_intervals, _intervals, st.integers(1, 1 << 40))
def test_one_value_by_any_route_is_one_record(x, y, k):
    routes = [
        Interval(x.lo, x.hi),
        _interval(_reduced(tuple(k * n for n in _triple(x)))),
        x + ZERO_INTERVAL,
        x * ONE_INTERVAL,
    ]
    assert all(r == x and hash(r) == hash(x) for r in routes)
    total = Interval(x.lo + y.lo, x.hi + y.hi)
    assert x + y == total and hash(x + y) == hash(total)
    ends = [a * b for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    product = Interval(min(ends), max(ends))
    assert x * y == product and hash(x * y) == hash(product)


@PROPERTY
@given(_intervals)
def test_measures_equal_their_fraction_definitions(x):
    assert ((-x).lo, (-x).hi) == (-x.hi, -x.lo)
    assert x.width == x.hi - x.lo and x.midpoint == (x.lo + x.hi) / 2


@PROPERTY
@given(_intervals, _intervals, st.integers(1, 80))
def test_every_producer_boxes_a_reduced_triple(x, y, precision):
    # `_interval` boxes what it is given, so each result must arrive reduced
    results = [x + y, x - y, x * y, -x, *cos_sin_interval(x, precision)]
    if x.lo_num >= 0:
        results.append(sqrt_interval(x, precision))
    if 0 not in x:
        results.append(_interval(_reciprocal(_triple(x))))
    for r in results:
        low, high, den = _triple(r)
        assert den > 0 and low <= high and math.gcd(low, high, den) == 1, r
