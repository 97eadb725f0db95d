"""Enclosures nest under refinement, and hull distances agree with the
distance they stand for.

A result at (order, precision) must enclose the result at (order + 2,
precision) and at (order, precision + 16): its order is at most the finer
one's, and below it each coefficient contains the finer coefficient, a
missing term counting as [0, 0].  A draw whose coarse call raises is
skipped.  The hull distance of two representatives and the standard part of
their own distance enclose the same number, so they must intersect whenever
both answer; once both representatives have standard points, the hull
distance is measured from them, and the truncation order changes nothing."""

from fractions import Fraction as F

import pytest

from ihull import cover, hull, lcf, spaces
from ihull.errors import IhullError
from ihull.lcf import INFINITE_ORDER

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_lcf_members import (  # noqa: E402
    _BRANCHES, _cover_points, _infinitesimals, _numbers, _orders, PROPERTY,
)

PRECISION, FINER_ORDER, FINER_PRECISION = 24, 2, 16


def _encloses(coarse, fine):
    assert fine.order is INFINITE_ORDER or (
        coarse.order is not INFINITE_ORDER and coarse.order <= fine.order
    ), (coarse, fine)
    for q in {q for q, _ in coarse.terms} | {q for q, _ in fine.terms}:
        if coarse.order is INFINITE_ORDER or q < coarse.order:
            c, f = coarse.coefficient(q), fine.coefficient(q)
            assert c.lo <= f.lo and f.hi <= c.hi, (q, coarse, fine)


def _nests(op, order):
    """op(order, precision) encloses op at the finer order and precision."""
    try:
        coarse = op(order, PRECISION)
    except IhullError:
        return
    _encloses(coarse, op(order + FINER_ORDER, PRECISION))
    _encloses(coarse, op(order, PRECISION + FINER_PRECISION))


@PROPERTY
@given(_numbers(), _orders)
def test_inverse_and_roots_nest(x, order):
    _nests(lambda o, p: lcf.inverse(x, o), order)
    _nests(lambda o, p: lcf.sqrt(x, o, p), order)
    square = lcf.mul(x, x)
    _nests(lambda o, p: lcf.sqrt_nonnegative(square, o, p), order)


@PROPERTY
@given(_numbers(low=0, positive_order=True), _orders)
def test_cos_and_sin_nest(x, order):
    _nests(lambda o, p: lcf.cos_enclosure(x, o, p), order)
    _nests(lambda o, p: lcf.sin_enclosure(x, o, p), order)


@pytest.mark.parametrize("branch", _BRANCHES)
@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_cover_distance_nests_on_both_branches(branch, data):
    a, b = (data.draw(_cover_points(angles)) for angles in _BRANCHES[branch])
    _nests(lambda o, p: cover.cover_distance(a, b, o, p), data.draw(_orders))


# -- hull distance ---------------------------------------------------------------

_standard = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def _representatives(draw, space):
    """A point of `space`: standard coordinates, each moved by an
    infinitesimal half the time; a cover radius is positive or
    infinitesimal, and the completion's may be the restored origin."""
    def moved(value):
        x = lcf.from_rational(value)
        return lcf.add(x, draw(_infinitesimals)) if draw(st.booleans()) else x

    coords = [moved(draw(_standard)) for _ in range(space.dimension)]
    if space.space_id.startswith("cover"):
        roll = draw(st.integers(0, 3))
        if roll == 0 and space.is_complete:
            coords[0] = lcf.zero()
        elif roll == 1:
            coords[0] = lcf.mul(lcf.T, moved(draw(_standard.filter(lambda q: q > 0))))
        else:
            coords[0] = moved(draw(_standard.filter(lambda q: q > 0)))
    return space.point(*coords)


@pytest.mark.parametrize("name", spaces.SPACE_NAMES)
@settings(PROPERTY, max_examples=60)
@given(st.data(), st.sampled_from((0, 1, 3)))
def test_hull_distance_meets_the_standard_part_of_the_distance(name, data, order):
    s = spaces.get_space(name, order, PRECISION)
    a, b = data.draw(_representatives(s)), data.draw(_representatives(s))
    try:
        near, own = hull.hull_distance(s, a, b), lcf.standard_part(hull.extended_distance(s, a, b))
    except IhullError:
        return
    assert max(near.lo, own.lo) <= min(near.hi, own.hi), (a, b, near, own)


@pytest.mark.parametrize("name", spaces.SPACE_NAMES)
@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_hull_distance_of_standard_points_is_the_same_at_every_order(name, data):
    at = {q: spaces.get_space(name, q, PRECISION) for q in (-1, 0, F(1, 2), 8)}
    a, b = data.draw(_representatives(at[8])), data.draw(_representatives(at[8]))
    if None in (hull.locate(at[8], p).nearstandard for p in (a, b)):
        return
    answers = {q: hull.hull_distance(s, a, b) for q, s in at.items()}
    assert len(set(answers.values())) == 1, (a, b, answers)
