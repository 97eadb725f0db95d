"""Hull construction, space registrations, and the theorem harnesses."""

import dataclasses
from fractions import Fraction as F
from random import Random

import pytest

from ihull import hull, lcf, probes, spaces
from ihull.errors import IhullError, NotFinite, SpaceMismatch
from ihull.hull import (
    check_proposition_a,
    check_theorem_b,
    extended_distance,
    halo,
    hull_distance,
    in_galaxy,
    is_approachable,
    is_nearstandard,
)
from ihull.intervals import Interval
from ihull.lcf import IndeterminateComparison, Magnitude, Ternary

T = lcf.T
TI = lcf.T_INVERSE
ONE = lcf.one()

LINE = spaces.get_space("rationals-line")
PLANE = spaces.get_space("euclidean-plane")
COVER = spaces.get_space("cover")
COMPLETION = spaces.get_space("cover-completion")
ALL_SPACES = (LINE, PLANE, COVER, COMPLETION)


def _probe(space, rng):
    return probes.finite_probes(space, rng, 1)[0]


# ---------------------------------------------------------------------------
# extended distance and galaxy membership
# ---------------------------------------------------------------------------

def test_extended_distance_line():
    d = extended_distance(LINE, LINE.point(3), LINE.point(ONE + T))
    assert d == lcf.sub(lcf.from_rational(2), T)


def test_extended_distance_plane():
    d = extended_distance(PLANE, PLANE.point(0, 0), PLANE.point(3, 4))
    assert d == lcf.from_rational(5)


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatch):
        extended_distance(LINE, PLANE.point(0, 0), LINE.point(1))
    with pytest.raises(SpaceMismatch):
        LINE.point(1, 2)


def test_in_galaxy():
    assert in_galaxy(LINE, LINE.point(ONE + T)) is Ternary.TRUE
    assert in_galaxy(LINE, LINE.point(TI)) is Ternary.FALSE
    assert in_galaxy(COVER, COVER.point(ONE, TI)) is Ternary.TRUE
    assert in_galaxy(COVER, COVER.point(TI, lcf.zero())) is Ternary.FALSE


def test_in_galaxy_surely_finite_radius_of_unknown_magnitude():
    # r = [0, 1] + t is finite whether its standard part is 0 or not, so
    # the point is in the galaxy although its classification is unknown
    r = lcf.LeviCivitaNumber(((0, Interval(F(0), F(1))), (1, 1)))
    for space in (COVER, COMPLETION):
        assert in_galaxy(space, space.point(r, ONE)) is Ternary.TRUE


def _finite_by_distance(s, p):
    """The galaxy rule `locate` replaced: the magnitude of the distance to
    the basepoint."""
    d = extended_distance(s, p, s.basepoint)
    if lcf.is_surely_finite(d):
        return Ternary.TRUE
    if lcf.classify_magnitude(d) is Magnitude.INFINITE:
        return Ternary.FALSE
    return Ternary.UNKNOWN


def test_locate_finite_agrees_with_distance_rule():
    rng = Random(107)
    # points with an infinite coordinate; (1 + t, -t^-1) stays finite on the
    # cover and its completion
    infinite_coord = {
        1: [(TI,), (lcf.neg(TI) + ONE,)],
        2: [(TI, lcf.zero()), (TI, TI), (ONE + T, lcf.neg(TI))],
    }
    for space in ALL_SPACES:
        points = probes.finite_probes(space, rng, 10)
        points += [
            w
            for w in (
                spaces.incompleteness_witness(space),
                spaces.inapproachability_witness(space),
            )
            if w is not None
        ]
        points += [space.point(*coords) for coords in infinite_coord[space.dimension]]
        for p in points:
            assert hull.locate(space, p).finite is _finite_by_distance(space, p), p


# ---------------------------------------------------------------------------
# hull distance
# ---------------------------------------------------------------------------

def test_hull_distance_identity_halo():
    x = halo(LINE, LINE.point(ONE + T))
    assert hull_distance(LINE, x, x) == Interval.point(0)


def test_hull_distance_line():
    x = halo(LINE, LINE.point(ONE + T))
    y = halo(LINE, LINE.point(3))
    assert hull_distance(LINE, x, y) == Interval.point(2)


def test_hull_distance_cover_flagship():
    x = halo(COVER, COVER.point(ONE, TI))
    y = halo(COVER, COVER.point(T, lcf.zero()))
    assert hull_distance(COVER, x, y) == Interval.point(1)


def test_hull_distance_cover_pair_at_angle_pi():
    # seen from the basepoint (1, 0) the angle pi~ sits on the branch
    # boundary, but the pair itself is on the chord branch
    pi = lcf.pi_number()
    x = halo(COVER, COVER.point(ONE, pi))
    y = halo(COVER, COVER.point(2, pi))
    assert F(1) in hull_distance(COVER, x, y)


def _counting(space):
    """`space` with a distance that records the order of every call."""
    orders = []

    def counted(a, b, order, space=space):
        orders.append(order)
        return space.distance(a, b, order)

    return dataclasses.replace(space, distance=counted), orders


def test_hull_distance_computes_one_distance():
    pairs = {1: ((ONE + T,), (3,)), 2: ((ONE + T, ONE), (2, T))}
    for space in ALL_SPACES:
        counting, orders = _counting(space)
        p, q = (counting.point(*c) for c in pairs[space.dimension])
        hull_distance(counting, halo(counting, p), halo(counting, q))
        assert len(orders) == 1, space.space_id
    # infinitely close pair, st d = 0: the attempt at the standard part's
    # order cannot decide sqrt's leading term, the configured order can
    counting, orders = _counting(COVER)
    p, q = counting.point(ONE + T, T), counting.point(1, 0)
    st = hull_distance(counting, halo(counting, p), halo(counting, q))
    assert st == Interval.point(0)
    assert len(orders) == 2
    assert orders[0] < COVER.order
    assert orders[1] == COVER.order
    # configured order 0, below the coordinates' smallest exponent: the first
    # attempt already runs at the configured order and is not repeated
    plane = spaces.get_space("euclidean-plane", F(0))
    counting, orders = _counting(plane)
    p, q = counting.point(ONE + T, 0), counting.point(2, 0)
    with pytest.raises(NotFinite) as direct:
        lcf.standard_part(extended_distance(plane, p, q))
    with pytest.raises(NotFinite) as hulled:
        hull_distance(counting, halo(counting, p), halo(counting, q))
    assert str(hulled.value) == str(direct.value)
    assert orders == [F(0)]


def _moved(point, rng):
    return hull.ExtendedPoint(
        point.space_id,
        tuple(
            lcf.add(c, lcf.scale(probes.random_infinitesimal(rng),
                                 probes.random_nonzero_fraction(rng)))
            for c in point.coords
        ),
    )


def _distance_calls(space, a, b):
    """Check that hull_distance answers as st of the distance at the
    configured order (the same interval, or the same exception type and
    message) and return the orders of the distance calls it made."""
    counting, orders = _counting(space)
    try:
        expected = lcf.standard_part(space.distance(a, b, space.order))
    except IhullError as exc:
        with pytest.raises(type(exc)) as raised:
            hull_distance(counting, halo(counting, a), halo(counting, b))
        assert str(raised.value) == str(exc)
    else:
        assert hull_distance(counting, halo(counting, a), halo(counting, b)) == expected
    assert len(set(orders)) == len(orders), orders  # no attempt is repeated
    return orders


@pytest.mark.parametrize("order", [F(0), F(1, 2), F(8)], ids=str)
def test_hull_distance_same_as_configured_order(order):
    """Seeded pairs, a point with itself, the angle-pi pair, an r of unknown
    finiteness and infinitesimally moved copies, on every space."""
    rng = Random(113)
    unknown_r = lcf.LeviCivitaNumber(((-1, Interval(F(0), F(1))), (0, 1)))
    for name in spaces.SPACE_NAMES:
        space = spaces.get_space(name, order)
        points = probes.finite_probes(space, rng, 12)
        pairs = list(zip(points[::2], points[1::2])) + [(p, p) for p in points[:2]]
        if space.dimension == 2:
            pairs += [
                (space.point(ONE, lcf.pi_number()), space.point(2, lcf.pi_number())),
                (space.point(unknown_r, ONE), space.point(1, 0)),
            ]
        for a, b in pairs:
            _distance_calls(space, a, b)
        for a, _ in pairs:
            orders = _distance_calls(space, _moved(a, rng), a)
            if name.startswith("cover"):
                # st d = 0 from a cancelled t^0 coefficient: the configured
                # order decides, after an attempt below it if there was one
                assert orders[-1] == order, (name, a)
                assert len(orders) == (2 if orders[0] < order else 1), (name, a)


def test_hull_distance_rejects_outside_galaxy():
    with pytest.raises(NotFinite):
        hull_distance(LINE, halo(LINE, LINE.point(TI)), halo(LINE, LINE.point(0)))


def _halo_gap(space, a, b) -> Magnitude:
    """Size of the distance between the halos of `a` and `b`: infinitesimal
    exactly when they are the same halo."""
    return lcf.classify_magnitude(extended_distance(space, halo(space, a), halo(space, b)))


def test_same_halo():
    assert _halo_gap(LINE, LINE.point(ONE), LINE.point(ONE + T)) is Magnitude.INFINITESIMAL
    assert _halo_gap(LINE, LINE.point(ONE), LINE.point(2)) is Magnitude.APPRECIABLE


def test_hull_distance_representative_independence():
    """Infinitesimal moves of representatives leave the value consistent."""
    rng = Random(61)
    for space in (LINE, COVER):
        for _ in range(25):
            a, b = _probe(space, rng), _probe(space, rng)
            base = hull_distance(space, halo(space, a), halo(space, b))
            for _ in range(4):
                shifted = hull.ExtendedPoint(
                    a.space_id,
                    tuple(
                        lcf.add(c, lcf.scale(probes.random_infinitesimal(rng),
                                             probes.random_fraction(rng)))
                        for c in a.coords
                    ),
                )
                moved = hull_distance(space, halo(space, shifted), halo(space, b))
                assert base.intersect(moved) is not None


# ---------------------------------------------------------------------------
# per-space metric axioms on random probes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.space_id)
def test_metric_axioms(space):
    rng = Random(67)
    for _ in range(12):
        a, b, c = (_probe(space, rng) for _ in range(3))
        dab = extended_distance(space, a, b)
        dba = extended_distance(space, b, a)
        assert dab == dba
        try:
            assert lcf.sign(dab) >= 0
        except IndeterminateComparison:
            pass
        # identity of indiscernibles up to halo: d(a, a) is zero exactly
        assert extended_distance(space, a, a).is_zero
        slack = lcf.sub(lcf.add(dab, extended_distance(space, b, c)),
                        extended_distance(space, a, c))
        try:
            assert lcf.sign(slack) >= 0
        except IndeterminateComparison:
            pass  # ties decided only up to enclosure width


def test_halo_vs_distance_indiscernibility():
    # distance infinitesimal <=> same halo, exercised on a perturbed pair
    base = COVER.point(ONE, lcf.from_rational(2))
    moved = COVER.point(ONE + lcf.t_power(3), lcf.from_rational(2) + T)
    assert _halo_gap(COVER, base, moved) is Magnitude.INFINITESIMAL
    far = COVER.point(lcf.from_rational(2), lcf.from_rational(2))
    assert _halo_gap(COVER, base, far) is Magnitude.APPRECIABLE


# ---------------------------------------------------------------------------
# approachable / nearstandard oracles
# ---------------------------------------------------------------------------

def test_line_oracles():
    p = LINE.point(ONE + T)
    assert is_approachable(LINE, p) is Ternary.TRUE
    near = is_nearstandard(LINE, p)
    assert near is not None and near.coords[0] == ONE

    irrational = spaces.incompleteness_witness(LINE)
    assert is_approachable(LINE, irrational) is Ternary.TRUE
    assert is_nearstandard(LINE, irrational) is None

    assert is_approachable(LINE, LINE.point(TI)) is Ternary.FALSE


def test_cover_oracles():
    witness = COVER.point(ONE, TI)
    assert is_approachable(COVER, witness) is Ternary.FALSE
    assert is_nearstandard(COVER, witness) is None

    origin_rep = COVER.point(T, lcf.zero())
    assert is_approachable(COVER, origin_rep) is Ternary.TRUE
    assert is_nearstandard(COVER, origin_rep) is None  # origin missing from M

    plain = COVER.point(ONE + T, lcf.from_rational(5))
    near = is_nearstandard(COVER, plain)
    assert near is not None
    assert near.coords[0] == ONE and near.coords[1] == lcf.from_rational(5)


def test_completion_oracles():
    origin = COMPLETION.point(0, 0)
    assert is_approachable(COMPLETION, origin) is Ternary.TRUE
    assert is_nearstandard(COMPLETION, origin) is not None
    # the origin halo now has a standard point: the restored origin
    origin_rep = COMPLETION.point(T, lcf.zero())
    near = is_nearstandard(COMPLETION, origin_rep)
    assert near is not None and near.coords[0].is_zero
    # but the finite inapproachable point is still there
    witness = spaces.inapproachability_witness(COMPLETION)
    assert is_approachable(COMPLETION, witness) is Ternary.FALSE


def test_nearstandard_implies_approachable():
    rng = Random(71)
    for space in ALL_SPACES:
        for _ in range(20):
            p = _probe(space, rng)
            if is_nearstandard(space, p) is not None:
                assert is_approachable(space, p) is Ternary.TRUE


# ---------------------------------------------------------------------------
# harnesses
# ---------------------------------------------------------------------------

def test_proposition_a_complete_side():
    rng = Random(73)
    report = check_proposition_a(PLANE, probes.finite_probes(PLANE, rng, 50))
    assert report.passed and report.unknown_count == 0
    assert all(row.nearstandard for row in report.probes if row.approachable == "true")


def test_proposition_a_incomplete_sides():
    rng = Random(79)
    for space in (LINE, COVER):
        witness = spaces.incompleteness_witness(space)
        report = check_proposition_a(
            space, probes.finite_probes(space, rng, 20) + [witness]
        )
        assert report.passed
        assert any(
            row.approachable == "true" and row.nearstandard is None
            for row in report.probes
        )


def test_proposition_a_detects_missing_witness():
    rng = Random(83)
    report = check_proposition_a(LINE, probes.finite_probes(LINE, rng, 10))
    assert not report.passed  # no witness supplied, incomplete side unproven


def test_theorem_b_heine_borel_side():
    rng = Random(89)
    for space in (LINE, PLANE):
        report = check_theorem_b(space, probes.finite_probes(space, rng, 100))
        assert report.passed and report.clauses[0].holds
    # the corollary on the plane: finite probes are also all nearstandard
    plane_report = check_theorem_b(PLANE, probes.finite_probes(PLANE, rng, 100))
    assert all(row.nearstandard for row in plane_report.probes)


def test_theorem_b_failure_side():
    rng = Random(97)
    for space in (COVER, COMPLETION):
        witness = spaces.inapproachability_witness(space)
        report = check_theorem_b(
            space, probes.finite_probes(space, rng, 20) + [witness]
        )
        assert report.passed
        assert not report.clauses[0].holds and not report.clauses[1].holds


def test_theorem_b_no_contradictory_clauses():
    rng = Random(101)
    for space in ALL_SPACES:
        probe_list = probes.finite_probes(space, rng, 15)
        witness = spaces.inapproachability_witness(space)
        if witness is not None:
            probe_list.append(witness)
        report = check_theorem_b(space, probe_list)
        claims_all = report.clauses[0].holds
        claims_witness = any(
            row.finite == "true" and row.approachable == "false"
            for row in report.probes
        )
        assert not (claims_all and claims_witness)


# (harness, registered flag, space, counterexample, rule clause, flag clause)
HARNESSES = {
    "proposition-a": (
        check_proposition_a,
        "is_complete",
        LINE,
        spaces.incompleteness_witness(LINE),
        "every approachable probe is nearstandard",
        "space is complete",
    ),
    "theorem-b": (
        check_theorem_b,
        "completion_is_HB",
        COVER,
        spaces.inapproachability_witness(COVER),
        "every finite probe is approachable",
        "completion is Heine-Borel",
    ),
}


@pytest.mark.parametrize("found", (False, True), ids=("clean", "counterexample"))
@pytest.mark.parametrize("flag", (True, False), ids=("flag", "no-flag"))
@pytest.mark.parametrize("theorem", sorted(HARNESSES))
def test_harness_truth_table(theorem, flag, found):
    # the registered property holds iff no point is a counterexample, so the
    # harness passes exactly when a flagged space shows no counterexample or
    # an unflagged one shows at least one
    check, field, space, witness, rule, registered = HARNESSES[theorem]
    probe_list = probes.finite_probes(space, Random(103), 5)
    if found:
        probe_list.append(witness)
    report = check(dataclasses.replace(space, **{field: flag}), probe_list)
    assert report.passed is (flag != found)
    assert report.unknown_count == 0
    assert len(report.probes) == len(probe_list)
    assert {c.name: c.holds for c in report.clauses} == {
        rule: not found,
        registered: flag,
    }


def test_unknown_verdicts_reported_not_failed():
    # a space whose oracle cannot decide one probe: the harness reports the
    # unknown and keeps it out of pass/fail
    marked = LINE.point(lcf.from_rational(77))

    def undecided(p):
        where = LINE.locate(p)
        if p == marked:
            return dataclasses.replace(where, approachable=Ternary.UNKNOWN)
        return where

    foggy = hull.SpaceDescriptor(
        space_id="rationals-line",
        dimension=1,
        order=LINE.order,
        basepoint=LINE.basepoint,
        distance=LINE.distance,
        locate=undecided,
        is_complete=True,
        completion_is_HB=True,
    )
    report = check_proposition_a(foggy, [marked, LINE.point(1)])
    assert report.unknown_count == 1
    assert report.passed  # the unknown probe is not counted as a violation
    report_b = check_theorem_b(foggy, [marked, LINE.point(1)])
    assert report_b.unknown_count == 1 and report_b.passed
