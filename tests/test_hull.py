"""Hull construction, space registrations, and the theorem harnesses."""

import dataclasses
from fractions import Fraction as F
from random import Random

import pytest

from ihull import hull, lcf, probes, spaces
from ihull.errors import (
    BranchIndeterminate,
    IhullError,
    NotFinite,
    SpaceMismatch,
)
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
from ihull.intervals import Interval, pi_interval
from ihull.lcf import IndeterminateComparison, LeviCivitaNumber, Magnitude, Ternary

T = lcf.T
TI = lcf.T_INVERSE
ONE = lcf.one()
PI = lcf.from_interval(pi_interval(lcf.DEFAULT_PRECISION))

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
    x = halo(COVER, COVER.point(ONE, PI))
    y = halo(COVER, COVER.point(2, PI))
    assert F(1) in hull_distance(COVER, x, y)


def _counting(space):
    """`space` with a distance that records the points of every call."""
    calls = []

    def counted(a, b, space=space):
        calls.append((a, b))
        return space.distance(a, b)

    return dataclasses.replace(space, distance=counted), calls


def test_hull_distance_computes_one_distance():
    # one distance, on the representatives' standard points
    pairs = {1: ((ONE + T,), (3,)), 2: ((ONE + T, ONE), (2, T))}
    standard = {1: ((1,), (3,)), 2: ((1, 1), (2, 0))}
    for space in ALL_SPACES:
        counting, calls = _counting(space)
        p, q = (counting.point(*c) for c in pairs[space.dimension])
        hull_distance(counting, halo(counting, p), halo(counting, q))
        st_p, st_q = (counting.point(*c) for c in standard[space.dimension])
        assert calls == [(st_p, st_q)], space.space_id
    # infinitely close pair, st d = 0: both standard points are (1, 0), at
    # distance exactly 0
    counting, calls = _counting(COVER)
    p, q = counting.point(ONE + T, T), counting.point(1, 0)
    st = hull_distance(counting, halo(counting, p), halo(counting, q))
    assert st == Interval.point(0)
    assert calls == [(q, q)]
    # configured order 0: the standard points are measured as at every
    # order, although the representatives' own distance has no standard part
    plane = spaces.get_space("euclidean-plane", F(0))
    counting, calls = _counting(plane)
    p, q = counting.point(ONE + T, 0), counting.point(2, 0)
    with pytest.raises(IndeterminateComparison):
        lcf.standard_part(extended_distance(plane, p, q))
    st = hull_distance(counting, halo(counting, p), halo(counting, q))
    assert st == Interval.point(1)
    assert calls == [(counting.point(1, 0), q)]


def _moved(point, rng):
    return hull.ExtendedPoint(
        point.space_id,
        tuple(
            lcf.add(c, lcf.scale(probes.random_infinitesimal(rng),
                                 probes.random_nonzero_fraction(rng)))
            for c in point.coords
        ),
    )


def _check_one_call(space, a, b):
    """Check that hull_distance makes one distance call, on the standard
    points where the representatives have them, and answers as st of that
    distance (the same interval, or the same exception type and message);
    where the representatives' own distance has a standard part too, the
    two intervals meet."""
    near = [hull.locate(space, p).nearstandard for p in (a, b)]
    points = tuple(p if n is None else n for p, n in zip((a, b), near))
    counting, calls = _counting(space)
    got = _outcome(hull_distance, counting, halo(counting, a), halo(counting, b))
    assert calls == [points]
    assert got == _outcome(lambda: lcf.standard_part(space.distance(*points)))
    own = _outcome(lambda: lcf.standard_part(space.distance(a, b)))
    if isinstance(got, Interval) and isinstance(own, Interval):
        assert got.intersect(own) is not None, (a, b, got, own)


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
                (space.point(ONE, PI), space.point(2, PI)),
                (space.point(unknown_r, ONE), space.point(1, 0)),
            ]
        for a, b in pairs:
            _check_one_call(space, a, b)
            _check_one_call(space, _moved(a, rng), a)


def _representatives_hull_distance(s, a, b, order, precision):
    """The hull distance computed on the representatives alone, as before
    standard points answered: the distance at the smallest positive exponent
    (capped at the space's order), then at the space's order."""
    for p in (a, b):
        if in_galaxy(s, p) is Ternary.FALSE:
            raise NotFinite(f"representative {p} outside the galaxy")
    exponents = [q for p in (a, b) for c in p.coords for q, _ in c.terms if q > 0]
    first = min(min(exponents, default=F(1)), order)
    try:
        return lcf.standard_part(
            extended_distance(spaces.get_space(s.space_id, first, precision), a, b)
        )
    except BranchIndeterminate:
        raise
    except IhullError:
        if first == order:
            raise
    return lcf.standard_part(extended_distance(s, a, b))


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _sweep_point(space, rng):
    """A representative of one of several kinds: exact or interval-valued
    standard part, origin halo or restored origin, infinite angle, unknown or
    infinite r."""
    kind = rng.choice(["exact"] * 4 + ["enclosed"] * 3 + ["origin", "far", "odd"])
    enclosed = lambda: lcf.add(
        lcf.sqrt(lcf.from_rational(rng.choice([2, 3, 5, F(7, 3)]))),
        lcf.scale(probes.random_infinitesimal(rng), probes.random_fraction(rng)),
    )
    if space.dimension == 1:
        if kind == "enclosed":
            return space.point(lcf.add(enclosed(), probes.random_finite(rng)))
        if kind == "odd":
            return space.point(rng.choice([TI, lcf.add(ONE, lcf.zero(F(0)))]))
        return probes.finite_probes(space, rng, 1)[0]
    zeta = rng.choice([
        probes.random_finite(rng),
        lcf.scale(PI, probes.random_fraction(rng, 3)),
        lcf.add(lcf.from_rational(F(355, 113)), probes.random_infinitesimal(rng)),
    ])
    if kind == "enclosed":
        return space.point(enclosed(), zeta)
    if kind == "origin" and space.space_id.startswith("cover"):
        r = lcf.scale(probes.random_infinitesimal(rng), probes.random_fraction(rng))
        if lcf.sign(r) <= 0:
            r = lcf.zero() if space.space_id == "cover-completion" else lcf.T
        return space.point(r, zeta)
    if kind == "far":
        return space.point(ONE, rng.choice([TI, lcf.scale(TI, F(-2, 3))]))
    if kind == "odd":
        unknown_r = lcf.LeviCivitaNumber(((-1, Interval(F(0), F(1))), (0, 1)))
        return space.point(rng.choice([unknown_r, lcf.add(TI, ONE)]), zeta)
    return probes.finite_probes(space, rng, 1)[0]


def test_hull_distance_same_as_the_representatives_alone():
    """A seeded sweep of over 2,000 pairs on every space at orders 0, 1/2 and
    8 and precisions 8 and 64: the same interval, or the same exception type
    and message, as the representatives alone give, with three kinds of
    difference, each of which occurs.  Where both standard points are one
    point, an error becomes the answer 0.  At order 0, where the
    representatives' own distance stops below t^0, the standard points
    answer as at order 8.  On the completion, an origin-halo
    representative's standard point is the restored origin, whose distance
    to a point is that point's r: so the hull distance to a nearstandard
    point is st r.  To an r of unknown finiteness both give NotFinite."""
    rng = Random(2024)
    unknown_r = lcf.LeviCivitaNumber(((-1, Interval(F(0), F(1))), (0, 1)))
    answered = raised = 0
    kinds = dict.fromkeys(("same standard point", "order 0", "from origin"), 0)
    for order in (F(0), F(1, 2), F(8)):
        for precision in (8, 64):
            for name in spaces.SPACE_NAMES:
                space = spaces.get_space(name, order, precision)
                origin = space.point(0, 0) if name == "cover-completion" else None
                pairs = []
                while len(pairs) < 90:
                    a, b = _sweep_point(space, rng), _sweep_point(space, rng)
                    pairs.append((a, b))
                    if rng.random() < 0.25:
                        pairs += [(a, a), (_moved(b, rng), b)]
                if space.dimension == 2:
                    pairs += [
                        (space.point(ONE, PI), space.point(2, PI)),
                        (space.point(1, 0), space.point(1, PI)),
                        (space.point(T, 1), space.point(unknown_r, 1)),
                    ]
                else:
                    pairs.append(tuple(space.point(lcf.add(ONE, lcf.zero(k))) for k in (2, 3)))
                for a, b in pairs:
                    got = _outcome(hull_distance, space, a, b)
                    expected = _outcome(
                        _representatives_hull_distance, space, a, b, order, precision
                    )
                    answered += isinstance(got, Interval)
                    raised += not isinstance(got, Interval)
                    located = [_outcome(hull.locate, space, p) for p in (a, b)]
                    near = [getattr(v, "nearstandard", None) for v in located]
                    if got == expected:
                        continue
                    if near[0] == near[1] is not None:
                        assert got == Interval.point(0), (a, b, got)
                        assert not isinstance(expected, Interval)
                        kinds["same standard point"] += 1
                    elif order <= 0:
                        assert None not in near, (a, b)
                        assert expected[0] is IndeterminateComparison, (a, b, expected)
                        at_8 = spaces.get_space(name, F(8), precision)
                        assert got == hull_distance(at_8, a, b), (a, b, got)
                        kinds["order 0"] += 1
                    else:
                        assert origin is not None and near.count(origin) == 1, (a, b)
                        assert None not in near, (a, b)
                        other = b if near[0] == origin else a
                        st_r = _outcome(lcf.standard_part, other.coords[0])
                        assert got == st_r, (a, b, got)
                        assert not isinstance(expected, Interval) or expected.intersect(got)
                        kinds["from origin"] += 1
    assert answered + raised > 2000 and answered > 1000
    assert all(kinds.values()), kinds


def _close_pair(space, rng):
    """An exact point and a copy moved by one or two terms at exponents 3 to
    10; on the cover r is appreciable or an infinitesimal c t^m."""
    if space.space_id == "euclidean-plane":
        base = [lcf.from_rational(probes.random_fraction(rng)) for _ in range(2)]
    else:
        r = abs(probes.random_nonzero_fraction(rng))
        base = [
            lcf.monomial(r, rng.choice([0, 0, F(1, 2), 1, 2])),
            lcf.from_rational(probes.random_fraction(rng, 3)),
        ]
    moved = [
        lcf.add(c, LeviCivitaNumber(tuple(
            (rng.randint(3, 10), probes.random_nonzero_fraction(rng))
            for _ in range(rng.randint(1, 2))
        )))
        for c in base
    ]
    return base, moved


def test_infinitely_close_distances_bound_the_higher_orders():
    """Seeded infinitely close exact pairs, each coordinate known up to the
    working order: where the distance at order 8 is a bound O(t^k) with no
    term, every term of the distance at order 16 lies at or above k, and
    every coefficient the two share meets."""
    rng = Random(271)
    for name in ("euclidean-plane", "cover"):
        orders = (F(8), F(16))
        low, high = (spaces.get_space(name, order) for order in orders)
        bounds = 0
        for _ in range(40):
            pair = _close_pair(low, rng)
            d8, d16 = (
                extended_distance(s, *(
                    s.point(*(lcf.add(c, lcf.zero(order)) for c in p)) for p in pair
                ))
                for s, order in zip((low, high), orders)
            )
            if not d8.terms:
                bounds += 1
                assert not d16.terms or d16.valuation >= d8.order, (pair, d8, d16)
            for q, c in d16.terms:
                if q < d8.order:
                    assert c.intersect(d8.coefficient(q)) is not None, (pair, d8, d16)
        assert bounds > 5, name


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

    foggy = dataclasses.replace(LINE, locate=undecided, is_complete=True)
    report = check_proposition_a(foggy, [marked, LINE.point(1)])
    assert report.unknown_count == 1
    assert report.passed  # the unknown probe is not counted as a violation
    report_b = check_theorem_b(foggy, [marked, LINE.point(1)])
    assert report_b.unknown_count == 1 and report_b.passed
