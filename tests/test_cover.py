"""Geodesics, certificates, and classification on the punctured-plane cover."""

from fractions import Fraction as F
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ihull import cover, lcf
from ihull.cover import CoverPoint, Verdict, classify_point, point
from ihull.errors import (
    BranchIndeterminate,
    InvalidPoint,
    NotApplicable,
    NotStandard,
    PreconditionViolated,
)
from ihull.intervals import (
    Interval,
    cos_sin_interval,
    pi_interval,
    reduce_angle,
    sqrt_interval,
)
from ihull.lcf import (
    INFINITE_ORDER,
    IndeterminateComparison,
    LeviCivitaNumber,
    Magnitude,
    Ordering,
    Ternary,
)
from ihull.parsing import parse_number
from test_intervals import assert_value_record

T = lcf.T
TI = lcf.T_INVERSE
ONE = lcf.one()

# frozen from an independent high-precision evaluation
CHORD_1 = F(9588510772084060005465758704311427761636, 10**40)  # sqrt(2 - 2 cos 1)
THETA_7 = F(7168146928204135230747132334409942316057, 10**40)  # 7 - 2 pi


def test_point_requires_positive_radius():
    with pytest.raises(InvalidPoint):
        point(0, 1)
    with pytest.raises(InvalidPoint):
        point(-1, 0)
    # r of undecided sign is indeterminate, not invalid: a higher order or
    # precision may settle it
    with pytest.raises(IndeterminateComparison, match=r"radial coordinate of unknown sign"):
        CoverPoint(lcf.from_interval(Interval(F(-1), F(1))), lcf.zero())


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_radial_geodesic():
    assert cover.cover_distance(point(1, 0), point(2, 0)) == ONE


def test_through_origin_branch():
    d = cover.cover_distance(point(1, 0), point(1, 4))
    assert d == lcf.from_rational(2)


def test_flagship_distance_standard_part_one():
    d = cover.cover_distance(point(ONE, TI), point(T, lcf.zero()))
    assert d == ONE + T
    st = lcf.standard_part(d)
    assert st.is_exact and st.lo == 1


def test_chord_enclosure():
    d = cover.cover_distance(point(1, 0), point(1, 1))
    enc = d.coefficient(0)
    assert CHORD_1 in enc
    assert enc.width <= F(1, 2**60)


def test_distances_of_constant_points_build_few_fractions(monkeypatch):
    # coefficients stay integer triples and exponents and orders integers on
    # their lattice from the coordinates to the distance: the one Fraction
    # left is the midpoint of the cos argument
    pairs = [((F(3, 7), F(1, 5)), (F(11, 13), F(-2, 3))), ((F(10**9 + 7, 3), 0), (F(5, 4), F(-1, 9)))]
    points = [(point(*a), point(*b)) for a, b in pairs] + [(point(1, 0), point(1, 4))]
    want = [cover.cover_distance(a, b) for a, b in points]  # pi enclosed outside the count
    calls, new = [], F.__new__

    def counted(cls, *args, **kwargs):
        calls[-1] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    got = []
    for a, b in points:
        calls.append(0)
        got.append(cover.cover_distance(a, b))
    monkeypatch.undo()
    assert got == want
    # chord, chord, through the origin: 43, 43 and 13 when endpoints were
    # Fractions, 6, 6 and 0 when orders were
    assert all(n <= bound for n, bound in zip(calls, (1, 1, 0), strict=True)), calls


def test_distance_symmetric_and_zero_on_diagonal():
    a, b = point(F(3, 2), F(1, 3)), point(F(1, 2), 2)
    assert cover.cover_distance(a, b) == cover.cover_distance(b, a)
    assert cover.cover_distance(a, a).is_zero


def test_branch_indeterminate_near_pi():
    pi_mid = pi_interval(64).midpoint
    with pytest.raises(BranchIndeterminate) as raised:
        cover.cover_distance(point(1, 0), point(1, pi_mid), precision=64)
    assert isinstance(raised.value, IndeterminateComparison)  # exit 3 in the CLI
    # decidable again at higher precision: pi_mid is below pi or above it
    d = cover.cover_distance(point(1, 0), point(1, pi_mid), precision=256)
    assert d is not None


def _branch_by_compare(dz, precision):
    """The branch at angle gap dz as two comparisons with pi's number decide
    it, or the class, message and exponent of what they raise."""
    pi = lcf.from_interval(pi_interval(precision))
    try:
        above, below = lcf.compare(dz, pi), lcf.compare(dz, lcf.neg(pi))
    except IndeterminateComparison as exc:
        message = f"angle gap vs pi undecidable at precision {precision}: {exc}"
        return BranchIndeterminate, message, None
    return "r1 + r2" if above is Ordering.GT or below is Ordering.LT else "chord"


def _branch(dz, precision):
    """The branch `cover_distance` takes at angle gap dz, or the class,
    message and exponent of what it raises."""
    with mock.patch.object(cover, "_chord_distance", lambda *args: "chord"):
        try:
            d = cover.cover_distance(point(1, dz), point(1, 0), precision=precision)
        except IndeterminateComparison as exc:
            return type(exc), str(exc), exc.exponent
    return d if isinstance(d, str) else "r1 + r2" if d == lcf.from_rational(2) else d


_PI = pi_interval(64)
_WIDE = Interval(F(-1), F(1))
#: angle gaps at the edges of pi's enclosure [lo, hi] and a branch or the
#: blocking exponent of the raise: dz - pi at pi.hi + t is [0, w] + t > 0
_EDGES = [
    (lcf.from_rational(_PI.lo) + T, 0),
    (lcf.from_rational(_PI.lo) - T, "chord"),
    (lcf.from_rational(_PI.hi) + T, "r1 + r2"),
    (lcf.from_rational(_PI.hi) - T, 0),
    (lcf.from_interval(_WIDE) + T, "chord"),  # of unknown magnitude
    (lcf.monomial(_WIDE, -2) + lcf.monomial(5, -1), -2),  # infinite
    (lcf.from_interval(_PI), 0),
    (lcf.zero(), "chord"),
]


@pytest.mark.parametrize("dz, branch", [*_EDGES, *((-dz, branch) for dz, branch in _EDGES)])
def test_branch_at_the_edges_of_pi(dz, branch):
    got = _branch(dz, 64)
    assert got == _branch_by_compare(dz, 64)
    if isinstance(branch, str):
        assert got == branch
    else:
        assert got[0] is BranchIndeterminate and got[1].endswith(f"(blocking exponent {branch})")


@st.composite
def _gaps(draw):
    """A precision and an angle gap with terms at negative, zero and positive
    exponents, coefficients near +-pi's enclosure, straddling 0 or exact, and
    any order, 0 and below included."""
    precision = draw(st.sampled_from((1, 2, 8, 64)))
    pi = pi_interval(precision)
    near_pi = st.sampled_from((pi.lo, pi.hi, pi.midpoint, pi, Interval(pi.lo, F(4)), F(3), F(4)))
    small = st.builds(
        lambda lo, width, den: Interval(F(lo, den), F(lo + width, den)),
        st.integers(-4, 4), st.integers(0, 3), st.integers(1, 3),
    )
    exponents = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
    terms = draw(st.lists(st.tuples(exponents, small), max_size=3))
    if draw(st.booleans()):
        terms.append((F(0), draw(st.one_of(near_pi, near_pi.map(lambda c: -c), small))))
    orders = st.one_of(st.just(INFINITE_ORDER), st.builds(F, st.integers(-4, 8), st.integers(1, 3)))
    return precision, LeviCivitaNumber(terms, draw(orders))


@settings(database=None, derandomize=True, max_examples=300)
@given(_gaps())
@example((1, lcf.zero()))
def test_branch_matches_the_comparisons_with_pi(gap):
    precision, dz = gap
    assert _branch(dz, precision) == _branch_by_compare(dz, precision)


def test_distance_builds_no_pi_number_and_compares_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("called")

    for name in ("compare", "neg"):
        monkeypatch.setattr(lcf, name, forbidden)
    assert cover.cover_distance(point(1, 0), point(1, 4)) == lcf.from_rational(2)
    assert CHORD_1 in cover.cover_distance(point(1, 0), point(1, 1)).coefficient(0)


def test_branches_at_precision_one():
    # pi_interval(1) = [281476/89625, 16/5]: 1 lies below it and 4 beyond
    assert CHORD_1 in cover.cover_distance(point(1, 0), point(1, 1), precision=1).coefficient(0)
    assert cover.cover_distance(point(1, 0), point(1, 4), precision=1) == lcf.from_rational(2)


def test_branch_continuity_near_pi():
    # chord at pi - 1/1000 and through-origin at pi + 1/1000 differ by < 10^-2
    pi_mid = pi_interval(128).midpoint
    below = cover.cover_distance(point(1, 0), point(1, pi_mid - F(1, 1000)))
    above = cover.cover_distance(point(1, 0), point(1, pi_mid + F(1, 1000)))
    assert above == lcf.from_rational(2)
    gap = lcf.sub(above, below).coefficient(0)
    assert max(-gap.lo, gap.hi) < F(1, 100)


def test_radial_projection_is_lipschitz():
    rng = Random(41)
    for _ in range(30):
        a = point(F(rng.randint(1, 40), 10), F(rng.randint(-30, 30), 10))
        b = point(F(rng.randint(1, 40), 10), F(rng.randint(-30, 30), 10))
        d = cover.cover_distance(a, b)
        radial = lcf.abs_value(lcf.sub(a.r, b.r))
        try:
            assert lcf.sign(lcf.sub(d, radial)) >= 0
        except IndeterminateComparison:
            pass  # equality up to enclosure width (collinear radial pairs)


def test_coordinate_path_upper_bound():
    rng = Random(43)
    for _ in range(30):
        a = point(F(rng.randint(1, 40), 10), F(rng.randint(-30, 30), 10))
        b = point(F(rng.randint(1, 40), 10), F(rng.randint(-30, 30), 10))
        d = cover.cover_distance(a, b)
        r_min = a.r if lcf.compare(a.r, b.r) is not Ordering.GT else b.r
        path = lcf.add(
            lcf.abs_value(lcf.sub(a.r, b.r)),
            lcf.mul(r_min, lcf.abs_value(lcf.sub(a.zeta, b.zeta))),
        )
        try:
            assert lcf.sign(lcf.sub(path, d)) >= 0
        except IndeterminateComparison:
            pass  # equality up to enclosure width (purely radial pairs)


def test_triangle_inequality_standard_points():
    rng = Random(47)
    for _ in range(20):
        pts = [
            point(F(rng.randint(2, 40), 10), F(rng.randint(-25, 25), 10))
            for _ in range(3)
        ]
        dab = cover.cover_distance(pts[0], pts[1])
        dbc = cover.cover_distance(pts[1], pts[2])
        dac = cover.cover_distance(pts[0], pts[2])
        slack = lcf.sub(lcf.add(dab, dbc), dac)
        try:
            assert lcf.sign(slack) >= 0
        except IndeterminateComparison:
            pass  # degenerate triple decided only up to enclosure width


# ---------------------------------------------------------------------------
# the paper-trail bounds
# ---------------------------------------------------------------------------

def test_three_leg_bound_canonical():
    bound = cover.three_leg_upper_bound(point(ONE, TI), T)
    assert bound == parse_number("1 + 2t - 2t^2")
    d = cover.cover_distance(point(ONE, TI), point(T, lcf.zero()))
    assert lcf.compare(d, bound) is not Ordering.GT


def test_three_leg_bound_second_witness():
    bound = cover.three_leg_upper_bound(point(ONE, lcf.t_power(-2)), T)
    assert bound == parse_number("1 + t + t^2 - 2t^4")
    st = lcf.standard_part(bound)
    assert st.is_exact and st.lo == 1


def test_three_leg_bound_preconditions():
    with pytest.raises(PreconditionViolated):
        cover.three_leg_upper_bound(point(2, 0), T)  # r != 1
    with pytest.raises(PreconditionViolated):
        cover.three_leg_upper_bound(point(ONE, lcf.from_rational(5)), T)
    with pytest.raises(PreconditionViolated):
        cover.three_leg_upper_bound(point(ONE, TI), ONE)  # eps not infinitesimal


def test_sandwich_pins_standard_part():
    # |1 - eps| <= d <= three-leg bound, and both ends have standard part 1
    center, eps = point(ONE, TI), T
    d = cover.cover_distance(center, point(eps, lcf.zero()))
    lower = lcf.abs_value(lcf.sub(ONE, eps))
    upper = cover.three_leg_upper_bound(center, eps)
    assert lcf.compare(lower, d) is not Ordering.GT
    assert lcf.compare(d, upper) is not Ordering.GT
    assert lcf.standard_part(lower) == Interval.point(1)
    assert lcf.standard_part(upper) == Interval.point(1)


def test_cover_records_are_value_records():
    center = point(ONE, TI)
    assert_value_record(
        center, point(1, parse_number("t^-1")), point(2, TI), ("r", "zeta"),
        "CoverPoint(r=LeviCivitaNumber(1), zeta=LeviCivitaNumber(t^-1))",
    )
    near = classify_point(point(2, 1))
    assert_value_record(
        near, classify_point(point(2, 1)), classify_point(center), ("verdict", "standard_point"),
        "CoverClassification(verdict=<Verdict.NEARSTANDARD: 'nearstandard'>, standard_point="
        "(Interval(lo=Fraction(2, 1), hi=Fraction(2, 1)), "
        "Interval(lo=Fraction(1, 1), hi=Fraction(1, 1))))",
    )
    assert repr(classify_point(center)) == (
        "CoverClassification(verdict=<Verdict.FINITE_INAPPROACHABLE: "
        "'finite_inapproachable'>, standard_point=None)"
    )
    fields = ("center", "r_lo", "r_hi", "zeta_halfwidth", "ball_radius")
    assert_value_record(
        cover.separation_certificate(center),
        cover.separation_certificate(point(1, parse_number("t^-1"))),
        cover.separation_certificate(point(3, TI)), fields,
        "SeparationCertificate(center=CoverPoint(r=LeviCivitaNumber(1), "
        "zeta=LeviCivitaNumber(t^-1)), r_lo=Fraction(1, 2), r_hi=Fraction(2, 1), "
        "zeta_halfwidth=Fraction(1, 1), ball_radius=Fraction(1, 2))",
    )


def test_separation_certificate_fields():
    cert = cover.separation_certificate(point(ONE, TI))
    assert cert.ball_radius == F(1, 2)
    assert cert.r_lo == F(1, 2) and cert.r_hi == 2
    assert cert.zeta_halfwidth == 1
    assert cert.ball_radius <= min(cert.r_lo, cert.r_lo * cert.zeta_halfwidth)


def test_lower_bound_independent_of_witness():
    center = point(ONE, TI)
    assert cover.inapproachability_lower_bound(center, point(1, 0)) == F(1, 2)
    assert cover.inapproachability_lower_bound(center, point(7, 3)) == F(1, 2)
    # scale covariance: center radius 3 gives 3/2
    assert cover.inapproachability_lower_bound(point(3, TI), point(1, 0)) == F(3, 2)


def test_lower_bound_preconditions():
    with pytest.raises(NotApplicable):
        cover.inapproachability_lower_bound(point(ONE, lcf.from_rational(9)), point(1, 0))
    with pytest.raises(NotApplicable):
        cover.inapproachability_lower_bound(point(T, TI), point(1, 0))
    with pytest.raises(NotApplicable):
        cover.inapproachability_lower_bound(point(ONE, TI), point(ONE, TI))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classification_table():
    nearstd = classify_point(point(ONE + T, lcf.from_rational(5)))
    assert nearstd.verdict is Verdict.NEARSTANDARD
    assert nearstd.standard_point == (Interval.point(1), Interval.point(5))
    assert classify_point(point(ONE, TI)).verdict is Verdict.FINITE_INAPPROACHABLE
    assert classify_point(point(T, lcf.t_power(-2))).verdict is Verdict.ORIGIN_HALO
    assert classify_point(point(TI, lcf.zero())).verdict is Verdict.OUTSIDE_GALAXY


def test_origin_halo_bound_is_infinitesimal():
    # O(t^-5) holds t^-5: the descent must reach below t^5 to unwind it
    for zeta in (lcf.t_power(-2), lcf.zero(), lcf.from_rational(100), TI, lcf.zero(F(-5))):
        bound = cover.origin_path_bound(point(T, zeta))
        assert lcf.classify_magnitude(bound) is Magnitude.INFINITESIMAL
    # the bound really is a distance bound: check one case against the metric
    d = cover.cover_distance(point(T, lcf.from_rational(2)), point(T, lcf.zero()))
    bound = cover.origin_path_bound(point(T, lcf.from_rational(2)))
    assert lcf.classify_magnitude(d) is Magnitude.INFINITESIMAL
    assert lcf.classify_magnitude(bound) is Magnitude.INFINITESIMAL


def test_classification_consistency_with_galaxy():
    # finite_inapproachable means: in the galaxy, yet not approachable
    from ihull import hull, spaces

    space = spaces.get_space("cover")
    witness = space.point(ONE, TI)
    assert classify_point(point(ONE, TI)).verdict is Verdict.FINITE_INAPPROACHABLE
    assert hull.in_galaxy(space, witness) is Ternary.TRUE
    assert hull.is_approachable(space, witness) is Ternary.FALSE


# ---------------------------------------------------------------------------
# completion, net, covering map
# ---------------------------------------------------------------------------

def test_completion_distance():
    assert cover.completion_distance(None, point(1, 0)) == ONE
    assert cover.completion_distance(None, None).is_zero
    assert cover.completion_distance(point(1, 0), None) == ONE
    d = cover.completion_distance(None, point(ONE, TI))
    assert lcf.standard_part(d) == Interval.point(1)


def test_separated_net():
    net = cover.separated_net(5)
    assert [p.zeta.coefficient(0).lo for p in net] == [0, 4, 8, 12, 16]
    for i, p in enumerate(net):
        assert cover.completion_distance(None, p) == ONE
        for q in net[i + 1 :]:
            assert cover.cover_distance(p, q) == lcf.from_rational(2)


def test_separated_net_negative_control():
    # spacing below pi gives chords shorter than 2: the net property fails
    d = cover.cover_distance(point(1, 0), point(1, 1))
    assert lcf.compare(d, lcf.from_rational(2)) is Ordering.LT


def test_separated_net_needs_two_points():
    with pytest.raises(ValueError):
        cover.separated_net(1)


def _angle(zeta, precision=64):
    """The punctured-plane angle of a standard cover point: zeta less the
    multiple of 2 pi nearest it."""
    return reduce_angle(cover.exact_standard_value(zeta), precision)


def test_covering_map_examples():
    assert cover.exact_standard_value(lcf.one()) == 1 and _angle(lcf.zero()) == Interval.point(0)
    theta = _angle(lcf.from_rational(4))
    assert THETA_7 - 3 in theta and theta.width <= F(1, 2**60)  # 4 - 2 pi
    assert cover.exact_standard_value(lcf.from_rational(2)) == 2
    assert THETA_7 in _angle(lcf.from_rational(7))
    assert _angle(lcf.from_rational(-1)) == Interval.point(-1)


def test_covering_map_requires_standard():
    with pytest.raises(NotStandard):
        cover.exact_standard_value(ONE + T)
    with pytest.raises(NotStandard):
        cover.exact_standard_value(lcf.sqrt(lcf.from_rational(2), 4, 64))


def test_covering_map_local_isometry():
    # nearby standard points with |dzeta| < pi: cover distance = planar chord
    rng = Random(53)
    for _ in range(10):
        r1, r2 = (F(rng.randint(5, 30), 10) for _ in range(2))
        z1 = F(rng.randint(-10, 10), 10)
        z2 = z1 + F(rng.randint(-10, 10), 10)
        d = cover.cover_distance(point(r1, z1), point(r2, z2))
        th1, th2 = _angle(lcf.from_rational(z1)), _angle(lcf.from_rational(z2))
        # chord in the plane between the images (r1, th1) and (r2, th2)
        cos_dth, _ = cos_sin_interval(th1 - th2, 64)
        chord_sq = Interval.point(r1 * r1 + r2 * r2) - cos_dth * Interval.point(2 * r1 * r2)
        chord = sqrt_interval(chord_sq, 64)
        assert lcf.standard_part(d).intersect(chord) is not None


@pytest.mark.parametrize("zeta", (10**6, 10**30))
def test_covering_map_width_does_not_grow_with_the_winding(zeta):
    # 2*pi is enclosed at the precision plus the bit length of zeta, plus 1
    for precision in (64, 128):
        theta = _angle(lcf.from_rational(zeta), precision)
        assert theta.width <= F(1, 2**precision)
        assert max(-theta.lo, theta.hi) <= pi_interval(256).hi + F(1, 2**precision)
