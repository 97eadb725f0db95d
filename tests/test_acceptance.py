"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with `pytest -s` or in the
captured output) and enforces its runtime budget.  Exact-arithmetic checks
use zero tolerance; oracle checks use the stated relative bounds.
"""

import statistics
import time
from fractions import Fraction as F
from random import Random

import oracle_extra
from ihull import cover, hull, lcf, probes, spaces
from ihull.cover import Verdict, classify_point, point
from ihull.intervals import Interval, pi_interval
from ihull.lcf import Magnitude, Ordering, Ternary
from ihull.parsing import parse_number

T = lcf.T
TI = lcf.T_INVERSE
ONE = lcf.one()


def _report(n: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s of {budget:.0f}s budget) - {detail}")


def test_criterion_1_flagship_distance_and_bound():
    """st d((1, t^-1), (t, 0)) = 1 exactly; three-leg bound exact and dominating."""
    start = time.monotonic()
    a = point(ONE, TI)
    b = point(T, lcf.zero())
    distance = cover.cover_distance(a, b)
    st = lcf.standard_part(distance)
    assert st == Interval.point(1)  # zero tolerance, exact rational arithmetic
    bound = cover.three_leg_upper_bound(a, T)
    assert bound == parse_number("1 + 2t - 2t^2")
    assert lcf.compare(distance, bound) is Ordering.LT
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, elapsed, 1, "st = 1 exactly; bound 1 + 2t - 2t^2 dominates")


def test_criterion_2_inapproachability_ball():
    """Certificate radius 1/2 for 100 standard points; grid confirms > 0.5."""
    gridoracle = oracle_extra.gridoracle()
    start = time.monotonic()
    rng = Random(42)
    center = point(ONE, TI)
    witnesses = []
    while len(witnesses) < 100:
        zeta = F(rng.randint(-10000, 10000), 100)  # |zeta_q| <= 100
        if abs(zeta - 50) < 2:
            # the scaled stand-in center (1, 50) owns the rectangle
            # [1/2, 2] x [49, 51]; the certificate speaks about points
            # beyond it, so sampled witnesses stay outside its angle band
            continue
        witnesses.append((F(rng.randint(50, 200), 100), zeta))
    for r_q, z_q in witnesses:
        bound = cover.inapproachability_lower_bound(center, point(r_q, z_q))
        assert bound == F(1, 2)
    source = (1.0, 50.0)
    targets = [(float(r), float(z)) for r, z in witnesses]
    cfg = gridoracle.window_for([source] + targets, n_r=96, n_zeta=1024)
    for d in gridoracle.oracle_distances(cfg, source, targets):
        assert d > 0.5
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(2, elapsed, 120, "lower bound 1/2 on 100 points; grid distances all > 0.5")


def test_criterion_3_standard_part_morphism():
    """Ring morphism, kernel, and rational approximation on random exact values."""
    start = time.monotonic()
    rng = Random(7)
    values = [probes.random_finite(rng) for _ in range(500)]
    for a, b in zip(values, values[1:]):
        assert lcf.standard_part(a + b) == lcf.standard_part(a) + lcf.standard_part(b)
        assert lcf.standard_part(a * b) == lcf.standard_part(a) * lcf.standard_part(b)
    for a in values:
        kernel = lcf.standard_part(a).is_zero
        assert kernel == (lcf.classify_magnitude(a) is Magnitude.INFINITESIMAL)
    for _ in range(100):
        y = probes.random_finite(rng)
        q = lcf.approximate_within(y, T)
        assert q.is_exact
        assert lcf.halo_equal(q, y) is Ternary.TRUE
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, elapsed, 10, "morphism + kernel on 500 values, 100 approximations, 0 exceptions")


def test_criterion_4_hull_distance_well_defined():
    """200 infinitesimal representative moves keep hull distances consistent."""
    start = time.monotonic()
    rng = Random(11)
    moves = 0
    for space in (spaces.get_space("rationals-line"), spaces.get_space("cover")):
        for _ in range(25):
            a, b = probes.finite_probes(space, rng, 2)
            base = hull.hull_distance(space, hull.halo(space, a), hull.halo(space, b))
            for _ in range(4):
                shifted = hull.ExtendedPoint(
                    a.space_id,
                    tuple(
                        lcf.add(
                            c,
                            lcf.scale(
                                probes.random_infinitesimal(rng),
                                probes.random_fraction(rng),
                            ),
                        )
                        for c in a.coords
                    ),
                )
                moved = hull.hull_distance(
                    space, hull.halo(space, shifted), hull.halo(space, b)
                )
                assert base.intersect(moved) is not None
                moves += 1
    assert moves == 200
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(4, elapsed, 30, "200 perturbed representatives, all intervals consistent")


def test_criterion_5_closed_form_vs_oracle():
    """50 random pairs at 256x256, 8-neighbor+knight: gap <= 8%, median <= 3%."""
    gridoracle = oracle_extra.gridoracle()
    start = time.monotonic()
    rng = Random(20260810)
    gaps = []
    for _ in range(50):
        r1 = F(rng.randint(50, 200), 100)
        r2 = F(rng.randint(50, 200), 100)
        z1 = F(rng.randint(0, 800), 100)
        z2 = z1 + F(rng.choice([-1, 1]) * rng.randint(0, 800), 100)
        closed = float(
            lcf.standard_part(
                cover.cover_distance(point(r1, z1), point(r2, z2))
            ).midpoint
        )
        a, b = (float(r1), float(z1)), (float(r2), float(z2))
        cfg = gridoracle.window_for(
            [a, b], n_r=256, n_zeta=256, connectivity="8-neighbor+knight"
        )
        approx = gridoracle.oracle_distance(cfg, a, b)
        gaps.append(abs(approx - closed) / closed)
    assert all(gap <= 0.08 for gap in gaps)
    assert statistics.median(gaps) <= 0.03
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(
        5,
        elapsed,
        300,
        f"50 pairs: max gap {max(gaps):.3f} <= 0.08, median {statistics.median(gaps):.3f} <= 0.03",
    )


def test_criterion_6_separated_net():
    """separated_net(10): distances exactly 1 to the origin, exactly 2 pairwise."""
    start = time.monotonic()
    net = cover.separated_net(10)
    assert len(net) == 10
    for p in net:
        assert cover.completion_distance(None, p) == ONE  # exact
    checked = 0
    for i in range(10):
        for j in range(i + 1, 10):
            assert cover.cover_distance(net[i], net[j]) == lcf.from_rational(2)
            checked += 1
    assert checked == 45
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(6, elapsed, 1, "10 points on the unit sphere, 45 pairwise distances exactly 2")


def test_criterion_7_theorem_harnesses():
    """Approachability harnesses across all registered spaces."""
    start = time.monotonic()
    rng = Random(13)
    line = spaces.get_space("rationals-line")
    plane = spaces.get_space("euclidean-plane")
    cov = spaces.get_space("cover")

    certified = {}
    for space, count in ((line, 100), (plane, 100)):
        report = hull.check_theorem_b(space, probes.finite_probes(space, rng, count))
        assert report.passed and report.unknown_count == 0
        assert report.clauses[0].holds  # all finite probes approachable
        certified[space.space_id] = ("all-approachable", report)

    witness = spaces.inapproachability_witness(cov)
    cover_report = hull.check_theorem_b(
        cov, probes.finite_probes(cov, rng, 50) + [witness]
    )
    assert cover_report.passed
    assert not cover_report.clauses[0].holds  # witness found
    certified[cov.space_id] = ("witness", cover_report)

    for _, report in certified.values():
        claims_all = report.clauses[0].holds
        has_witness = any(
            row.finite == "true" and row.approachable == "false"
            for row in report.probes
        )
        assert not (claims_all and has_witness)  # no contradictory clauses

    plane_a = hull.check_proposition_a(plane, probes.finite_probes(plane, rng, 100))
    assert plane_a.passed and plane_a.unknown_count == 0

    root2_probe = spaces.incompleteness_witness(line)
    line_a = hull.check_proposition_a(
        line, probes.finite_probes(line, rng, 50) + [root2_probe]
    )
    assert line_a.passed
    assert any(
        row.approachable == "true" and row.nearstandard is None
        for row in line_a.probes
    )

    origin_probe = spaces.incompleteness_witness(cov)
    cover_a = hull.check_proposition_a(
        cov, probes.finite_probes(cov, rng, 50) + [origin_probe]
    )
    assert cover_a.passed
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(7, elapsed, 30, "harnesses pass on all spaces with the expected witnesses")


def test_criterion_8_classification_and_branch_continuity():
    """The four classification rows; chord/through-origin agreement near pi."""
    start = time.monotonic()
    rows = [
        (point(ONE + T, lcf.from_rational(5)), Verdict.NEARSTANDARD),
        (point(ONE, TI), Verdict.FINITE_INAPPROACHABLE),
        (point(T, lcf.t_power(-2)), Verdict.ORIGIN_HALO),
        (point(TI, lcf.zero()), Verdict.OUTSIDE_GALAXY),
    ]
    for probe, expected in rows:
        assert classify_point(probe) is expected
    space = spaces.get_space("cover")
    near = hull.locate(space, space.point(ONE + T, lcf.from_rational(5))).nearstandard
    assert near.coords == (ONE, lcf.from_rational(5))

    pi_mid = pi_interval(128).midpoint
    for radius in (F(1), F(3)):
        below = cover.cover_distance(
            point(radius, 0), point(radius, pi_mid - F(1, 1000))
        )
        above = cover.cover_distance(
            point(radius, 0), point(radius, pi_mid + F(1, 1000))
        )
        assert above == lcf.from_rational(2 * radius)
        gap = lcf.sub(above, below).coefficient(0)
        assert max(-gap.lo, gap.hi) < F(1, 100) * radius
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(8, elapsed, 10, "classification table exact; branch gap < 1e-2 * r at pi +- 1e-3")
