"""The metric universal cover of the punctured plane.

Points carry polar-style coordinates (r, zeta) with r > 0 and zeta an
*unwrapped* angle ranging over all reals (not mod 2*pi); the length element
is dr^2 + r^2 dzeta^2.  Unrolling makes the space simply connected but
incomplete: the puncture at r = 0 is missing, and winding far in zeta is
never free.

Geodesic distance has two regimes.  When the angle gap is below pi the
shortest path is the straight chord of the developed cone,
sqrt(r1^2 + r2^2 - 2 r1 r2 cos(dzeta)); at or beyond pi every path must
either wrap around or dive toward the puncture, and the infimal length is
r1 + r2 (attained only in the completion, through the restored origin).
The regime is decided once per distance, from the signs of dzeta - pi and
dzeta + pi on integer triples, with no number built for pi.

With coordinates from the truncated-series field this module also decides,
per point, whether it is infinitely near a standard point, near the restored
origin, at a finite distance but not approachable from any standard point,
or infinitely far away - together with explicit certificates for the
inapproachable case (a rectangle whose boundary every escaping path must
cross) and for the origin-halo case (a three-leg path of infinitesimal
length).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import lcf
from .errors import (
    BranchIndeterminate,
    IndeterminateComparison,
    InvalidPoint,
    NotApplicable,
    NotStandard,
    PreconditionViolated,
)
from .intervals import Record, pi_interval
from .lcf import (
    DEFAULT_ORDER,
    DEFAULT_PRECISION,
    LeviCivitaNumber,
    Magnitude,
    Ordering,
)


class CoverPoint(Record):
    """A point (r, zeta) of the cover; r > 0 must be decidable."""

    __slots__ = ("r", "zeta")

    def __init__(self, r: LeviCivitaNumber, zeta: LeviCivitaNumber):
        try:
            positive = lcf.sign(r) > 0
        except IndeterminateComparison as exc:
            raise IndeterminateComparison(
                "radial coordinate of unknown sign", exc.exponent
            ) from None
        if not positive:
            raise InvalidPoint("radial coordinate must be positive")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "zeta", zeta)

    def __str__(self) -> str:
        from .parsing import format_point

        return format_point((self.r, self.zeta))


def point(r, zeta) -> CoverPoint:
    """Convenience constructor accepting rationals or numbers."""
    to_num = lambda v: v if isinstance(v, LeviCivitaNumber) else lcf.from_rational(v)
    return CoverPoint(to_num(r), to_num(zeta))


class Verdict(Enum):
    NEARSTANDARD = "nearstandard"
    ORIGIN_HALO = "origin_halo"
    FINITE_INAPPROACHABLE = "finite_inapproachable"
    OUTSIDE_GALAXY = "outside_galaxy"
    UNKNOWN = "unknown"


class SeparationCertificate(Record):
    """A rectangle around `center` that every path to a finite-angle point
    must exit, plus the resulting metric-ball radius.

    Inside [r_lo, r_hi] x [zeta - halfwidth, zeta + halfwidth] the length
    element dominates dr^2 + r_lo^2 dzeta^2, so exiting costs at least
    min(radial margins, r_lo * halfwidth) >= ball_radius.
    """

    __slots__ = ("center", "r_lo", "r_hi", "zeta_halfwidth", "ball_radius")  # a CoverPoint, 4 Fractions


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def cover_distance(
    a: CoverPoint,
    b: CoverPoint,
    order=DEFAULT_ORDER,
    precision: int = DEFAULT_PRECISION,
) -> LeviCivitaNumber:
    """Geodesic distance on the cover (infimum metric).

    r1 + r2 when dzeta - pi > 0 or dzeta + pi < 0, the chord otherwise, each
    sign read by `lcf.sign`'s rule against pi's enclosure: pi.hi + t is beyond
    pi, pi.lo - t below it, and pi.lo + t or pi itself raise BranchIndeterminate.
    """
    dz, pi = lcf.sub(a.zeta, b.zeta), pi_interval(precision)
    try:
        above, below = lcf.sign_plus(dz, pi, negate=True), lcf.sign_plus(dz, pi)
    except IndeterminateComparison as exc:
        raise BranchIndeterminate(
            f"angle gap vs pi undecidable at precision {precision}: {exc}"
        ) from None
    if above > 0 or below < 0:
        return lcf.add(a.r, b.r)
    return _chord_distance(a, b, dz, order, precision)


def _chord_distance(a, b, dz, order, precision) -> LeviCivitaNumber:
    cos_dz = lcf.cos_enclosure(dz, order, precision)
    cross = lcf.scale(lcf.mul(lcf.mul(a.r, b.r), cos_dz), -2)
    squared = lcf.add(lcf.add(lcf.mul(a.r, a.r), lcf.mul(b.r, b.r)), cross)
    return lcf.sqrt_nonnegative(squared, order, precision)


def completion_distance(
    a: CoverPoint | None,
    b: CoverPoint | None,
    order=DEFAULT_ORDER,
    precision: int = DEFAULT_PRECISION,
) -> LeviCivitaNumber:
    """Distance on the completion: the cover plus a restored origin (None)."""
    if a is None and b is None:
        return lcf.zero()
    if a is None:
        return b.r
    if b is None:
        return a.r
    return cover_distance(a, b, order, precision)


# ---------------------------------------------------------------------------
# bounds and certificates
# ---------------------------------------------------------------------------

def three_leg_upper_bound(a: CoverPoint, eps: LeviCivitaNumber) -> LeviCivitaNumber:
    """Exact length of the path (1, z) -> (1/z^2, z) -> (1/z^2, 0) -> (eps, 0).

    For infinite z this is (1 - 1/z^2) + (1/z^2) z + |1/z^2 - eps|, an upper
    bound on the distance from (1, z) to (eps, 0) with standard part 1.
    Requires r = 1 exactly, z infinite, eps a positive infinitesimal.
    """
    if lcf.compare(a.r, lcf.one()) is not Ordering.EQ:
        raise PreconditionViolated("path chain is stated for radial coordinate 1")
    if lcf.classify_magnitude(a.zeta) is not Magnitude.INFINITE:
        raise PreconditionViolated("angle coordinate must be infinite")
    if lcf.classify_magnitude(eps) is not Magnitude.INFINITESIMAL or lcf.sign(eps) <= 0:
        raise PreconditionViolated("eps must be a positive infinitesimal")
    inv_z2 = lcf.inverse(lcf.mul(a.zeta, a.zeta), DEFAULT_ORDER)
    leg1 = lcf.sub(lcf.one(), inv_z2)          # radial descent to r = 1/z^2
    leg2 = lcf.mul(inv_z2, lcf.abs_value(a.zeta))  # unwind the angle down at tiny r
    leg3 = lcf.abs_value(lcf.sub(inv_z2, eps))     # radial hop to (eps, 0)
    return lcf.add(lcf.add(leg1, leg2), leg3)


def separation_certificate(center: CoverPoint) -> SeparationCertificate:
    """Rectangle certificate that `center` is far from every finite-angle point.

    Applicable when st(center.r) is certainly positive (appreciable r) and
    center.zeta is infinite.  With rho the lower bound of st(center.r), any
    path leaving [rho/2, 2*hi] x [zeta +- 1] pays at least rho/2: crossing an
    angular side costs >= (rho/2)*1, a radial side >= the radial margin.
    """
    if lcf.classify_magnitude(center.zeta) is not Magnitude.INFINITE:
        raise NotApplicable("certificate requires an infinite angle coordinate")
    if lcf.classify_magnitude(center.r) is not Magnitude.APPRECIABLE:
        raise NotApplicable("certificate requires an appreciable radial coordinate")
    st_r = lcf.standard_part(center.r)
    if st_r.lo_num <= 0:
        raise NotApplicable("radial standard part not certainly positive")
    rho = st_r.lo
    return SeparationCertificate(center, rho / 2, 2 * st_r.hi, Fraction(1), rho / 2)


def inapproachability_lower_bound(center: CoverPoint, q: CoverPoint) -> Fraction:
    """Certified lower bound on the distance from `center` to any finite-angle
    point `q`, via the separation rectangle.  Independent of `q` beyond the
    finiteness of its angle."""
    certificate = separation_certificate(center)
    if lcf.classify_magnitude(q.zeta) not in (
        Magnitude.INFINITESIMAL,
        Magnitude.APPRECIABLE,
    ):
        raise NotApplicable("witness point must have a finite angle coordinate")
    return certificate.ball_radius


def origin_path_bound(a: CoverPoint) -> LeviCivitaNumber:
    """Length bound for reaching an origin representative from `a`:
    descend to r'' = t^m, unwind the angle there, for m large enough that
    r''*|zeta| is infinitesimal, read from the valuations (an exact zero
    angle's, INFINITE_ORDER, never sets m).  Infinitesimal whenever a.r is."""
    m = max(Fraction(0), a.r.valuation, -a.zeta.valuation) + 1
    r_mid = lcf.t_power(m)
    if lcf.sign(lcf.sub(a.r, r_mid)) <= 0:
        raise NotApplicable("intermediate radius not below the starting radius")
    descent = lcf.sub(a.r, r_mid)
    swing = lcf.mul(r_mid, lcf.magnitude_bound(a.zeta))
    return lcf.add(descent, swing)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_point(a: CoverPoint) -> Verdict:
    """Locate `a` relative to the standard cover, its completion, and beyond.

    infinite r        -> outside_galaxy
    infinitesimal r   -> origin_halo (a short path to (eps, 0) always exists)
    appreciable r     -> nearstandard for finite zeta, else finite_inapproachable
    """
    mr = lcf.classify_magnitude(a.r)
    if mr is Magnitude.INFINITE:
        return Verdict.OUTSIDE_GALAXY
    if mr is Magnitude.INFINITESIMAL:
        return Verdict.ORIGIN_HALO
    if mr is Magnitude.APPRECIABLE:
        mz = lcf.classify_magnitude(a.zeta)
        if mz in (Magnitude.INFINITESIMAL, Magnitude.APPRECIABLE):
            return Verdict.NEARSTANDARD
        if mz is Magnitude.INFINITE:
            return Verdict.FINITE_INAPPROACHABLE
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# non-compactness witness
# ---------------------------------------------------------------------------

def separated_net(n: int) -> list[CoverPoint]:
    """n points (1, 4k) on the unit circle of the completion, pairwise
    distance exactly 2 (each gap 4 > pi forces the through-origin branch).
    An arbitrarily large 2-separated set in a closed ball: the ball is not
    totally bounded, so the completion is not Heine-Borel."""
    if n < 2:
        raise ValueError("a separated net needs at least 2 points")
    return [point(1, 4 * k) for k in range(n)]


def exact_standard_value(x: LeviCivitaNumber) -> Fraction:
    """The rational value of an exact standard number, else NotStandard."""
    if not x.is_exact or any(n != 0 for n, _ in x.pairs):
        raise NotStandard("exact standard coordinates required")
    return x.coefficient(0).lo

