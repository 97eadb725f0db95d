"""The registered metric spaces and their `locate` oracles.

Four spaces exercise every branch of the harnesses:

============== ========= ============ ==================================
space           complete  completion   role
                          Heine-Borel
============== ========= ============ ==================================
rationals-line  no        yes          incomplete, hull = completion
euclidean-plane yes       yes          complete and Heine-Borel
cover           no        no           hull strictly larger than completion
cover-completion yes      no           complete but not Heine-Borel
============== ========= ============ ==================================

Each space is built at one truncation order and one precision; its
`distance(a, b)` works at both.  `hull.hull_distance` measures from the
standard point that `locate` finds, at every order: st d(a, b) =
st d(st a, b) by the triangle inequality.

Soundness of the oracles.  Each space's `locate` decides finiteness from
the coordinates, never by expanding the distance to the basepoint, so the
verdict is as sound as the magnitude tests on the coordinates themselves:

* rationals-line: d(x, 0) = |x|, so a point is finite iff its coordinate is.
  Every finite hyperrational is approachable (rationals are dense at
  standard scales).  `locate` gives the standard point when the standard
  part is one exact rational and none otherwise, though a wider enclosure
  may hold a rational: that "no" has no certificate (ROADMAP item 1).
* euclidean-plane: max(|x|, |y|) <= d((x, y), 0) <= |x| + |y|, so a point
  is finite iff both coordinates are.  Every finite point is approachable
  and nearstandard (its standard part, coordinatewise, is the standard
  point).
* cover / cover-completion: one builder registers both, the completion
  being the cover with the origin (r exactly 0) restored, and both measure
  with `cover.completion_distance`: the cover's distance away from the
  origin, r to it.  The path through the puncture bounds the distance
  above, and r changes by at most the length of any path (|dr| <= ds), so
  |r - 1| <= d((r, zeta), (1, 0)) <= r + 1 and a point is finite iff r
  is, whatever zeta.  A surely finite r of unknown magnitude is therefore
  finite even when its cover classification is unknown; the restored
  origin is finite.  Approachability and nearstandardness are read from one
  `classify_point` verdict per point, from the magnitudes of r and zeta,
  and a nearstandard point's standard point from `_standard_point`:
  `locate` calls neither `separation_certificate` nor `origin_path_bound`,
  so no certificate backs an inapproachable or origin-halo verdict (item 1).
"""

from __future__ import annotations

from functools import partial

from . import lcf
from .cover import CoverPoint, Verdict, classify_point, completion_distance
from .errors import IndeterminateComparison, NotFinite
from .hull import ExtendedPoint, Location, SpaceDescriptor
from .lcf import (
    DEFAULT_ORDER,
    DEFAULT_PRECISION,
    LeviCivitaNumber,
    Magnitude,
    Ternary,
)


def get_space(
    name: str, order=DEFAULT_ORDER, precision: int = DEFAULT_PRECISION
) -> SpaceDescriptor:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown space {name!r}; registered: {', '.join(SPACE_NAMES)}"
        ) from None
    return builder(order, precision)


def _finite_ternary(*coords: LeviCivitaNumber) -> Ternary:
    """TRUE when every coordinate is surely finite, FALSE when one is surely
    infinite."""
    if all(lcf.is_surely_finite(x) for x in coords):
        return Ternary.TRUE
    if any(lcf.classify_magnitude(x) is Magnitude.INFINITE for x in coords):
        return Ternary.FALSE
    return Ternary.UNKNOWN


def _standard_point(a: ExtendedPoint) -> ExtendedPoint | None:
    """The coordinatewise standard part of `a`, each coordinate's stored
    triple at exponent 0 (`lcf._standard`) as a number, or None where a
    coordinate has none or its standard part is undecided."""
    try:
        parts = [lcf._standard(c) for c in a.coords]
    except (NotFinite, IndeterminateComparison):
        return None
    return ExtendedPoint(a.space_id, tuple(lcf._monomial(c, 0, 1) for c in parts))


# ---------------------------------------------------------------------------
# rationals-line
# ---------------------------------------------------------------------------

def _rationals_line(order, precision) -> SpaceDescriptor:
    def distance(a: ExtendedPoint, b: ExtendedPoint) -> LeviCivitaNumber:
        return lcf.abs_value(lcf.sub(a.coords[0], b.coords[0]))

    def locate(a: ExtendedPoint) -> Location:
        # finite => approachable: the completion of the rationals is the
        # whole real line, so standard rationals sit arbitrarily close.
        finite = _finite_ternary(a.coords[0])
        near = _standard_point(a)
        # an irrational-valued enclosure: no rational matches
        exact = near is not None and near.coords[0].is_exact
        return Location(finite, finite, near if exact else None)

    return SpaceDescriptor(
        space_id="rationals-line",
        dimension=1,
        basepoint=ExtendedPoint("rationals-line", (lcf.zero(),)),
        distance=distance,
        locate=locate,
        is_complete=False,
        completion_is_HB=True,
    )


# ---------------------------------------------------------------------------
# euclidean-plane
# ---------------------------------------------------------------------------

def _euclidean_plane(order, precision) -> SpaceDescriptor:
    def distance(a: ExtendedPoint, b: ExtendedPoint) -> LeviCivitaNumber:
        dx = lcf.sub(a.coords[0], b.coords[0])
        dy = lcf.sub(a.coords[1], b.coords[1])
        squared = lcf.add(lcf.mul(dx, dx), lcf.mul(dy, dy))
        return lcf.sqrt_nonnegative(squared, order, precision)

    def locate(a: ExtendedPoint) -> Location:
        # every finite point is approachable: standard points are dense; the
        # plane is complete, so the standard point is one, exact or not
        finite = _finite_ternary(*a.coords)
        return Location(finite, finite, _standard_point(a))

    return SpaceDescriptor(
        space_id="euclidean-plane",
        dimension=2,
        basepoint=ExtendedPoint("euclidean-plane", (lcf.zero(), lcf.zero())),
        distance=distance,
        locate=locate,
        is_complete=True,
        completion_is_HB=True,
    )


# ---------------------------------------------------------------------------
# cover and its completion
# ---------------------------------------------------------------------------

_APPROACHABLE = {
    Verdict.NEARSTANDARD: Ternary.TRUE,
    Verdict.ORIGIN_HALO: Ternary.TRUE,
    Verdict.FINITE_INAPPROACHABLE: Ternary.FALSE,
    Verdict.OUTSIDE_GALAXY: Ternary.FALSE,
    Verdict.UNKNOWN: Ternary.UNKNOWN,
}


def _cover_space(space_id: str, restored: bool, order, precision) -> SpaceDescriptor:
    """The cover, or its completion when the origin is `restored`: a point
    with r exactly 0, the standard point of the origin halo."""
    origin = ExtendedPoint(space_id, (lcf.zero(), lcf.zero())) if restored else None

    def cover_point(a: ExtendedPoint) -> CoverPoint | None:
        if restored and a.coords[0].is_zero:
            return None  # the restored origin
        return CoverPoint(*a.coords)

    def distance(a: ExtendedPoint, b: ExtendedPoint) -> LeviCivitaNumber:
        return completion_distance(cover_point(a), cover_point(b), order, precision)

    def locate(a: ExtendedPoint) -> Location:
        p = cover_point(a)
        if p is None:
            return Location(Ternary.TRUE, Ternary.TRUE, origin)
        verdict = classify_point(p)
        # the origin halo's standard point is the origin, missing from the cover
        near = origin if verdict is Verdict.ORIGIN_HALO else None
        if verdict is Verdict.NEARSTANDARD:
            near = _standard_point(a)
        return Location(_finite_ternary(p.r), _APPROACHABLE[verdict], near)

    return SpaceDescriptor(
        space_id=space_id,
        dimension=2,
        basepoint=ExtendedPoint(space_id, (lcf.one(), lcf.zero())),
        distance=distance,
        locate=locate,
        is_complete=restored,
        completion_is_HB=False,
    )


_BUILDERS = {
    "rationals-line": _rationals_line,
    "euclidean-plane": _euclidean_plane,
    "cover": partial(_cover_space, "cover", False),
    "cover-completion": partial(_cover_space, "cover-completion", True),
}

SPACE_NAMES = tuple(_BUILDERS)


# ---------------------------------------------------------------------------
# named witness probes
# ---------------------------------------------------------------------------

def incompleteness_witness(space: SpaceDescriptor) -> ExtendedPoint | None:
    """An approachable probe with no standard point infinitely close,
    for the incomplete spaces."""
    if space.space_id == "rationals-line":
        return space.point(lcf.add(lcf.sqrt(lcf.from_rational(2)), lcf.T))
    if space.space_id == "cover":
        return space.point(lcf.T, lcf.zero())
    return None


def inapproachability_witness(space: SpaceDescriptor) -> ExtendedPoint | None:
    """A finite probe with no standard points nearby at standard scales,
    for the spaces whose completion is not Heine-Borel."""
    if space.space_id in ("cover", "cover-completion"):
        return space.point(lcf.one(), lcf.T_INVERSE)
    return None
