"""Halos, galaxies, and hull distances over registered metric spaces.

A registered space supplies its distance on extended points (coordinates in
the truncated-series field), a basepoint, and one `locate` oracle that places
a point with three verdicts: finite (at finite distance from the basepoint,
i.e. in the galaxy), approachable (are there standard points arbitrarily
close, at standard scales?) and nearstandard (a standard point infinitely
close, if any).  On top of those this module builds the hull: points at
finite distance from the basepoint, identified when their distance is
infinitesimal, with the distance between classes the standard part of the
extended distance.

The two theorem harnesses check, on finite probe sets:

* every approachable point is nearstandard  <=>  the space is complete;
* every finite point is approachable  <=>  the completion is Heine-Borel.
  (The paper's third equivalent, "the completion already fills the hull",
  is not tested: probes give it no evidence of its own.)

Probe sets make these property tests, not proofs; unknown oracle verdicts
are reported, never silently counted as pass or fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import lcf
from .errors import NotFinite, SpaceMismatch
from .intervals import Interval
from .lcf import LeviCivitaNumber, Ternary


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of a space's extension: one series-valued coordinate per axis."""

    space_id: str
    coords: tuple[LeviCivitaNumber, ...]

    def __str__(self) -> str:
        from .parsing import format_number, format_point

        if len(self.coords) == 1:
            return format_number(self.coords[0])
        return format_point(self.coords)


@dataclass(frozen=True)
class Location:
    """Where a point of the extension sits, as decided by its space's oracle.

    `finite`: at finite distance from the basepoint (in the galaxy).
    `approachable`: standard points arbitrarily close at standard scales.
    `nearstandard`: a standard point infinitely close, or None if the oracle
    finds none.
    """

    finite: Ternary
    approachable: Ternary
    nearstandard: ExtendedPoint | None


@dataclass(frozen=True)
class SpaceDescriptor:
    """A registered metric space with its extension and its `locate` oracle.

    `distance(a, b)` works at the truncation order and precision the space
    was built at.  The distance must be symmetric, nonnegative, and satisfy
    the triangle inequality; the test suite probes these on random triples
    rather than trusting registrations.  `locate` is space-specific:
    approachability has no generic decision procedure, and finiteness is
    decided from the coordinates, never by expanding a distance to the
    basepoint.
    """

    space_id: str
    dimension: int
    basepoint: ExtendedPoint
    distance: Callable[..., LeviCivitaNumber]
    locate: Callable[[ExtendedPoint], Location]
    is_complete: bool
    completion_is_HB: bool

    def point(self, *coords) -> ExtendedPoint:
        nums = tuple(
            c if isinstance(c, LeviCivitaNumber) else lcf.from_rational(c)
            for c in coords
        )
        if len(nums) != self.dimension:
            raise SpaceMismatch(
                f"{self.space_id} needs {self.dimension} coordinates, got {len(nums)}"
            )
        return ExtendedPoint(self.space_id, nums)


def _check_membership(s: SpaceDescriptor, *points: ExtendedPoint) -> None:
    for p in points:
        if p.space_id != s.space_id:
            raise SpaceMismatch(f"point of {p.space_id!r} used with {s.space_id!r}")


# ---------------------------------------------------------------------------
# point-level operations
# ---------------------------------------------------------------------------

def extended_distance(
    s: SpaceDescriptor, a: ExtendedPoint, b: ExtendedPoint
) -> LeviCivitaNumber:
    """The space's distance on extended points (>= 0 by registration), at
    the space's order."""
    _check_membership(s, a, b)
    return s.distance(a, b)


def locate(s: SpaceDescriptor, a: ExtendedPoint) -> Location:
    """The finite, approachable and nearstandard verdicts for `a`."""
    _check_membership(s, a)
    return s.locate(a)


def in_galaxy(s: SpaceDescriptor, a: ExtendedPoint) -> Ternary:
    """Is `a` at finite distance from the basepoint?"""
    return locate(s, a).finite


def halo(s: SpaceDescriptor, a: ExtendedPoint) -> ExtendedPoint:
    """`a` as a representative of its halo, once it is checked to be a point
    of `s`."""
    _check_membership(s, a)
    return a


def hull_distance(s: SpaceDescriptor, a: ExtendedPoint, b: ExtendedPoint) -> Interval:
    """Distance between the hull points of representatives `a` and `b`: st
    of the extended distance, with each representative that has a standard
    point replaced by that point.

    The replacement changes no answer: d(a, st a) is infinitesimal, so by
    the triangle inequality st d(a, b) = st d(st a, b), and likewise for b.
    The same argument makes the hull distance well-defined on halos, and
    independent of the truncation order once both points are standard.  A
    representative with no standard point is kept, and `lcf.standard_part`
    answers or raises on the distance.
    """
    points = []
    for p in (a, b):
        location = locate(s, p)
        if location.finite is Ternary.FALSE:
            raise NotFinite(f"representative {p} outside the galaxy")
        points.append(location.nearstandard or p)
    return lcf.standard_part(extended_distance(s, *points))


def is_approachable(s: SpaceDescriptor, a: ExtendedPoint) -> Ternary:
    return locate(s, a).approachable


def is_nearstandard(s: SpaceDescriptor, a: ExtendedPoint) -> ExtendedPoint | None:
    return locate(s, a).nearstandard


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ProbeRow:
    probe: str
    finite: str
    approachable: str
    nearstandard: str | None


@dataclass
class Clause:
    name: str
    holds: bool | None
    note: str = ""


@dataclass
class HarnessReport:
    clauses: list[Clause]
    probes: list[ProbeRow]
    passed: bool
    unknown_count: int


def _characterise(
    s: SpaceDescriptor,
    probes: list[ExtendedPoint],
    registered: str,
    rule: str,
    counterexample: str,
    flag: bool,
    is_counterexample: Callable[[Location], bool],
) -> HarnessReport:
    """Check "`registered` iff `rule`" on `probes`, where `rule` says that no
    point is a counterexample.

    The rule clause holds when no probe is a counterexample; the metadata
    clause is the registered `flag`.  The report passes when they agree:
    no counterexample for a flagged space, at least one otherwise.  Probes
    with an unknown finite or approachable verdict are counted in
    `unknown_count`; the predicates match definite verdicts only.
    """
    rows = []
    found = None
    unknown = 0
    for p in probes:
        v = locate(s, p)
        if Ternary.UNKNOWN in (v.finite, v.approachable):
            unknown += 1
        near = str(v.nearstandard) if v.nearstandard else None
        rows.append(ProbeRow(str(p), v.finite.value, v.approachable.value, near))
        if found is None and is_counterexample(v):
            found = rows[-1].probe
    note = f"{counterexample}: {found}" if found else f"no {counterexample}"
    return HarnessReport(
        clauses=[
            Clause(rule, found is None, note),
            Clause(registered, flag, "registered metadata"),
        ],
        probes=rows,
        passed=flag != (found is not None),
        unknown_count=unknown,
    )


def check_proposition_a(
    s: SpaceDescriptor, probes: list[ExtendedPoint]
) -> HarnessReport:
    """Completeness <=> every approachable probe is nearstandard.

    Complete spaces must show no approachable-but-not-nearstandard probe;
    incomplete spaces must exhibit at least one (the supplied witness).
    """
    return _characterise(
        s,
        probes,
        "space is complete",
        "every approachable probe is nearstandard",
        "approachable non-nearstandard witness",
        s.is_complete,
        lambda v: v.approachable is Ternary.TRUE and v.nearstandard is None,
    )


def check_theorem_b(s: SpaceDescriptor, probes: list[ExtendedPoint]) -> HarnessReport:
    """Heine-Borel completion <=> every finite probe approachable.

    Heine-Borel completions must show no finite inapproachable probe; the
    others must exhibit at least one (the supplied witness).  The paper's
    third equivalent, "the completion fills the hull", has no evidence of
    its own on probes and is not reported.
    """
    return _characterise(
        s,
        probes,
        "completion is Heine-Borel",
        "every finite probe is approachable",
        "finite inapproachable witness",
        s.completion_is_HB,
        lambda v: v.finite is Ternary.TRUE and v.approachable is Ternary.FALSE,
    )
