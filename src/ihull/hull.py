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

from dataclasses import dataclass, field
from typing import Callable

from . import lcf
from .errors import NotFinite, SpaceMismatch
from .intervals import Interval
from .lcf import LeviCivitaNumber, Magnitude, Ternary


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
class HaloRef:
    """A hull point, named by one representative of its halo."""

    representative: ExtendedPoint

    @property
    def space_id(self) -> str:
        return self.representative.space_id


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

    `distance` must be symmetric, nonnegative, and satisfy the triangle
    inequality; the test suite probes these on random triples rather than
    trusting registrations.  `locate` is space-specific: approachability has
    no generic decision procedure, and finiteness is decided from the
    coordinates, never by expanding a distance to the basepoint.
    """

    space_id: str
    dimension: int
    basepoint: ExtendedPoint
    distance: Callable[[ExtendedPoint, ExtendedPoint], LeviCivitaNumber]
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
    """The space's distance on extended points (>= 0 by registration)."""
    _check_membership(s, a, b)
    return s.distance(a, b)


def locate(s: SpaceDescriptor, a: ExtendedPoint) -> Location:
    """The finite, approachable and nearstandard verdicts for `a`."""
    _check_membership(s, a)
    return s.locate(a)


def in_galaxy(s: SpaceDescriptor, a: ExtendedPoint) -> Ternary:
    """Is `a` at finite distance from the basepoint?"""
    return locate(s, a).finite


def halo(s: SpaceDescriptor, a: ExtendedPoint) -> HaloRef:
    _check_membership(s, a)
    return HaloRef(a)


def same_halo(s: SpaceDescriptor, x: HaloRef, y: HaloRef) -> Ternary:
    """Whether the representatives are infinitely close."""
    d = extended_distance(s, x.representative, y.representative)
    m = lcf.classify_magnitude(d)
    if m is Magnitude.INFINITESIMAL:
        return Ternary.TRUE
    if m is Magnitude.UNKNOWN:
        return Ternary.UNKNOWN
    return Ternary.FALSE


def hull_distance(s: SpaceDescriptor, x: HaloRef, y: HaloRef) -> Interval:
    """Distance between hull points: st of the extended distance.

    Well-defined on halos: replacing a representative by an infinitely close
    point moves the extended distance by an infinitesimal, which st ignores.
    """
    for ref in (x, y):
        if in_galaxy(s, ref.representative) is Ternary.FALSE:
            raise NotFinite(f"representative {ref.representative} outside the galaxy")
    d = extended_distance(s, x.representative, y.representative)
    return lcf.standard_part(d)


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

    def to_dict(self) -> dict:
        return {
            "probe": self.probe,
            "finite": self.finite,
            "approachable": self.approachable,
            "nearstandard": self.nearstandard,
        }


@dataclass
class Clause:
    name: str
    holds: bool | None
    note: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "note": self.note}


@dataclass
class HarnessReport:
    space_id: str
    claim: str
    clauses: list[Clause] = field(default_factory=list)
    probes: list[ProbeRow] = field(default_factory=list)
    passed: bool = False
    unknown_count: int = 0

    def to_dict(self) -> dict:
        return {
            "space": self.space_id,
            "claim": self.claim,
            "clauses": [c.to_dict() for c in self.clauses],
            "probes": [p.to_dict() for p in self.probes],
            "passed": self.passed,
            "unknown_count": self.unknown_count,
        }

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f", {self.unknown_count} unknown" if self.unknown_count else ""
        return f"[{status}] {self.space_id}: {self.claim}{extra}"


def _probe_rows(
    s: SpaceDescriptor, probes: list[ExtendedPoint]
) -> tuple[list[ProbeRow], list[Location], int]:
    rows = []
    verdicts = []
    unknown = 0
    for p in probes:
        v = locate(s, p)
        if Ternary.UNKNOWN in (v.finite, v.approachable):
            unknown += 1
        near = str(v.nearstandard) if v.nearstandard else None
        rows.append(ProbeRow(str(p), v.finite.value, v.approachable.value, near))
        verdicts.append(v)
    return rows, verdicts, unknown


def check_proposition_a(
    s: SpaceDescriptor, probes: list[ExtendedPoint]
) -> HarnessReport:
    """Completeness <=> every approachable probe is nearstandard.

    Complete spaces must show no approachable-but-not-nearstandard probe;
    incomplete spaces must exhibit at least one (the supplied witness).
    """
    rows, verdicts, unknown = _probe_rows(s, probes)
    gaps = [
        i
        for i, v in enumerate(verdicts)
        if v.approachable is Ternary.TRUE and v.nearstandard is None
    ]
    if s.is_complete:
        passed = not gaps
        note = (
            "no approachable probe lacks a standard point"
            if passed
            else f"approachable but not nearstandard: {rows[gaps[0]].probe}"
        )
        clauses = [
            Clause("space is complete", True, "registered metadata"),
            Clause("every approachable probe is nearstandard", passed, note),
        ]
    else:
        passed = bool(gaps)
        note = (
            f"witness: {rows[gaps[0]].probe}"
            if gaps
            else "expected an approachable, non-nearstandard witness probe"
        )
        clauses = [
            Clause("space is incomplete", True, "registered metadata"),
            Clause("some approachable probe is not nearstandard", passed, note),
        ]
    return HarnessReport(
        space_id=s.space_id,
        claim="approachable => nearstandard iff complete",
        clauses=clauses,
        probes=rows,
        passed=passed,
        unknown_count=unknown,
    )


def check_theorem_b(s: SpaceDescriptor, probes: list[ExtendedPoint]) -> HarnessReport:
    """Heine-Borel completion <=> every finite probe approachable.

    Reports the probe evidence next to the registered `completion_is_HB` and
    passes when they agree: every finite probe approachable for a
    Heine-Borel completion, a finite inapproachable witness otherwise.  The
    paper's third equivalent, "the completion fills the hull", has no
    evidence of its own on probes and is not reported.
    """
    rows, verdicts, unknown = _probe_rows(s, probes)
    witnesses = [
        i
        for i, v in enumerate(verdicts)
        if v.finite is Ternary.TRUE and v.approachable is Ternary.FALSE
    ]
    all_approachable = not witnesses
    if s.completion_is_HB:
        passed = all_approachable
        note = (
            "all finite probes approachable"
            if passed
            else f"finite inapproachable probe: {rows[witnesses[0]].probe}"
        )
    else:
        passed = bool(witnesses)
        note = (
            f"finite inapproachable witness: {rows[witnesses[0]].probe}"
            if witnesses
            else "expected a finite inapproachable witness probe"
        )
    clauses = [
        Clause(
            "every finite probe is approachable",
            all_approachable,
            note,
        ),
        Clause(
            "completion is Heine-Borel",
            s.completion_is_HB,
            "registered metadata",
        ),
    ]
    return HarnessReport(
        space_id=s.space_id,
        claim="finite => approachable iff completion Heine-Borel",
        clauses=clauses,
        probes=rows,
        passed=passed,
        unknown_count=unknown,
    )
