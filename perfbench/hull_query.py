"""hull-query: hull distances and theorem harnesses at the default order and
precision.

Each answer reads one coefficient (a standard part) or a verdict per probe,
yet the library expands every distance to t^8.  The pool mixes
`hull.hull_distance` on cover and rationals-line pairs, every third pair
followed by a copy whose first representative is moved by an infinitesimal
(the shape of acceptance criterion 4), the flagship distance st d((1, t^-1), (t, 0)) = 1,
and `hull.check_theorem_b` / `hull.check_proposition_a` on a probe batch of
every registered space plus its witness.
"""

from __future__ import annotations

import dataclasses
from random import Random

from ihull import hull, lcf, probes, spaces
from ihull.hull import ExtendedPoint
from ihull.intervals import Interval

from common import (
    Query,
    chord_branch,
    design_rng,
    mp_cover_distance,
    redraw,
    require,
    require_contains,
    shifted,
    standard_value,
    warm_caches,
)

COVER_PAIRS = 60
LINE_PAIRS = 8
#: every MOVE_EVERY-th pair also gets a copy with a moved representative
MOVE_EVERY = 3
HARNESS_BATCH = 6
PRECISIONS = (lcf.DEFAULT_PRECISION,)


def _branches(points) -> tuple:
    """The geodesic branch between every two of the points and the basepoint."""
    zs = [p.coords[1] for p in points] + [lcf.zero()]
    return tuple(chord_branch(zs[i], zs[j]) for i in range(len(zs)) for j in range(i))


def _redraw_points(space, design: list[ExtendedPoint], rng: Random) -> list[ExtendedPoint]:
    """Redraw coefficients; on the cover keep every geodesic branch of the
    design (between the points and to the basepoint) so the query's cost class
    stays the design's."""
    pinned = _branches(design) if space.space_id.startswith("cover") else None
    while True:
        points = [space.point(*(redraw(c, rng) for c in p.coords)) for p in design]
        if pinned is None or _branches(points) == pinned:
            return points


def _design_move(point: ExtendedPoint, drng: Random) -> tuple:
    return tuple(
        lcf.scale(probes.random_infinitesimal(drng), probes.random_fraction(drng))
        for _ in point.coords
    )


def _distance_query(space, a, b, base_index, kind) -> Query:
    """`base_index`: position of the unmoved pair's query, for a moved copy."""

    def run():
        return hull.hull_distance(space, hull.halo(space, a), hull.halo(space, b))

    def check(out, outputs):
        require(isinstance(out, Interval), f"not an interval: {out!r}")
        if space.space_id == "cover":
            st = [standard_value(c) for c in a.coords + b.coords]
            require_contains(out, mp_cover_distance(*st), "cover hull distance")
        else:
            exact = abs(standard_value(a.coords[0]) - standard_value(b.coords[0]))
            require(out == Interval.point(exact), f"line hull distance {out} != {exact}")
        if base_index is not None:
            base = outputs.get(base_index)
            if isinstance(base, Interval):
                require(
                    base.intersect(out) is not None,
                    f"moved representative changed the hull distance: {base} vs {out}",
                )

    return Query(
        kind=kind,
        run=run,
        check=check,
        corrupt=shifted,
        enclosures=lambda out: [out],
        terms_read=lambda out: 1,
    )


def _flagship_query() -> Query:
    space = spaces.get_space("cover")
    a = space.point(lcf.one(), lcf.T_INVERSE)
    b = space.point(lcf.T, lcf.zero())

    def run():
        return hull.hull_distance(space, hull.halo(space, a), hull.halo(space, b))

    def check(out, outputs):
        require(out == Interval.point(1), f"st d((1, t^-1), (t, 0)) = {out}, expected 1")

    return Query(
        kind="hull_distance.flagship",
        run=run,
        check=check,
        corrupt=shifted,
        enclosures=lambda out: [out],
        terms_read=lambda out: 1,
    )


def _harness_query(space, batch: list[ExtendedPoint], theorem: str) -> Query:
    if theorem == "theorem-b":
        witness = spaces.inapproachability_witness(space)
        harness = hull.check_theorem_b
    else:
        witness = spaces.incompleteness_witness(space)
        harness = hull.check_proposition_a
    probe_list = batch + ([witness] if witness is not None else [])

    def run():
        return harness(space, probe_list)

    def check(report, outputs):
        require(report.passed, f"{theorem} on {space.space_id} did not pass")
        for row in report.probes[: len(batch)]:
            require(
                row.finite == "true" and row.approachable == "true",
                f"{theorem} on {space.space_id}: probe {row.probe} not finite and approachable",
            )
        if theorem == "theorem-b":
            require(
                report.clauses[0].holds is space.completion_is_HB,
                f"theorem-b on {space.space_id}: wrong 'all approachable' clause",
            )
            if witness is not None:
                row = report.probes[-1]
                require(
                    row.finite == "true" and row.approachable == "false",
                    f"theorem-b on {space.space_id}: witness {row.probe} not flagged",
                )
        elif witness is not None:
            row = report.probes[-1]
            require(
                row.approachable == "true" and row.nearstandard is None,
                f"proposition-a on {space.space_id}: witness {row.probe} not flagged",
            )
        else:
            require(
                all(r.nearstandard is not None for r in report.probes),
                f"proposition-a on {space.space_id}: complete space lacks a standard point",
            )

    def corrupt(report):
        return dataclasses.replace(report, passed=not report.passed)

    return Query(
        kind=f"harness.{theorem}",
        run=run,
        check=check,
        corrupt=corrupt,
        terms_read=lambda report: len(probe_list),
        is_unknown=lambda report: report.unknown_count > 0,
    )


def build(seed: int, tracer=None) -> list[Query]:
    """The pool, shuffled by the seed so that a run which ends inside a pass
    has sampled a random part of it."""
    rng = Random(seed)
    drng = design_rng()
    warm_caches(PRECISIONS)
    specs = []  # (space, a, b, spec of the unmoved pair or None)
    for name, pairs in (("cover", COVER_PAIRS), ("rationals-line", LINE_PAIRS)):
        space = spaces.get_space(name)
        for k in range(pairs):
            design = probes.finite_probes(space, drng, 2)
            a, b = _redraw_points(space, design, rng)
            base = (space, a, b, None)
            specs.append(base)
            if k % MOVE_EVERY == 0:
                move = _design_move(design[0], drng)
                moved = ExtendedPoint(
                    space.space_id,
                    tuple(lcf.add(c, redraw(m, rng)) for c, m in zip(a.coords, move)),
                )
                specs.append((space, moved, b, base))
    others = [_flagship_query()]
    for name in spaces.SPACE_NAMES:
        space = spaces.get_space(name)
        design = probes.finite_probes(space, drng, HARNESS_BATCH)
        batch = [_redraw_points(space, [p], rng)[0] for p in design]
        others += [_harness_query(space, batch, theorem) for theorem in ("theorem-b", "proposition-a")]
    items = specs + others
    rng.shuffle(items)
    position = {id(item): i for i, item in enumerate(items)}
    return [
        item if isinstance(item, Query) else _distance_query(
            item[0],
            item[1],
            item[2],
            None if item[3] is None else position[id(item[3])],
            f"hull_distance.{item[0].space_id}",
        )
        for item in items
    ]
