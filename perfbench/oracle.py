"""oracle: the float grid oracle against the closed form.

numpy and scipy do nearly all the work: a pair spends about half its time
building the grid graph and most of the rest in Dijkstra, and about 1 ms in
exact arithmetic.  A change to `lcf` should not move this workload; a change
to `gridoracle` shows here only.

The pool holds pairs in the shape of acceptance criterion 5 (closed-form
`cover.cover_distance` at standard points plus `gridoracle.oracle_distance`
on a 256x256 8-neighbor+knight grid) and one-source/100-target
`gridoracle.oracle_distances` batches in the shape of criterion 2.
"""

from __future__ import annotations

import statistics
from fractions import Fraction as F
from random import Random

from ihull import cover, gridoracle, lcf

from common import Query, require, require_contains, mp_cover_distance, warm_caches

PAIRS = 60
BATCHES = 4
BATCH_TARGETS = 100
MAX_GAP = 0.08
MAX_MEDIAN_GAP = 0.03
#: Oracle edges over-bound the geodesic; allow float rounding below it.
_FLOAT_SLACK = 1e-9


def _closed(a: cover.CoverPoint, b: cover.CoverPoint) -> float:
    return float(lcf.standard_part(cover.cover_distance(a, b)).midpoint)


def _pair_query(rng: Random, gaps: dict, index: int) -> Query:
    r1, r2 = F(rng.randint(50, 200), 100), F(rng.randint(50, 200), 100)
    z1 = F(rng.randint(0, 800), 100)
    z2 = z1 + F(rng.choice([-1, 1]) * rng.randint(0, 800), 100)
    a, b = cover.point(r1, z1), cover.point(r2, z2)
    fa, fb = (float(r1), float(z1)), (float(r2), float(z2))

    def run():
        st = lcf.standard_part(cover.cover_distance(a, b))
        cfg = gridoracle.window_for([fa, fb], n_r=256, n_zeta=256, connectivity="8-neighbor+knight")
        return st, gridoracle.oracle_distance(cfg, fa, fb)

    def check(out, outputs):
        st, approx = out
        require_contains(st, mp_cover_distance(r1, z1, r2, z2), "closed form")
        closed = float(st.midpoint)
        require(approx >= closed * (1 - _FLOAT_SLACK), f"oracle {approx} below closed form {closed}")
        gap = abs(approx - closed) / closed if closed else 0.0
        require(gap <= MAX_GAP, f"oracle gap {gap:.4f} > {MAX_GAP}")
        gaps[index] = gap
        if len(gaps) == PAIRS:
            median = statistics.median(gaps.values())
            require(median <= MAX_MEDIAN_GAP, f"median oracle gap {median:.4f} > {MAX_MEDIAN_GAP}")

    return Query(
        kind="oracle.pair",
        run=run,
        check=check,
        corrupt=lambda out: (out[0], out[1] * 0.9),
        enclosures=lambda out: [out[0]],
        terms_read=lambda out: 1,
    )


def _batch_query(rng: Random) -> Query:
    center = cover.point(lcf.one(), lcf.T_INVERSE)
    source = (1.0, 50.0)  # the standard stand-in for the infinite angle
    witnesses = []
    while len(witnesses) < BATCH_TARGETS:
        zeta = F(rng.randint(-10000, 10000), 100)
        if abs(zeta - 50) >= 2:  # outside the stand-in's own rectangle
            witnesses.append((F(rng.randint(50, 200), 100), zeta))
    targets = [(float(r), float(z)) for r, z in witnesses]
    cfg = gridoracle.window_for([source] + targets, n_r=96, n_zeta=1024)

    def run():
        return gridoracle.oracle_distances(cfg, source, targets)

    def check(out, outputs):
        require(len(out) == len(witnesses), "one distance per target")
        source_point = cover.point(1, 50)
        for (r, z), d in zip(witnesses, out):
            q = cover.point(r, z)
            bound = cover.inapproachability_lower_bound(center, q)
            require(d > bound, f"oracle distance {d} to {(r, z)} not above {bound}")
            closed = _closed(source_point, q)
            require(d >= closed * (1 - _FLOAT_SLACK), f"oracle {d} below closed form {closed}")

    return Query(
        kind="oracle.batch",
        run=run,
        check=check,
        corrupt=lambda out: [d * 0.5 for d in out],
    )


def build(seed: int, tracer=None) -> list[Query]:
    rng = Random(seed)
    warm_caches((lcf.DEFAULT_PRECISION,))
    gaps: dict = {}
    queries = [_pair_query(rng, gaps, i) for i in range(PAIRS)]
    step = PAIRS // BATCHES
    for k in range(BATCHES):
        queries.insert((k + 1) * step + k, _batch_query(rng))
    return queries
