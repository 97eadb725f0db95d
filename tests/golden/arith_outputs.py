"""Seeded exact results of the arithmetic, for comparing two trees byte for byte.

    PYTHONPATH=src python tests/golden/arith_outputs.py > tests/golden/arith-outputs.json

`results()` draws numbers from `SEED` and records, with every endpoint
exact, `lcf.add`, `mul`, `inverse`, `sqrt`, `cos_enclosure` and
`sin_enclosure`, `cover.cover_distance` on the chord and the through-origin
branch, and `hull.hull_distance` on every registered space, at each order
in `ORDERS` and precision in `PRECISIONS` the operation takes.  An
exception is recorded by its class name.  The file is not named test_*, so
pytest does not collect it; `tests/test_arith_golden.py` compares `results()`
with the JSON file.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from ihull import cover, hull, lcf, spaces
from ihull.intervals import Interval

SEED = 1
ORDERS = (2, 4, 8)
PRECISIONS = (32, 64)
#: numbers drawn per operation and (order, precision) cell
DRAWS = 3

_EXPONENTS = tuple(Fraction(n, d) for d in (1, 2, 3) for n in range(1, 3 * d))


def _rational(rng: random.Random, bits: int = 16) -> Fraction:
    return Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits))


def _coefficient(rng: random.Random) -> Interval:
    """A point two times in three, else an interval of width up to 2^-20."""
    q = _rational(rng)
    if rng.random() < 2 / 3:
        return Interval.point(q)
    return Interval(q, q + Fraction(rng.randint(1, 1 << 10), 1 << 30))


def _number(rng: random.Random, constant: Interval | None = None, lead=Fraction(0)):
    """`constant` t^lead (a drawn coefficient when None) plus up to three
    terms above it, exact or truncated at lead + 3."""
    c = _coefficient(rng) if constant is None else constant
    terms = [(lead, c)] + [(lead + q, _coefficient(rng)) for q in rng.sample(_EXPONENTS, 3)]
    terms = terms[: rng.randint(1, 4)]
    order = lcf.INFINITE_ORDER if rng.random() < 0.5 else lead + 3
    return lcf.LeviCivitaNumber(terms, order)


def _positive(rng: random.Random, bound: int = 1 << 16) -> Interval:
    return Interval.point(Fraction(rng.randint(1, bound), rng.randint(1, 1 << 16)))


def _angle(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo << 20, hi << 20), 1 << 20)


def _interval_text(c: Interval) -> list[str]:
    return [str(c.lo), str(c.hi)]


def _value(x) -> dict:
    if isinstance(x, Interval):
        return {"interval": _interval_text(x)}
    return {
        "exact": x.is_exact,
        "order": None if x.order is lcf.INFINITE_ORDER else str(x.order),
        "terms": [[str(q), *_interval_text(c)] for q, c in x.terms],
    }


def _record(op: str, args, run, order=None, precision=None) -> dict:
    try:
        result = _value(run())
    except Exception as exc:  # the class is the recorded result
        result = {"raises": type(exc).__name__}
    return {
        "op": op,
        "order": None if order is None else str(order),
        "precision": precision,
        "args": [_value(a) for a in args],
        "result": result,
    }


def _cover_point(rng: random.Random, zeta: Fraction) -> cover.CoverPoint:
    r = _number(rng, _positive(rng))
    return cover.CoverPoint(r, _number(rng, Interval.point(zeta)))


def _space_points(rng: random.Random, name: str) -> list:
    if name == "rationals-line":
        return [(_number(rng),) for _ in range(2)]
    if name == "euclidean-plane":
        return [(_number(rng), _number(rng)) for _ in range(2)]
    zetas = (_angle(rng, -1, 1), _angle(rng, -1, 1) + 4 * rng.randint(0, 1))
    return [(_number(rng, _positive(rng)), _number(rng, Interval.point(z))) for z in zetas]


def results() -> list[dict]:
    rng = random.Random(SEED)
    out = []
    for _ in range(2 * DRAWS):
        a, b = _number(rng), _number(rng, lead=rng.choice((-1, 0, 1)))
        out.append(_record("add", (a, b), lambda: lcf.add(a, b)))
        out.append(_record("mul", (a, b), lambda: lcf.mul(a, b)))
    for order in ORDERS:
        for _ in range(DRAWS):
            a = _number(rng, lead=rng.choice((-1, 0, Fraction(1, 2))))
            out.append(_record("inverse", (a,), lambda: lcf.inverse(a, order), order))
        for precision in PRECISIONS:
            for _ in range(DRAWS):
                a = _number(rng, _positive(rng), lead=rng.choice((-1, 0, Fraction(1, 3))))
                s = _number(rng, Interval.point(_angle(rng, -8, 8)))
                out.append(_record("sqrt", (a,), lambda: lcf.sqrt(a, order, precision), order, precision))
                out.append(_record("cos", (s,), lambda: lcf.cos_enclosure(s, order, precision), order, precision))
                out.append(_record("sin", (s,), lambda: lcf.sin_enclosure(s, order, precision), order, precision))
            for zeta in (_angle(rng, -1, 1), _angle(rng, 4, 6)):  # chord, through the origin
                p, q = _cover_point(rng, zeta), _cover_point(rng, Fraction(0))
                out.append(_record(
                    "cover_distance", (p.r, p.zeta, q.r, q.zeta),
                    lambda: cover.cover_distance(p, q, order, precision), order, precision,
                ))
            for name in spaces.SPACE_NAMES:
                space = spaces.get_space(name, order, precision)
                a, b = (space.point(*coords) for coords in _space_points(rng, name))
                out.append(_record(
                    f"hull_distance {name}", a.coords + b.coords,
                    lambda: hull.hull_distance(space, a, b), order, precision,
                ))
    return out


def dumps(records: list[dict]) -> str:
    """One record per line."""
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


if __name__ == "__main__":
    print(dumps(results()), end="")
