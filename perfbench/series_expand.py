"""series-expand: full truncated series over order {4, 8, 16} x precision
{32, 64, 128}.

Every term below the order is formatted, so every computed coefficient is
consumed: `lcf.sqrt`, `lcf.inverse`, `lcf.cos_enclosure` with
`lcf.sin_enclosure`, `parsing.parse_expression` on a quotient and on an exact
product, and `cover.cover_distance` returning the whole series.  The cover
distance runs in the order-4 cells only: at order 8 one pair of the design
takes a third of a pass and at order 16 one call takes 10-36 s, so it would
drown the series operations.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from ihull import cover, lcf, parsing, probes, spaces

from common import (
    Query,
    chord_branch,
    design_rng,
    exact_terms,
    mp_cover_distance,
    redraw,
    require,
    require_contains,
    series_encloses,
    shift_constant,
    standard_value,
    warm_caches,
)

ORDERS = (4, 8, 16)
PRECISIONS = (32, 64, 128)
PER_CELL = 5
COVER_PER_CELL = 2


def _positive(drng: Random, rng: Random) -> lcf.LeviCivitaNumber:
    """Positive constant plus an infinitesimal tail of up to three terms."""
    design = lcf.add(lcf.one(), probes.random_infinitesimal(drng, max_terms=3))
    return redraw(design, rng)


def _finite(drng: Random, rng: Random) -> lcf.LeviCivitaNumber:
    return redraw(probes.random_finite(drng), rng)


def _check_text(value: lcf.LeviCivitaNumber, text: str) -> None:
    if value.is_exact:
        require(parsing.parse_number(text) == value, f"{text!r} does not round-trip")
    else:
        inexact = sum(1 for _, c in value.terms if not c.is_exact)
        require(text.count("~") == inexact, f"{text!r} does not show every term")


def _series_query(kind, compute, target_of, order) -> Query:
    """A query whose single series result must enclose a known exact series."""

    def run():
        value = compute()
        return value, parsing.format_number(value)

    def check(out, outputs):
        value, text = out
        _check_text(value, text)
        series_encloses(*target_of(value), order, kind)

    return Query(
        kind=kind,
        run=run,
        check=check,
        corrupt=lambda out: (shift_constant(out[0]), out[1]),
        enclosures=lambda out: [c for _, c in out[0].terms],
        standard_parts=lambda out: [out[0].coefficient(0)],
        terms_read=lambda out: len(out[0].terms),
    )


def _sqrt_query(x, order, precision) -> Query:
    return _series_query(
        "sqrt",
        lambda: lcf.sqrt(x, order, precision),
        lambda s: (lcf.mul(s, s), exact_terms(x)),
        order,
    )


def _inverse_query(x, order) -> Query:
    return _series_query(
        "inverse",
        lambda: lcf.inverse(x, order),
        lambda v: (lcf.mul(x, v), {Fraction(0): Fraction(1)}),
        order,
    )


def _quotient_query(a, b, order, precision) -> Query:
    text = f"({parsing.format_number(a)})/({parsing.format_number(b)})"
    return _series_query(
        "parse.quotient",
        lambda: parsing.parse_expression(text, order, precision),
        lambda v: (lcf.mul(v, b), exact_terms(a)),
        order,
    )


def _product_query(a, b, order, precision) -> Query:
    text = f"({parsing.format_number(a)})*({parsing.format_number(b)})"
    expected: dict = {}
    for qa, ca in exact_terms(a).items():
        for qb, cb in exact_terms(b).items():
            expected[qa + qb] = expected.get(qa + qb, Fraction(0)) + ca * cb
    expected = {q: c for q, c in expected.items() if c != 0}

    def run():
        value = parsing.parse_expression(text, order, precision)
        return value, parsing.format_number(value)

    def check(out, outputs):
        value, text_out = out
        require(value.is_exact, f"exact product {text} gave an enclosure")
        require(exact_terms(value) == expected, f"{text} = {text_out}, expected {expected}")
        _check_text(value, text_out)

    return Query(
        kind="parse.product",
        run=run,
        check=check,
        corrupt=lambda out: (shift_constant(out[0]), out[1]),
        enclosures=lambda out: [c for _, c in out[0].terms],
        standard_parts=lambda out: [out[0].coefficient(0)],
        terms_read=lambda out: len(out[0].terms),
    )


def _cos_sin_query(y, order, precision) -> Query:
    def run():
        c = lcf.cos_enclosure(y, order, precision)
        s = lcf.sin_enclosure(y, order, precision)
        return (c, s), (parsing.format_number(c), parsing.format_number(s))

    def check(out, outputs):
        (c, s), (tc, ts) = out
        _check_text(c, tc)
        _check_text(s, ts)
        unit = lcf.add(lcf.mul(c, c), lcf.mul(s, s))
        series_encloses(unit, {Fraction(0): Fraction(1)}, order, "cos^2 + sin^2")

    return Query(
        kind="cos_sin",
        run=run,
        check=check,
        corrupt=lambda out: ((shift_constant(out[0][0]), out[0][1]), out[1]),
        enclosures=lambda out: [c for v in out[0] for _, c in v.terms],
        standard_parts=lambda out: [v.coefficient(0) for v in out[0]],
        terms_read=lambda out: sum(len(v.terms) for v in out[0]),
    )


def _cover_query(a, b, order, precision) -> Query:
    def run():
        value = cover.cover_distance(a, b, order, precision)
        return value, parsing.format_number(value)

    def check(out, outputs):
        value, text = out
        _check_text(value, text)
        st = [standard_value(x) for x in (a.r, a.zeta, b.r, b.zeta)]
        require_contains(value.coefficient(0), mp_cover_distance(*st), "cover distance")
        if chord_branch(a.zeta, b.zeta):  # d^2 = r1^2 + r2^2 - 2 r1 r2 cos(dz)
            dz = lcf.sub(a.zeta, b.zeta)
            cos_dz = lcf.cos_enclosure(dz, order, precision + 64)
            squared = lcf.sub(
                lcf.add(lcf.mul(a.r, a.r), lcf.mul(b.r, b.r)),
                lcf.scale(lcf.mul(lcf.mul(a.r, b.r), cos_dz), 2),
            )
            d2 = lcf.mul(value, value)
            limit = min(d2.order, squared.order, order)
            for q in {q for q, _ in d2.terms} | {q for q, _ in squared.terms}:
                if q < limit:
                    require(
                        d2.coefficient(q).intersect(squared.coefficient(q)) is not None,
                        f"d^2 misses the chord formula at t^{q}",
                    )

    return Query(
        kind="cover_distance",
        run=run,
        check=check,
        corrupt=lambda out: (shift_constant(out[0]), out[1]),
        enclosures=lambda out: [c for _, c in out[0].terms],
        standard_parts=lambda out: [out[0].coefficient(0)],
        terms_read=lambda out: len(out[0].terms),
    )


def _cover_pair(drng: Random, rng: Random):
    """A cover pair on the design's geodesic branch."""
    space = spaces.get_space("cover")
    design = [cover.CoverPoint(*p.coords) for p in probes.finite_probes(space, drng, 2)]
    branch = chord_branch(design[0].zeta, design[1].zeta)
    while True:
        a, b = (cover.CoverPoint(redraw(p.r, rng), redraw(p.zeta, rng)) for p in design)
        if chord_branch(a.zeta, b.zeta) == branch:
            return a, b


def build(seed: int, tracer=None) -> list[Query]:
    rng = Random(seed)
    drng = design_rng()
    warm_caches(PRECISIONS + tuple(p + 64 for p in PRECISIONS))
    queries: list[Query] = []
    for order in ORDERS:
        for precision in PRECISIONS:
            for _ in range(PER_CELL):
                queries.append(_sqrt_query(_positive(drng, rng), order, precision))
                queries.append(_inverse_query(_positive(drng, rng), order))
                queries.append(_cos_sin_query(_finite(drng, rng), order, precision))
                queries.append(
                    _quotient_query(_finite(drng, rng), _positive(drng, rng), order, precision)
                )
            queries.append(
                _product_query(_finite(drng, rng), _finite(drng, rng), order, precision)
            )
            if order == ORDERS[0]:
                for _ in range(COVER_PER_CELL):
                    queries.append(_cover_query(*_cover_pair(drng, rng), order, precision))
    return queries
