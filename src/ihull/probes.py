"""Seeded random generators for probe points and field values.

Everything here is exact (rational coefficients, no enclosures) so that
harness verdicts are decidable and runs are reproducible from a seed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from . import lcf
from .hull import ExtendedPoint, SpaceDescriptor
from .lcf import LeviCivitaNumber

#: Exponent pool for generated terms: small rationals with denominators 1-3.
_EXPONENTS = [
    Fraction(n, d) for d in (1, 2, 3) for n in range(-2 * d, 4 * d + 1) if Fraction(n, d) != 0
]


def random_fraction(rng: Random, bound: int = 9) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_nonzero_fraction(rng: Random, bound: int = 9) -> Fraction:
    while True:
        q = random_fraction(rng, bound)
        if q != 0:
            return q


def random_exact(
    rng: Random,
    max_terms: int = 3,
    min_exponent: Fraction | None = None,
) -> LeviCivitaNumber:
    """A random exact value; optionally bounded below in exponent."""
    pool = [q for q in _EXPONENTS if min_exponent is None or q >= min_exponent]
    # no draw for a value bounded above exponent 0: it has no constant term
    include_constant = (min_exponent is None or min_exponent <= 0) and rng.random() < 0.6
    exponents = rng.sample(pool, k=min(rng.randint(0, max_terms), len(pool)))
    terms = [(q, random_nonzero_fraction(rng)) for q in exponents]
    if include_constant:
        terms.append((Fraction(0), random_nonzero_fraction(rng)))
    else:
        terms = [(q, c) for q, c in terms if q != 0]
    return LeviCivitaNumber(tuple(terms))


def random_finite(rng: Random) -> LeviCivitaNumber:
    """A random exact finite value (possibly zero, possibly infinitesimal)."""
    return random_exact(rng, 3, min_exponent=Fraction(0))


def random_infinitesimal(rng: Random, max_terms: int = 2) -> LeviCivitaNumber:
    value = random_exact(rng, max_terms, min_exponent=Fraction(1, 3))
    if not value.terms:
        return lcf.t_power(rng.randint(1, 3))
    return value


def random_appreciable_positive(rng: Random) -> LeviCivitaNumber:
    """Exponent-0 coefficient in (0, 5], plus an infinitesimal tail."""
    constant = Fraction(rng.randint(1, 20), rng.randint(1, 4))
    value = lcf.from_rational(constant)
    if rng.random() < 0.5:
        value = lcf.add(value, lcf.scale(random_infinitesimal(rng), random_fraction(rng)))
    return value


def line_probe(space: SpaceDescriptor, rng: Random) -> ExtendedPoint:
    return space.point(random_finite(rng))


def plane_probe(space: SpaceDescriptor, rng: Random) -> ExtendedPoint:
    return space.point(random_finite(rng), random_finite(rng))


def cover_probe(space: SpaceDescriptor, rng: Random) -> ExtendedPoint:
    """A galaxy point of the cover: appreciable r, finite zeta."""
    return space.point(random_appreciable_positive(rng), random_finite(rng))


def finite_probes(
    space: SpaceDescriptor, rng: Random, count: int
) -> list[ExtendedPoint]:
    maker = {
        "rationals-line": line_probe,
        "euclidean-plane": plane_probe,
        "cover": cover_probe,
        "cover-completion": cover_probe,
    }[space.space_id]
    return [maker(space, rng) for _ in range(count)]
