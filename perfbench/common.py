"""Pieces shared by the workloads: the query record, input redrawing and the
independent reference values used by the output checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Any, Callable

from ihull import lcf, probes
from ihull.errors import BranchIndeterminate, IndeterminateComparison
from ihull.intervals import Interval, pi_interval

#: Seed of the fixed design: which exponents each generated value carries, the
#: bit lengths of its coefficients and which geodesic branch each cover pair
#: takes.  The run's `--seed` draws every coefficient value.  The cost of one
#: query varies by four orders of magnitude with the exponent lattice of its
#: inputs, so drawing the lattice from the run seed would make the sampled
#: mix, not the program, dominate the spread between runs.
DESIGN_SEED = 2002_07536

#: Exceptions that are sound "unknown" answers rather than failures.
UNKNOWN_ERRORS = (IndeterminateComparison, BranchIndeterminate)


class CheckFailed(Exception):
    """An output check found a wrong answer."""


class Unknown:
    """Marker output for a query answered soundly but indeterminately."""

    def __init__(self, reason: str):
        self.reason = reason


@dataclass
class Query:
    """One closed-loop request: a call into a public ihull function.

    `run` returns the output.  `check(output, outputs)` raises CheckFailed
    when the output is wrong; `outputs` maps each query index to its first
    output, for checks that relate two queries.  `corrupt` returns a wrong
    variant of a correct output, which the self-test feeds back to `check`.
    `enclosures` lists every interval the answer reports and
    `standard_parts` the t^0 ones among them (default: all of them);
    `terms_read` counts the series coefficients the answer consumes.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], None]
    corrupt: Callable[[Any], Any]
    enclosures: Callable[[Any], list] = lambda out: []
    standard_parts: Callable[[Any], list] | None = None
    terms_read: Callable[[Any], int] = lambda out: 0
    is_unknown: Callable[[Any], bool] = lambda out: False


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _bits(q: Fraction) -> tuple[int, int]:
    return abs(q.numerator).bit_length(), q.denominator.bit_length()


def _redraw_fraction(q: Fraction, rng: Random) -> Fraction:
    """A fraction from `probes.random_nonzero_fraction` with the sign and the
    numerator and denominator bit lengths of `q`."""
    bound = max(9, abs(q.numerator), q.denominator)
    while True:
        v = abs(probes.random_nonzero_fraction(rng, bound))
        if _bits(v) == _bits(q):
            return v if q > 0 else -v


def redraw(x: lcf.LeviCivitaNumber, rng: Random) -> lcf.LeviCivitaNumber:
    """`x` with the same exponents, signs and coefficient bit lengths, and
    coefficient values drawn from `rng`."""
    return lcf.LeviCivitaNumber(
        tuple((q, _redraw_fraction(c.lo, rng)) for q, c in x.terms)
    )


def design_rng() -> Random:
    return Random(DESIGN_SEED)


def standard_value(x: lcf.LeviCivitaNumber) -> Fraction:
    """The exact standard part of an exact finite value."""
    return lcf.standard_part(x).lo


def chord_branch(za: lcf.LeviCivitaNumber, zb: lcf.LeviCivitaNumber) -> bool | None:
    """Whether the cover geodesic between angles `za`, `zb` (exact, finite)
    is the chord (|st dz| < pi); None if the default precision cannot tell."""
    gap = abs(standard_value(za) - standard_value(zb))
    pi = pi_interval(lcf.DEFAULT_PRECISION)
    if gap < pi.lo:
        return True
    return False if gap > pi.hi else None


def warm_caches(precisions) -> None:
    for p in precisions:
        pi_interval(p)


# ---------------------------------------------------------------------------
# reference values and measurements of answers
# ---------------------------------------------------------------------------

_TOLERANCE_BITS = 200


def mp_cover_distance(r1: Fraction, z1: Fraction, r2: Fraction, z2: Fraction):
    """Cover distance between standard points at 256 bits, by mpmath."""
    import mpmath

    with mpmath.workprec(256):
        f = lambda q: mpmath.mpf(q.numerator) / q.denominator
        dz = f(z1) - f(z2)
        if abs(dz) >= mpmath.pi:
            return f(r1) + f(r2)
        a, b = f(r1), f(r2)
        return mpmath.sqrt(a * a + b * b - 2 * a * b * mpmath.cos(dz))


def require_contains(enclosure: Interval, reference, what: str) -> None:
    """`enclosure` contains the mpmath `reference` up to 2^-200."""
    import mpmath

    with mpmath.workprec(256):
        f = lambda q: mpmath.mpf(q.numerator) / q.denominator
        tol = mpmath.mpf(2) ** -_TOLERANCE_BITS
        ok = f(enclosure.lo) - tol <= reference <= f(enclosure.hi) + tol
    require(ok, f"{what}: {enclosure} excludes reference {mpmath.nstr(reference, 20)}")


def shifted(enclosure: Interval, delta: Fraction = Fraction(1, 1 << 20)) -> Interval:
    """An enclosure moved off its value by more than its width."""
    step = enclosure.width + delta
    return Interval(enclosure.lo + step, enclosure.hi + step)


def enclosure_bits(enclosure: Interval) -> float | None:
    """-log2(width), or None for an exact value."""
    width = enclosure.width
    if width == 0:
        return None
    return math.log2(width.denominator) - math.log2(width.numerator)


def endpoint_bits(enclosure: Interval) -> int:
    return max(
        q.numerator.bit_length() + q.denominator.bit_length()
        for q in (enclosure.lo, enclosure.hi)
    )


def series_encloses(
    value: lcf.LeviCivitaNumber, target: dict, order, what: str
) -> None:
    """Every coefficient of `target` (exponent -> Fraction) below `order` and
    below `value`'s truncation order lies in `value`'s coefficient."""
    limit = min(value.order, order)
    exponents = {q for q, _ in value.terms} | set(target)
    for q in sorted(e for e in exponents if e < limit):
        want = target.get(q, Fraction(0))
        require(
            want in value.coefficient(q),
            f"{what}: coefficient of t^{q} is {value.coefficient(q)}, expected {want}",
        )


def exact_terms(x: lcf.LeviCivitaNumber) -> dict:
    return {q: c.lo for q, c in x.terms}


def shift_constant(x: lcf.LeviCivitaNumber) -> lcf.LeviCivitaNumber:
    """`x` with its t^0 coefficient moved by more than its width."""
    c = x.coefficient(0)
    moved = shifted(c, Fraction(1, 1 << 10))
    terms = tuple((q, v) for q, v in x.terms if q != 0) + ((Fraction(0), moved),)
    return lcf.LeviCivitaNumber(terms, x.order)
