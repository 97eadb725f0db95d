"""Rational interval arithmetic and the rigorous enclosures."""

import copy
import pickle
from fractions import Fraction as F
from random import Random

import pytest

from ihull import intervals, lcf
from ihull.errors import NotPositive, ZeroOrUnknownLeading
from ihull.intervals import Interval, pi_interval, reduce_angle
from ihull.parsing import parse_number
from kernels import cos_sin_interval, sqrt_interval

# reference digits, frozen from an independent high-precision evaluation
SQRT2 = F(14142135623730950488016887242096980785696, 10**40)
PI = F(31415926535897932384626433832795028841971, 10**40)
COS1 = F(5403023058681397174009366074429766037323, 10**40)
SIN1 = F(8414709848078965066525023216302989996225, 10**40)


def assert_value_record(value, same, other, fields, text):
    """`value` behaves as the frozen dataclass it was: `same` is an equal
    record built apart, `other` an unequal one, `fields` its field names and
    `text` the dataclass's repr of it."""
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value is not same and value == same and hash(value) == hash(same)
    assert value != other
    assert value != tuple(getattr(value, name) for name in fields)
    assert repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value and copy.copy(value) == value


def test_interval_and_number_are_value_records():
    assert_value_record(
        Interval(1, 2), Interval(F(1), F(2)), Interval(1, 3), ("lo", "hi"),
        "Interval(lo=Fraction(1, 1), hi=Fraction(2, 1))",
    )
    x = parse_number("1 + 2t^1/2 + O(t^3)")
    assert_value_record(
        x, parse_number("2t^1/2 + 1 + O(t^3)"), parse_number("1 + O(t^3)"),
        ("denominator", "pairs", "order"), "LeviCivitaNumber(1 + 2t^1/2 + O(t^3))",
    )


def test_interval_invariant():
    with pytest.raises(ValueError):
        Interval(F(1), F(0))


def test_interval_arithmetic():
    a = Interval(F(1), F(2))
    b = Interval(F(-1), F(3))
    assert a + b == Interval(F(0), F(5))
    assert a - b == Interval(F(-2), F(3))
    assert a * b == Interval(F(-2), F(6))
    assert (-a) == Interval(F(-2), F(-1))
    assert a * Interval.point(-2) == Interval(F(-4), F(-2))
    assert Interval(1 / a.hi, 1 / a.lo) == Interval(F(1, 2), F(1))
    assert a.intersect(b) == Interval(F(1), F(2))
    assert Interval(F(2), F(3)).intersect(Interval(F(4), F(5))) is None


def test_interval_predicates():
    assert Interval.point(3).is_exact
    assert Interval(F(0), F(0)).is_zero
    assert 0 in Interval(F(0), F(1))
    assert F(1, 2) in Interval(F(0), F(1))
    with pytest.raises(ZeroOrUnknownLeading):  # the reciprocal of an interval holding 0
        lcf.inverse(lcf.from_interval(Interval(F(-1), F(1))))


def _reference_arithmetic(x, y):
    """x + y, x * y and x * [y.lo, y.lo] as Interval computed them on Fraction
    endpoints, deciding exactness by Fraction ==, each as (lo, hi)."""
    def scale(a, f):
        if a.lo == a.hi:
            p = a.lo * f
            return p, p
        return (a.lo * f, a.hi * f) if f >= 0 else (a.hi * f, a.lo * f)

    def mul(a, b):
        if a.lo == a.hi:
            return scale(b, a.lo)
        if b.lo == b.hi:
            return scale(a, b.lo)
        products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        return min(products), max(products)

    def add(a, b):
        if a.lo == a.hi:
            lo = a.lo + b.lo
            return (lo, lo) if b.lo == b.hi else (lo, a.lo + b.hi)
        return a.lo + b.lo, a.hi + b.hi

    return x.lo == x.hi, [add(x, y), mul(x, y), scale(x, y.lo)]


def test_exactness_is_decided_without_fraction_equality(monkeypatch):
    # points, equal endpoints given as distinct Fraction objects, zeros,
    # intervals straddling, touching and avoiding 0
    rng = Random(29)
    cases = [Interval.point(F(3, 4)), Interval(F(3, 4), F(6, 8)), Interval(F(0), F(0))]
    for _ in range(30):
        n, d = rng.randint(-9, 9), rng.randint(1, 9)
        lo = F(n, d)
        hi = rng.choice([lo, F(n, d), F(2 * n, 2 * d), lo + F(rng.randint(1, 9), rng.randint(1, 9))])
        cases.append(Interval(lo, hi))
    want = [[_reference_arithmetic(x, y) for y in cases] for x in cases]
    calls, equal = 0, F.__eq__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return equal(a, b)

    monkeypatch.setattr(F, "__eq__", counted)
    got = [
        [(x.is_exact, [x + y, x * y, x * Interval.point(y.lo)]) for y in cases]
        for x in cases
    ]
    monkeypatch.undo()
    assert calls == 0
    assert [[(e, [(r.lo, r.hi) for r in rs]) for e, rs in row] for row in got] == want
    # an exact result stores L == H in its triple, any other result L < H
    assert all((r.lo_num == r.hi_num) == (r.lo == r.hi) for row in got for _, rs in row for r in rs)


def test_sqrt_bounds_enclose_and_width():
    root = sqrt_interval(Interval.point(F(2)), 64)
    assert root.lo < SQRT2 < root.hi
    assert root.hi - root.lo <= F(1, 2**64)


def test_sqrt_bounds_exact_on_perfect_squares():
    for x, p in ((F(4), F(2)), (F(9, 4), F(3, 2)), (F(0), F(0))):
        root = sqrt_interval(Interval.point(x), 16)
        assert (root.lo, root.hi) == (p, p)


def test_sqrt_refinement_nested():
    outer = sqrt_interval(Interval.point(F(2)), 8)
    inner = sqrt_interval(Interval.point(F(2)), 80)
    assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_sqrt_interval_requires_nonnegative():
    with pytest.raises(NotPositive):
        sqrt_interval(Interval(F(-1), F(1)), 16)
    enc = sqrt_interval(Interval(F(2), F(3)), 64)
    assert enc.lo < SQRT2 and enc.hi > F(17, 10)


def test_pi_enclosure():
    enc = pi_interval(64)
    assert enc.lo < PI < enc.hi
    assert enc.width <= F(1, 2**64)
    rough = pi_interval(5)
    assert 3 < rough.lo and rough.hi < 4


def test_pi_enclosure_at_the_least_precision():
    rough = pi_interval(1)
    assert rough.lo < PI < rough.hi and rough.width <= F(1, 2)
    with pytest.raises(ValueError):
        pi_interval(0)


def test_pi_refinement_nested():
    assert pi_interval(2).intersect(pi_interval(20)) == pi_interval(20)
    assert pi_interval(20).intersect(pi_interval(120)) == pi_interval(120)
    two_pi = [pi_interval(p + 1) * Interval.point(2) for p in (10, 50)]
    assert two_pi[0].intersect(two_pi[1]) == two_pi[1]


def test_cos_sin_rational_points():
    c, s = cos_sin_interval(Interval.point(1), 64)
    assert c.lo < COS1 < c.hi and c.width <= F(1, 2**62)
    assert s.lo < SIN1 < s.hi
    assert cos_sin_interval(Interval.point(0), 64) == (Interval.point(1), Interval.point(0))


def test_cos_sin_negative_and_large_arguments():
    c, s = cos_sin_interval(Interval.point(-1), 64)
    assert c.lo < COS1 < c.hi  # cos is even
    assert -SIN1 in s
    # cos(50) = 0.9649660284921132740...; the series must still converge tightly
    c50, _ = cos_sin_interval(Interval.point(50), 64)
    assert F(9649660284921132740689571, 10**25) in c50
    assert c50.width <= F(1, 2**62)


def test_cos_clamped_to_unit_range():
    c, _ = cos_sin_interval(Interval(F(-1), F(1)), 8)
    assert c.hi <= 1


def test_cos_interval_input_padding():
    wide = Interval(F(9, 10), F(11, 10))
    c, _ = cos_sin_interval(wide, 64)
    assert COS1 in c  # cos(1) for 1 inside the input interval
    assert c.width <= wide.width + F(1, 2**60)


def test_cos_refinement_nested():
    outer, _ = cos_sin_interval(Interval.point(1), 16)
    inner, _ = cos_sin_interval(Interval.point(1), 96)
    assert outer.intersect(inner) == inner


def test_enclosures_contain_mpmath_intervals():
    # an independent check: mpmath's own interval arithmetic at 320 bits
    # encloses each true value in a far narrower interval, which ours must hold
    mpmath = pytest.importorskip("mpmath")
    iv = mpmath.iv

    def as_interval(x) -> Interval:
        lo, hi = (F(*mpmath.libmp.to_rational(end)) for end in x._mpi_)
        return Interval(lo, hi)

    def reference(f, q: F) -> Interval:
        return as_interval(f(iv.mpf(q.numerator) / q.denominator))

    rng = Random(2718)
    denominators = rng.choices((1, 7, 1000, 2**40), k=24)
    xs = [F(rng.randint(-100 * d, 100 * d), d) for d in denominators]
    saved, iv.prec = iv.prec, 320
    try:
        for precision in (64, 256):
            pi = as_interval(iv.pi)
            assert pi_interval(precision).intersect(pi) == pi
            for x in xs:
                root = sqrt_interval(Interval.point(abs(x)), precision)
                root_ref = reference(iv.sqrt, abs(x))
                assert root.intersect(root_ref) == root_ref, x
                c, s = cos_sin_interval(Interval.point(x), precision)
                cos_ref, sin_ref = reference(iv.cos, x), reference(iv.sin, x)
                assert c.intersect(cos_ref) == cos_ref, x
                assert s.intersect(sin_ref) == sin_ref, x
    finally:
        iv.prec = saved


def _near_multiple_of_pi(k: int, bits: int = 100) -> F:
    """The dyadic with `bits` fraction bits nearest k*pi."""
    pi = pi_interval(bits + k.bit_length() + 8)
    return F(round(pi.midpoint * k * 2**bits), 2**bits)


#: Arguments for the cos/sin kernel: a few values per magnitude, on lattices
#: up to 2^-40, and within 2^-100 of multiples of pi, where the reduced
#: argument's enclosure straddles 0 or pi.
_rng = Random(3000)
KERNEL_ARGUMENTS = [
    F(_rng.randint(-m * d, m * d), d)
    for m in (1, 10, 10**6, 10**30)
    for d in (1, 7, 2**40)
    for _ in range(2)
] + [_near_multiple_of_pi(k) for k in (1, 2, 3, -5, 10**6 + 1)]


def test_cos_sin_contain_mpmath_intervals_at_large_arguments():
    mpmath = pytest.importorskip("mpmath")
    iv = mpmath.iv

    def as_interval(x) -> Interval:
        lo, hi = (F(*mpmath.libmp.to_rational(end)) for end in x._mpi_)
        return Interval(lo, hi)

    saved = iv.prec
    try:
        for x in KERNEL_ARGUMENTS:
            # 320 bits after the binary point, whatever the integer part
            iv.prec = 320 + abs(int(x)).bit_length()
            arg = iv.mpf(x.numerator) / x.denominator
            cos_ref, sin_ref = as_interval(iv.cos(arg)), as_interval(iv.sin(arg))
            for precision in (16, 64, 256):
                c, s = cos_sin_interval(Interval.point(x), precision)
                assert c.intersect(cos_ref) == cos_ref and s.intersect(sin_ref) == sin_ref, x
                assert max(c.width, s.width) <= F(1, 2**precision), x
    finally:
        iv.prec = saved


def test_cos_sin_nested_for_every_pair_of_precisions():
    # nesting is claimed for every p < q; the proof is tightest at q = p + 1
    for x in KERNEL_ARGUMENTS[::3] + KERNEL_ARGUMENTS[-5:]:
        enclosures = [cos_sin_interval(Interval.point(x), p) for p in range(1, 81)]
        for i, (c_p, s_p) in enumerate(enclosures):
            for c_q, s_q in enclosures[i + 1:]:
                assert c_p.intersect(c_q) == c_q and s_p.intersect(s_q) == s_q, x


def test_cos_sin_nested_at_the_widest_admissible_raw_enclosures(monkeypatch):
    # The width check admits raw enclosures of half-width g with the value at
    # either end.  Put it at the lower end at even working precisions and at
    # the upper end at odd ones: the 4g radius must still nest.
    exact = intervals._fixed_cos_sin

    def widest(x, w, bits):
        g = 1 << (w - bits)
        ends = []
        for lo, hi in exact(x, w + 64, bits):
            lo, hi = lo >> 64, -(-hi >> 64)  # still around the value, in units 2^-w
            ends.append((lo, lo + 2 * g) if bits % 2 == 0 else (hi - 2 * g, hi))
        return tuple(ends)

    monkeypatch.setattr(intervals, "_fixed_cos_sin", widest)
    for x in (F(1), F(-2, 3), F(10**6), _near_multiple_of_pi(3)):
        enclosures = [cos_sin_interval(Interval.point(x), p) for p in range(1, 41)]
        for (c_p, s_p), (c_q, s_q) in zip(enclosures, enclosures[1:]):
            assert c_p.intersect(c_q) == c_q and s_p.intersect(s_q) == s_q, x


def test_cos_cost_does_not_grow_with_the_argument(monkeypatch):
    # cost proxy: the working bits of the fixed-point evaluation; without a
    # reduction they would grow like 1.44 |x|
    working = []
    kernel = intervals._fixed_cos_sin

    def counted(x, w, bits):
        working.append(w)
        return kernel(x, w, bits)

    monkeypatch.setattr(intervals, "_fixed_cos_sin", counted)

    def cost(x) -> int:
        working.clear()
        cos_sin_interval(Interval.point(F(x)), 64)
        return sum(working)

    assert cost(10**6) <= 3 * cost(10)
    assert cost(10**30) <= 3 * cost(10)


def test_cos_sin_width_check_runs_once(monkeypatch):
    # an argument enclosure wider than 2g, as a reduction that broke its width
    # bound would give, fails the one width check, naming the argument
    guards = []
    kernel = intervals._fixed_cos_sin

    def counted(x, w, bits):
        guards.append(w - bits)
        return kernel(x, w, bits)

    monkeypatch.setattr(intervals, "reduce_angle", lambda x, p: Interval(F(0), F(1, 2**40)))
    monkeypatch.setattr(intervals, "_fixed_cos_sin", counted)
    with pytest.raises(AssertionError, match=r"^cos/sin of 10: raw enclosure wider than 2g"):
        cos_sin_interval(Interval.point(F(10)), 64)
    assert guards == [12]


def test_reduce_angle_is_narrow_and_within_pi_of_zero():
    # any integer k gives the same cos and sin, so k is not certified: it is
    # recovered here as the integer nearest (x - r) / 2 pi
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(400):
        for x in KERNEL_ARGUMENTS + [_near_multiple_of_pi(2 * k) for k in (1, -3, 10**6)]:
            value = mpmath.mpf(x.numerator) / x.denominator
            for p in (8, 64, 65, 200):
                r = reduce_angle(x, p)
                lo, hi = (mpmath.mpf(end.numerator) / end.denominator for end in (r.lo, r.hi))
                k = mpmath.nint((value - (lo + hi) / 2) / (2 * mpmath.pi))
                assert lo <= value - 2 * mpmath.pi * k <= hi, (x, p)
                assert r.width <= F(1, 2**p), (x, p)
                assert max(-lo, hi) <= mpmath.pi + mpmath.mpf(2) ** -p, (x, p)
