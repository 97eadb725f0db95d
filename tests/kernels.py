"""The sqrt, cos/sin and angle-reduction kernels on `Interval`s, for tests.

`ihull.intervals._sqrt`, `_cos_sin` and `_reduce_angle` take and give the
reduced integer triples `lcf` stores; these box and unbox around them.  The
file is not named test_*, so pytest does not collect it.
"""

from fractions import Fraction

from ihull.intervals import Interval, _cos_sin, _interval, _reduce_angle, _sqrt, _triple


def sqrt_interval(x: Interval, precision: int) -> Interval:
    return _interval(_sqrt(_triple(x), precision))


def cos_sin_interval(x: Interval, precision: int) -> tuple[Interval, Interval]:
    cos, sin = _cos_sin(_triple(x), precision)
    return _interval(cos), _interval(sin)


def reduce_angle(x: Fraction, precision: int) -> Interval:
    return _interval(_reduce_angle(x.numerator, x.denominator, precision))
