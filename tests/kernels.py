"""The sqrt and cos/sin enclosures on `Interval`s, for tests.

`ihull.intervals._sqrt` and `_cos_sin` take and give the reduced integer
triples `lcf` stores; these box and unbox around them.  The file is not named
test_*, so pytest does not collect it.
"""

from ihull.intervals import Interval, _cos_sin, _interval, _sqrt, _triple


def sqrt_interval(x: Interval, precision: int) -> Interval:
    return _interval(_sqrt(_triple(x), precision))


def cos_sin_interval(x: Interval, precision: int) -> tuple[Interval, Interval]:
    cos, sin = _cos_sin(_triple(x), precision)
    return _interval(cos), _interval(sin)
