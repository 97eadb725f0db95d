"""Property test of the literal grammar on malformed input: every string of
its tokens, spaced and stray characters included, parses, is a positioned
ParseError or is an undecided divisor, and raises nothing else."""

import pytest

from ihull.errors import IndeterminateComparison, ParseError
from ihull.parsing import parse_point

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: rationals of at most two digits, every operator and name of the grammar,
#: a space, and two characters no token holds
_rationals = st.one_of(
    st.integers(0, 99).map(str),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(0, 99)),
)
_tokens = st.one_of(_rationals, st.sampled_from(list("tO^+-*/(),") + [" ", "x", "."]))
_literals = st.lists(_tokens, max_size=16).map("".join)


@settings(database=None, derandomize=True, max_examples=400)
@given(_literals)
def test_malformed_literals_give_a_positioned_parse_error(text):
    try:
        parse_point(text, 4)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text), (text, exc.position)
    except IndeterminateComparison:
        pass
