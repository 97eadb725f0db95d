"""Property tests of the literal grammar on malformed input: every string of
its tokens, spaced and stray characters included, parses, is a positioned
ParseError or is an undecided divisor, and raises nothing else; and a point
literal that opens no tuple parses, or fails, as its expression does."""

import re

import pytest

from ihull.errors import IndeterminateComparison, ParseError
from ihull.parsing import parse_expression, parse_point

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

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


def _opens_a_tuple(text):
    """Whether `text` starts with a "(" whose group holds a "," at its own depth:
    once every matched pair after that "(" is struck out, a "," comes before
    the first ")" left (which closes it) and "(" left (which never closes)."""
    rest = text.lstrip()
    if not rest.startswith("("):
        return False
    rest, struck = rest[1:], None
    while struck != rest:
        struck, rest = rest, re.sub(r"\([^()]*\)", "0", rest)
    return re.match(r"[^()]*,", rest) is not None


def _outcome(parse):
    """The value `parse` returns, or the class, message and position it raises."""
    try:
        return parse()
    except (ParseError, IndeterminateComparison) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(database=None, derandomize=True, max_examples=400)
@given(st.one_of(_literals, _literals.map("(".__add__)))
def test_a_literal_that_opens_no_tuple_parses_as_its_expression(text):
    assume(not _opens_a_tuple(text))
    expected = _outcome(lambda: (parse_expression(text, 4),))
    assert _outcome(lambda: parse_point(text, 4)) == expected, text
