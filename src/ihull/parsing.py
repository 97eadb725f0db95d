"""Number-literal grammar, expression evaluation, and formatting.

Literal grammar (used by the CLI and test fixtures):

    number   := term (("+"|"-") term)*
    term     := coeff | coeff "t" ("^" exponent)? | "t" ("^" exponent)?
    coeff    := integer ("/" integer)?
    exponent := ("-")? integer ("/" integer)?

e.g. ``1 - t^2 + 2t``, ``t^-1``, ``3/2 + 5t^1/2``.  For exact values
``parse_number(format_number(x)) == x``.  Two extensions round out the
surface: a trailing ``O(t^q)`` marks a truncation order, and
`parse_expression` additionally understands ``*``, ``/`` and parentheses.

``3/2`` lexes as one rational, so ``1/2t`` is (1/2)*t, not 1/(2t).
Parentheses nest at most `MAX_NESTING` deep, which keeps the recursive
descent far inside the interpreter's recursion limit; leading signs fold
in a loop, so any number of them parses.  The products of one literal
multiply out at most `MAX_PRODUCT_PAIRS` pairs of terms.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

from . import lcf
from .errors import IndeterminateComparison, ParseError, ZeroOrUnknownLeading
from .intervals import Interval
from .lcf import DEFAULT_ORDER, INFINITE_ORDER, LeviCivitaNumber

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<rational>\d+(?:/\d+)?)
  | (?P<name>[tO])
  | (?P<op>[\^+\-*/(),])
    """,
    re.VERBOSE,
)

#: The deepest parenthesis nesting a literal may use.  Each level costs four
#: stack frames, so 100 levels stay far below Python's default limit of 1000.
MAX_NESTING = 100

#: The most term pairs the products of one literal may multiply out: the sum
#: of len(a) x len(b) over its ``*`` and ``/``, counted before each product.
MAX_PRODUCT_PAIRS = 1 << 20


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, order):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.order = order
        self.depth = 0
        self.deepest = None  # position of the first "(" opened at MAX_NESTING
        self.product_pairs = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, value: str) -> None:
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def parse(self) -> LeviCivitaNumber:
        return self._at_end(self.expression())

    # point := "(" expression ("," expression)+ ")" | expression
    def point(self) -> tuple[LeviCivitaNumber, ...]:
        if self.peek()[1] == "(":
            self.next()
            coords = [self.expression()]
            while self.peek()[1] == ",":
                self.next()
                coords.append(self.expression())
            if len(coords) > 1:
                self.expect(")")
                return self._at_end(tuple(coords))
            # no comma: the parenthesis opened the first atom of an expression
            # such as "(1)*5"; as an atom it nests what it holds one level
            # deeper, so a parenthesis that reached MAX_NESTING is one too deep
            if self.deepest is not None:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.deepest)
            self.expect(")")
            return (self._at_end(self.expression(coords[0])),)
        return (self.parse(),)

    def _at_end(self, value):
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return value

    # expression := product (("+"|"-") product)*, from its first atom's value if given
    def expression(self, first=None) -> LeviCivitaNumber:
        terms = [self.product(first)]
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.product()
            terms.append(rhs if op == "+" else lcf.neg(rhs))
        return lcf.add_all(terms)

    # product := factor (("*"|"/") factor)*
    def product(self, first=None) -> LeviCivitaNumber:
        value = self.factor() if first is None else first
        while self.peek()[1] in ("*", "/"):
            _, op, op_pos = self.next()
            pos = self.peek()[2]
            rhs = self.factor()
            if op == "/":
                try:
                    rhs = lcf.inverse(rhs, self.order)
                except Exception as exc:
                    # an exact 0 is a malformed divisor, O(t^3) an undecided one
                    if isinstance(exc, ZeroOrUnknownLeading) and not rhs.is_zero:
                        raise IndeterminateComparison(f"cannot divide: {exc}", rhs.valuation) from None
                    raise ParseError(f"cannot divide: {exc}", pos) from None
            self.product_pairs += len(value.pairs) * len(rhs.pairs)
            if self.product_pairs > MAX_PRODUCT_PAIRS:
                raise ParseError(
                    "the products of this literal multiply more than "
                    f"{MAX_PRODUCT_PAIRS} pairs of terms", op_pos
                )
            value = value * rhs
        return value

    # factor := ("+"|"-")* atom
    def factor(self) -> LeviCivitaNumber:
        negate = False
        while self.peek()[1] in ("+", "-"):
            negate ^= self.next()[1] == "-"
        value = self.atom()
        return -value if negate else value

    def atom(self) -> LeviCivitaNumber:
        kind, text, pos = self.next()
        if text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            if self.depth == MAX_NESTING and self.deepest is None:
                self.deepest = pos
            value = self.expression()
            self.depth -= 1
            self.expect(")")
            return value
        if kind == "rational":
            coeff = self._fraction(text, pos)
            if self.peek()[1] == "t":
                self.next()
                return lcf.monomial(coeff, self._optional_exponent())
            return lcf.from_rational(coeff)
        if text == "t":
            return lcf.monomial(1, self._optional_exponent())
        if text == "O":
            self.expect("(")
            tok = self.next()
            if tok[1] == "t":
                exponent = self._optional_exponent()
            elif tok[0] == "rational" and self._fraction(tok[1], tok[2]) == 1:
                exponent = Fraction(0)  # O(1)
            else:
                raise ParseError("expected t or 1 inside O(...)", tok[2])
            self.expect(")")
            return lcf.zero(exponent)
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)

    def _optional_exponent(self) -> Fraction:
        if self.peek()[1] != "^":
            return Fraction(1)
        self.next()
        negate = False
        if self.peek()[1] == "-":
            self.next()
            negate = True
        kind, text, pos = self.next()
        if kind != "rational":
            raise ParseError("expected a rational exponent after ^", pos)
        value = self._fraction(text, pos)
        return -value if negate else value

    @staticmethod
    def _fraction(text: str, pos: int) -> Fraction:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ParseError("zero denominator in rational literal", pos) from None


def exponent_lcm(text: str) -> int:
    """The lcm of the exponent denominators (after ``^`` or ``^-``) as written
    in `text`, read from its tokens; 1 when it does not tokenize, as the parser
    then evaluates none of it."""
    try:
        tokens = [(kind, value) for kind, value, _ in _tokenize(text) if value != "-"]
    except ParseError:
        return 1
    return math.lcm(*(
        int(v.partition("/")[2] or 1) or 1  # a zero is a parse error, where the parser stops
        for (_, u), (kind, v) in zip(tokens, tokens[1:]) if u == "^" and kind == "rational"
    ))


def parse_number(text: str) -> LeviCivitaNumber:
    """Parse a literal (full expression grammar); ``/`` divides only by monomials."""
    return _Parser(text, INFINITE_ORDER).parse()


def parse_expression(
    text: str, order=DEFAULT_ORDER, precision=None
) -> LeviCivitaNumber:
    """Parse and evaluate an arithmetic expression; ``/`` inverts at `order`.

    `precision` is ignored: literals are exact and ``/`` inverts in rational
    arithmetic, so parsing rounds nothing.  The parameter stays because the
    series-expand benchmark (`perfbench/series_expand.py`) passes it.
    """
    return _Parser(text, order).parse()


def parse_point(text: str, order=INFINITE_ORDER) -> tuple[LeviCivitaNumber, ...]:
    """Parse ``(EXPR, EXPR, ...)``, or one EXPR for one-dimensional spaces.

    Positions in a ParseError count from the start of `text`.
    """
    return _Parser(text, order).point()


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def approx_float(value: Interval) -> float | None:
    """The float nearest the midpoint of `value`, for display; None beyond
    the float range.  The midpoint (n1 d2 + n2 d1) / (2 d1 d2) of n1/d1 and
    n2/d2 is rounded once, by int true division, without a Fraction."""
    (n1, d1), (n2, d2) = value.lo.as_integer_ratio(), value.hi.as_integer_ratio()
    try:
        return (n1 * d2 + n2 * d1) / (2 * d1 * d2)
    except OverflowError:
        return None


def approx_text(value: Interval, digits: int) -> str:
    """The midpoint of `value` to `digits` significant digits: the float's ``g``
    format, or decimal rounding of the exact midpoint where no float holds it."""
    approx = approx_float(value)
    if approx is not None:
        return f"{approx:.{digits}g}"
    midpoint = value.midpoint
    context = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX)
    quotient = context.divide(decimal.Decimal(midpoint.numerator), midpoint.denominator)
    return f"{quotient.normalize(context):g}"


def _format_t_power(exponent: Fraction) -> str:
    if not exponent:
        return ""
    if exponent.as_integer_ratio() == (1, 1):  # not Fraction ==, a call per term
        return "t"
    return f"t^{exponent}"


def _format_term(exponent: Fraction, coeff: Interval) -> str:
    tpart = _format_t_power(exponent)
    if coeff.is_exact:
        c = coeff.lo
        if not tpart:
            return str(c)
        ratio = c.as_integer_ratio()
        if ratio == (1, 1):
            return tpart
        if ratio == (-1, 1):
            return f"-{tpart}"
        return f"{c}{tpart}"
    approx = f"~{approx_text(coeff, 17)}"
    return f"{approx}{tpart}" if tpart else approx


def format_number(x: LeviCivitaNumber) -> str:
    """Canonical display; inverse of `parse_number` on exact values."""
    parts = []
    for n, coeff in x.pairs:
        rendered = _format_term(Fraction(n, x.denominator), coeff)
        if not parts:
            parts.append(rendered)
        elif rendered.startswith("-"):
            parts.append(f" - {rendered[1:]}")
        else:
            parts.append(f" + {rendered}")
    if x.order is not INFINITE_ORDER:
        tail = f"O({_format_t_power(x.order) or '1'})"
        parts.append(f" + {tail}" if parts else tail)
    if not parts:
        return "0"
    return "".join(parts)


def format_point(coords) -> str:
    return "(" + ", ".join(format_number(c) for c in coords) + ")"


def number_to_json(x: LeviCivitaNumber):
    """JSON value: a grammar string for exact numbers, else a structured dict."""
    if x.is_exact:
        return format_number(x)
    return {
        "terms": [
            {
                "exponent": str(q),
                "lo": str(c.lo),
                "hi": str(c.hi),
                "approx": approx_float(c),
            }
            for q, c in x.terms
        ],
        "order": None if x.order is INFINITE_ORDER else str(x.order),
        "display": format_number(x),
    }
