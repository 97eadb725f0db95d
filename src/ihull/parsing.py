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
Parentheses nest at most `MAX_NESTING` deep, a point's own not counted,
which keeps the recursive descent far inside the interpreter's recursion
limit; leading signs fold in a loop, so any number of them parses.  The
products of one literal multiply out at most `MAX_PRODUCT_PAIRS` pairs of
terms, of at most `MAX_PRODUCT_BITS` bits in all.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

from . import lcf
from .errors import IndeterminateComparison, ParseError, ZeroOrUnknownLeading
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

#: The most bits the products of one literal may reach: the sum of
#: len(b) x size(a) + len(a) x size(b) over its ``*`` and ``/``, counted before
#: each product, size(x) the bits of its coefficients (`_size`).  A product of
#: two terms has at most the sum of their sizes, so this bounds the bits that
#: the pairs produce, where `MAX_PRODUCT_PAIRS` bounds their number.
MAX_PRODUCT_BITS = 1 << 28


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
        self.tokens = _tokenize(text)
        self.index = 0
        self.order = order
        self.depth = 0
        self.product_pairs = 0
        self.product_bits = 0

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
        if not self._opens_tuple():
            return (self.parse(),)
        self.next()  # the point's own "(", which nests nothing
        coords = [self.expression()]
        while self.peek()[1] == ",":
            self.next()
            coords.append(self.expression())
        self.expect(")")
        return self._at_end(tuple(coords))

    def _opens_tuple(self) -> bool:
        """Whether the first token is a "(" whose group holds a "," at its own depth."""
        depth = 0
        for _, text, _ in self.tokens:
            depth += (text == "(") - (text == ")")
            if depth < 1 or text == "," and depth == 1:
                return depth == 1
        return False

    def _at_end(self, value):
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return value

    # expression := product (("+"|"-") product)*
    def expression(self) -> LeviCivitaNumber:
        terms = [self.product()]
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.product()
            terms.append(rhs if op == "+" else lcf.neg(rhs))
        return lcf.add_all(terms)

    # product := factor (("*"|"/") factor)*
    def product(self) -> LeviCivitaNumber:
        value = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, op_pos = self.next()
            pos = self.peek()[2]
            rhs = self.factor()
            if op == "/":
                try:
                    rhs = lcf.inverse(rhs, self.order)
                except (ZeroOrUnknownLeading, ValueError) as exc:  # what inverse raises
                    # an exact 0 is a malformed divisor, O(t^3) an undecided one
                    if isinstance(exc, ZeroOrUnknownLeading) and not rhs.is_zero:
                        raise IndeterminateComparison(f"cannot divide: {exc}", rhs.valuation) from None
                    raise ParseError(f"cannot divide: {exc}", pos) from None
            self.product_pairs += len(value.pairs) * len(rhs.pairs)
            self.product_bits += len(rhs.pairs) * _size(value) + len(value.pairs) * _size(rhs)
            if self.product_pairs > MAX_PRODUCT_PAIRS:
                raise ParseError(
                    "the products of this literal multiply more than "
                    f"{MAX_PRODUCT_PAIRS} pairs of terms", op_pos
                )
            if self.product_bits > MAX_PRODUCT_BITS:
                raise ParseError(
                    f"the products of this literal reach more than {MAX_PRODUCT_BITS} bits", op_pos
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


def _size(x: LeviCivitaNumber) -> int:
    """The bit lengths of max(|L|, |H|) and of E, summed over the coefficient
    triples (L, H, E) of x's terms."""
    return sum(max(-lo, hi).bit_length() + den.bit_length() for _, (lo, hi, den) in x.pairs)


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
    """Parse ``(EXPR, EXPR, ...)``, a "," at the depth of a first "(", or else
    one EXPR as `parse_expression` does, errors included (one-dimensional
    spaces).  Positions in a ParseError count from the start of `text`.
    """
    return _Parser(text, order).point()


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _rational(n: int, d: int) -> str:
    """n/d, d >= 1, as `str(Fraction(n, d))` prints it: in lowest terms by one
    gcd, with no "/1"."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def approx_float(c: tuple[int, int, int]) -> float | None:
    """The float nearest the midpoint (L + H) / 2E of the interval of triple
    c = (L, H, E), for display; None beyond the float range.  It is rounded
    once, by int true division, without a Fraction."""
    lo, hi, den = c
    try:
        return (lo + hi) / (2 * den)
    except OverflowError:
        return None


def approx_text(c: tuple[int, int, int], digits: int) -> str:
    """The midpoint of the interval of triple `c` to `digits` significant
    digits: the float's ``g`` format, or decimal rounding of (L + H) / 2E where
    no float holds it."""
    approx = approx_float(c)
    if approx is not None:
        return f"{approx:.{digits}g}"
    lo, hi, den = c
    context = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX)
    quotient = context.divide(decimal.Decimal(lo + hi), 2 * den)
    return f"{quotient.normalize(context):g}"


def _t_power(n: int, d: int) -> str:
    """t^(n/d), d >= 1: "" at 0 and "t" at 1."""
    if not n:
        return ""
    return "t" if n == d else f"t^{_rational(n, d)}"


def _format_term(tpart: str, coeff: tuple[int, int, int]) -> str:
    n, hi, d = coeff
    if n != hi:
        return f"~{approx_text(coeff, 17)}{tpart}"
    if tpart and d == 1 and n in (1, -1):  # 1 t^q prints as t^q
        return tpart if n > 0 else f"-{tpart}"
    return f"{_rational(n, d)}{tpart}"


def format_number(x: LeviCivitaNumber) -> str:
    """Canonical display; inverse of `parse_number` on exact values."""
    parts = []
    for n, coeff in x.pairs:
        rendered = _format_term(_t_power(n, x.denominator), coeff)
        if not parts:
            parts.append(rendered)
        elif rendered.startswith("-"):
            parts.append(f" - {rendered[1:]}")
        else:
            parts.append(f" + {rendered}")
    if x.top != INFINITE_ORDER:
        tail = f"O({_t_power(x.top, x.denominator) or '1'})"
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
    d = x.denominator
    return {
        "terms": [
            {"exponent": _rational(n, d), "lo": _rational(lo, e), "hi": _rational(hi, e),
             "approx": approx_float((lo, hi, e))}
            for n, (lo, hi, e) in x.pairs
        ],
        "order": None if x.top == INFINITE_ORDER else _rational(x.top, d),
        "display": format_number(x),
    }
