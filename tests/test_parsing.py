"""Literal grammar, expression evaluation, and round-tripping."""

import math
from fractions import Fraction as F
from random import Random

import pytest

from ihull import lcf, parsing
from ihull.errors import IndeterminateComparison, ParseError
from ihull.intervals import Interval, _triple
from ihull.parsing import (
    MAX_NESTING,
    approx_float,
    exponent_lcm,
    format_number,
    number_to_json,
    parse_expression,
    parse_number,
    parse_point,
)
from ihull.probes import random_exact


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("1 - t^2 + 2t", "1 + 2t - t^2"),
        ("t^-1", "t^-1"),
        ("3/2 + 5t^1/2", "3/2 + 5t^1/2"),
        ("0", "0"),
        ("-t", "-t"),
        ("1/2t", "1/2t"),
        ("2 - 3/4t^-2", "-3/4t^-2 + 2"),
        ("O(t^3)", "O(t^3)"),
        ("1 + t + O(t^5/2)", "1 + t + O(t^5/2)"),
        ("1 + t^3 + O(t^5/2)", "1 + O(t^5/2)"),
    ],
)
def test_parse_and_canonical_form(text, canonical):
    assert format_number(parse_number(text)) == canonical


def test_exact_round_trip_fixed():
    for text in ("1 + 2t - t^2", "t^-1", "3/2 + 5t^1/2", "0", "-7/3 + t^2/3"):
        value = parse_number(text)
        assert parse_number(format_number(value)) == value


def test_exact_round_trip_random():
    rng = Random(17)
    for _ in range(200):
        value = random_exact(rng, max_terms=4)
        assert parse_number(format_number(value)) == value


def test_round_trip_with_truncation():
    value = parse_number("1 + t") + lcf.zero(F(7, 2))
    assert parse_number(format_number(value)) == value


def test_coefficient_binds_tighter_than_division():
    # 1/2t is the monomial (1/2) t, not 1/(2t)
    assert parse_number("1/2t") == lcf.monomial(F(1, 2), 1)
    # explicit division still works
    assert parse_expression("1/(2t)", order=4) == lcf.monomial(F(1, 2), -1)


def test_expression_arithmetic():
    assert parse_expression("(1+t)*(1-t)") == parse_number("1 - t^2")
    assert parse_expression("-(1+t) + 1") == parse_number("-t")
    assert parse_expression("2*3/4") == lcf.from_rational(F(3, 2))
    inv = parse_expression("1/(1-t)", order=3)
    assert inv == parse_number("1 + t + t^2") + lcf.zero(3)


def test_exponent_grammar():
    assert parse_number("t^1/2") == lcf.t_power(F(1, 2))
    assert parse_number("t^-3/2") == lcf.t_power(F(-3, 2))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_number("1 + &")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_number("1 + ")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_number("(1")
    with pytest.raises(ParseError):
        parse_expression("1 * * 2")
    with pytest.raises(ParseError):
        parse_number("t^x")
    with pytest.raises(ParseError):
        parse_expression("1/0")


def test_parse_number_divides_only_by_monomials():
    # without a truncation order "/" cannot expand a series
    assert parse_number("1/(2t)") == parse_number("1/2t^-1")
    with pytest.raises(ParseError, match="cannot divide"):
        parse_number("1/(1-t)")


def test_parse_point():
    coords = parse_point("(1, t^-1)")
    assert coords == (lcf.one(), lcf.T_INVERSE)
    assert parse_point("3/2") == (parse_number("3/2"),)
    assert parse_point("((1+t)*(1-t), 0)")[0] == parse_number("1 - t^2")
    with pytest.raises(ParseError):
        parse_point("(1, )")
    with pytest.raises(ParseError):
        parse_point("(1, 2")
    # a parenthesis without a comma opens an expression, not a point
    assert parse_point("(1)*5") == (lcf.from_rational(5),)
    with pytest.raises(ParseError) as info:
        parse_point("(1, 2) + 3")
    assert info.value.position == 7
    # positions count from the start of the text, not of the coordinate
    with pytest.raises(ParseError) as info:
        parse_point("(1, 2 3)")
    assert info.value.position == 6


def test_parenthesised_literal_is_parsed_once(monkeypatch):
    # without a comma the parenthesis opens an expression that continues from
    # the value read, so each "/" inverts once, as in the bare literal
    calls = []
    inverse = lcf.inverse
    monkeypatch.setattr(lcf, "inverse", lambda *args: calls.append(args) or inverse(*args))
    (value,) = parse_point("(1/(1-t-t^2))", 8)
    assert len(calls) == 1
    assert value == parse_expression("1/(1-t-t^2)", 8)
    assert parse_point("(1/(1-t))*(1-t) - 2", 8) == (parse_expression("1/(1-t)*(1-t) - 2", 8),)


def test_parenthesised_literal_keeps_the_nesting_bound():
    # a point's parenthesis counts toward MAX_NESTING only where it opens an
    # expression, and the error names the parenthesis one level too deep
    deep = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert parse_point(f"({deep}, 0)") == (lcf.one(), lcf.zero())
    assert parse_point(deep) == (lcf.one(),)
    for text in (f"({deep})", f"({deep} 2)"):
        with pytest.raises(ParseError) as info:
            parse_point(text)
        assert info.value.position == MAX_NESTING and "nested deeper" in str(info.value)
    # without a comma the text is one expression, so its errors come in the
    # order `parse_expression` meets them: the nesting before a later 1/0
    with pytest.raises(ParseError) as info:
        parse_point(f"({deep} + 1/0)")
    assert info.value.position == MAX_NESTING and "nested deeper" in str(info.value)


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, MAX_NESTING + 2, MAX_NESTING + 3])
def test_a_point_too_deep_fails_as_its_expression_does(levels):
    # a literal without a comma in its first group's own depth is no tuple:
    # parse_point reports the first parenthesis one level too deep, as
    # parse_expression does, before a later 1/0 or a deeper ","
    for inner, tail in (("1", ""), ("1", " + 1/0"), ("1, 2", "")):
        text = "(" * levels + inner + ")" * (levels - 1) + tail + ")"
        for parse in (parse_point, parse_expression):
            with pytest.raises(ParseError) as info:
                parse(text, 4)
            assert info.value.position == MAX_NESTING and "nested deeper" in str(info.value)


def test_division_lets_faults_other_than_a_bad_divisor_through(monkeypatch):
    # "cannot divide" names what inverse raises on its input, not any fault inside it
    def broken(a, order):
        raise RuntimeError("a fault inside the series")

    monkeypatch.setattr(lcf, "inverse", broken)
    with pytest.raises(RuntimeError, match="a fault inside the series"):
        parse_expression("1/(1 - t)", 4)
    with pytest.raises(RuntimeError):
        parse_point("(1, 2/(1 + t))", 4)


def test_format_number_makes_no_fraction_comparison(monkeypatch):
    # terms are told apart by numerator and denominator: Fraction == is a
    # Python-level call per term
    values = [
        parse_number("-t^-1 + 1 - t + 2/3t^1/2 + t^2 + O(t^3)"),
        parse_number("-1 + t^-1/2 + O(1)"),
        lcf.sqrt(parse_number("2 + t"), 4, 64),
        lcf.zero(),
    ]
    expected = [format_number(x) for x in values]
    calls = []
    equal = F.__eq__
    monkeypatch.setattr(F, "__eq__", lambda a, b: calls.append(b) or equal(a, b))
    assert [format_number(x) for x in values] == expected
    assert calls == []


def test_printing_builds_no_fraction(monkeypatch):
    # exponents, the order, coefficients and endpoints print from the stored integers
    x = parse_number("1/3t^-2/3 + O(t^17/6)") + lcf.monomial(Interval(F(1, 2), F(3, 4)), F(5, 6))
    built = []
    new = F.__new__
    counted = lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw)
    monkeypatch.setattr(F, "__new__", counted)
    text, payload = format_number(x), number_to_json(x)
    assert built == []
    F(1, 3)  # the count sees a Fraction built
    assert built == [(1, 3)]
    monkeypatch.undo()
    assert text == "1/3t^-2/3 + ~0.625t^5/6 + O(t^17/6)"
    assert payload == {
        "terms": [
            {"exponent": "-2/3", "lo": "1/3", "hi": "1/3", "approx": 1 / 3},
            {"exponent": "5/6", "lo": "1/2", "hi": "3/4", "approx": 0.625},
        ],
        "order": "17/6",
        "display": text,
    }


def test_parsing_builds_no_fraction(monkeypatch):
    # literals and exponents are read as integer pairs into the stored
    # triples and lattice, and O(...) as an order on the lattice
    text = "1/3t^-2/3 + 7/4t^5/6 + (1 + t)/(3 - t^1/2) + O(t^17/6)"
    built = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    value = parse_expression(text, 4)
    F(1, 3)  # the count sees a Fraction built
    assert built == [(1, 3)]
    monkeypatch.undo()
    assert format_number(value) == (
        "1/3t^-2/3 + 1/3 + 1/9t^1/2 + 7/4t^5/6 + 10/27t + 10/81t^3/2 + 10/243t^2"
        " + 10/729t^5/2 + O(t^17/6)"
    )


def test_sums_merge_each_term_a_logarithmic_number_of_times(monkeypatch):
    # a left fold merges up to k terms at the k-th "+", n^2/2 for the sum
    n = 4096
    text = " + ".join(f"{k}t^{k}" for k in range(1, n + 1))
    merged = []
    add = lcf.add

    def counted(a, b):
        merged.append(len(a.terms) + len(b.terms))
        return add(a, b)

    monkeypatch.setattr(lcf, "add", counted)
    value = parse_number(text)
    assert len(merged) == n - 1
    assert sum(merged) <= n * 13  # n (log2 n + 1)
    assert value == lcf.LeviCivitaNumber(tuple((k, k) for k in range(1, n + 1)))


def test_sums_equal_the_left_fold():
    rng = Random(17)
    for _ in range(40):
        signs = [rng.choice("+-") for _ in range(rng.randint(1, 60))]
        fixed = ["O(t^3)", "(1 - t)/(1 + t)", "-t^-1/2*t"]
        terms = [rng.choice([f"({format_number(random_exact(rng))})", *fixed]) for _ in signs]
        text = "".join(f" {sign} {term}" for sign, term in zip(signs, terms))
        expected = lcf.zero()
        for sign, term in zip(signs, terms):
            value = parse_expression(term, 4)
            expected = expected + value if sign == "+" else expected - value
        assert parse_expression(text, 4) == expected, text


def test_products_of_a_literal_are_bounded(monkeypatch):
    # len(a) x len(b) on the stored terms, summed over every * and / of the
    # literal, parentheses and coordinates included, checked before each product
    monkeypatch.setattr(parsing, "MAX_PRODUCT_PAIRS", 10)
    assert parse_number("(1 + t)*(1 + t)*(1 + t)") == parse_number("1 + 3t + 3t^2 + t^3")
    for text, parse in (
        ("(1 + t + t^2)*(1 + t + t^2 + t^3)", parse_number),  # 12 pairs
        ("((1+t)*(1+t), (1+t)*(1+t)*t)", parse_point),  # 4 + 4 + 3
        ("2/(1 - t)", lambda text: parse_expression(text, 11)),  # 1 x 11
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == max(text.rfind("*"), text.rfind("/"))
        assert "multiply more than 10 pairs of terms" in str(info.value)
    # a quotient counts the terms of the inverse, which its order sets
    assert len(parse_expression("2/(1 - t)", 10).pairs) == 10


def _random_literal(rng, depth=0):
    """A sum of up to three terms c t^(n/d), d in 1..6, sometimes a product
    or a quotient of two such sums, sometimes with an O(t^q) tail."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        n, d = rng.randint(-3, 8), rng.randint(1, 6)
        terms.append(f"{rng.randint(1, 5)}t^{n}/{d}" if d > 1 else f"{rng.randint(1, 5)}t^{n}")
    text = " + ".join(terms)
    if depth == 0 and rng.random() < 0.5:
        text = f"({text}){rng.choice('*/')}({_random_literal(rng, 1)})"
    if rng.random() < 0.2:
        text += f" + O(t^{rng.randint(1, 12)}/{rng.randint(1, 4)})"
    return text


def test_stored_lattice_divides_the_cli_lattice_bound():
    # the CLI bounds the points of (1/L)Z, L = exponent_lcm(text), below the
    # order; every parsed value, quotients at a finite order included, is
    # stored on the least lattice of its exponents and its order, which
    # (1/M)Z holds, M = lcm(L, the order's denominator), so a split's lattice
    # never leaks
    rng = Random(19)
    for _ in range(150):
        text = f"({_random_literal(rng)}, {_random_literal(rng)})"
        order = rng.choice([F(2), F(17, 3), F(8)])
        try:
            coords = parse_point(text, order)
        except (ParseError, IndeterminateComparison):
            continue  # a divisor that is 0 (parse error) or of unknown sign
        bound = math.lcm(exponent_lcm(text), order.denominator)
        for coord in coords:
            assert bound % coord.denominator == 0, (text, coord)


def test_number_to_json():
    assert number_to_json(parse_number("1 + t")) == "1 + t"
    payload = number_to_json(lcf.sqrt(lcf.from_rational(2), 4, 64))
    assert payload["order"] is None
    assert payload["terms"][0]["exponent"] == "0"
    assert abs(payload["terms"][0]["approx"] - 1.4142135623730951) < 1e-12


def test_display_float_is_the_correctly_rounded_midpoint():
    # against float(midpoint) on seeded intervals whose endpoint denominators
    # differ, near 0, in the float range, past it (None) and in the subnormals
    rng = Random(31)
    for _ in range(3000):
        scale = F(2) ** rng.choice([0, 40, -40, 1000, 1023, 1030, 1100, -1070, -1080, -1100])
        lo = F(rng.randint(-10**20, 10**20), rng.randint(1, 10**20)) * scale
        hi = lo + F(rng.randint(0, 10**12), rng.randint(1, 10**12)) * scale
        c = Interval(lo, hi)
        try:
            want = float(c.midpoint)
        except OverflowError:
            want = None
        assert repr(approx_float(_triple(c))) == repr(want), c
