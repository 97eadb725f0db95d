"""End-to-end CLI behavior: commands, output formats, exit codes."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import cli_sweep
from ihull.cli import main
from ihull.parsing import exponent_lcm, parse_number, parse_point


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    # a termless factor's members start at its order: O(t^-1) holds t^-1
    for expr, expected in (
        ("(1+t)*(1-t)", "1 - t^2"),
        ("0*(1+O(t^3))", "0"),
        ("O(t^-1)*O(t^-1)", "O(t^-2)"),
        ("O(t^2)*O(t^3)", "O(t^5)"),
    ):
        code, out, _ = run(capsys, "eval", expr)
        assert code == 0 and out.strip() == expected


def test_eval_json_round_trips(capsys):
    for expr in ("(1+t)*(1-t)", "3/2 + 5t^1/2", "t^-1 + 1", "0"):
        code, out, _ = run(capsys, "eval", expr, "--json")
        assert code == 0
        value = json.loads(out)["value"]
        assert parse_number(value) == parse_number(expr)


def test_eval_division_uses_order(capsys):
    code, out, _ = run(capsys, "eval", "1/(1-t)", "--order", "4")
    assert code == 0 and out.strip() == "1 + t + t^2 + t^3 + O(t^4)"


def test_dist_flagship(capsys):
    code, out, _ = run(capsys, "dist", "cover", "(1, t^-1)", "(t, 0)")
    assert code == 0
    assert "d = 1 + t" in out and "st = 1" in out


def test_dist_json(capsys):
    code, out, _ = run(capsys, "dist", "cover", "(1, t^-1)", "(t, 0)", "--json")
    payload = json.loads(out)
    assert payload["distance"] == "1 + t"
    assert payload["standard_part"]["lo"] == "1"


def test_point_literals_parse_at_order(capsys):
    # "/" truncates at --order, as in eval
    code, out, _ = run(capsys, "dist", "rationals-line", "1/(1-t)", "0", "--order", "4")
    assert code == 0 and "d = 1 + t + t^2 + t^3 + O(t^4)" in out
    code, out, _ = run(capsys, "classify", "1/(1-t)", "--order", "4")
    assert code == 0 and out.strip() == "appreciable"


_BASE_ARGV = {
    "eval": ["eval", "1"],
    "dist": ["dist", "rationals-line", "1", "2"],
    "hull-dist": ["hull-dist", "rationals-line", "1", "2"],
    "classify": ["classify", "1"],
    "oracle": ["oracle", "(1, 0)", "(2, 0)", "--grid", "16"],
    "net": ["net", "2"],
    "verify": ["verify", "hb-failure"],
}
_FLAG_VALUE = {"--order": "8", "--precision": "64", "--seed": "0"}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("eval", "--precision"),
        ("eval", "--seed"),
        ("dist", "--seed"),
        ("hull-dist", "--seed"),
        ("classify", "--precision"),
        ("classify", "--seed"),
        ("oracle", "--order"),
        ("oracle", "--seed"),
        ("net", "--order"),
        ("net", "--precision"),
        ("net", "--seed"),
        ("verify", "--order"),
        ("verify", "--precision"),
    ],
)
def test_flags_a_subcommand_does_not_use_are_rejected(capsys, command, flag):
    assert run(capsys, *_BASE_ARGV[command])[0] == 0
    code, _, err = run(capsys, *_BASE_ARGV[command], flag, _FLAG_VALUE[flag])
    assert code == 2 and f"unrecognized arguments: {flag}" in err


def test_dist_infinite_standard_part(capsys):
    code, out, _ = run(capsys, "dist", "rationals-line", "t^-1", "0")
    assert code == 0 and "st = (not finite)" in out
    # (t^-1, 0) and (0, 0) are both members of the first point, at distances
    # t^-1 and 0: st is undetermined, not certainly infinite
    plane = ("euclidean-plane", "(O(t^-1), 0)", "(0, 0)")
    want = "d = O(t^-1)\nst = (undetermined: blocking exponent -1)\n"
    assert run(capsys, "dist", *plane) == (0, want, "")
    payload = json.loads(run(capsys, "dist", *plane, "--json")[1])
    assert payload["standard_part"] is None and payload["blocking_exponent"] == "-1"
    payload = json.loads(run(capsys, "dist", "rationals-line", "t^-1", "0", "--json")[1])
    assert payload["standard_part"] is None and "blocking_exponent" not in payload


def test_classify_magnitude(capsys):
    code, out, _ = run(capsys, "classify", "3/2 + 5t")
    assert code == 0 and out.strip() == "appreciable"


def test_classify_cover_point(capsys):
    code, out, _ = run(capsys, "classify", "(1, t^-1)")
    assert code == 0 and out.strip() == "finite_inapproachable"
    code, out, _ = run(capsys, "classify", "(1 + t, 5)")
    assert code == 0 and out.strip() == "nearstandard (1, 5)"


def test_hull_dist(capsys):
    code, out, _ = run(capsys, "hull-dist", "cover", "(1, t^-1)", "(t, 0)")
    assert code == 0 and out.strip() == "1"


def test_hull_dist_order_caps_the_first_attempt(capsys):
    # the distance is measured from the standard points (1, 0) and (2, 1) at
    # every order, so --order 0, whose series stop below t^0, answers as
    # --order 8 does
    argv = ["hull-dist", "cover", "(1+t, 0)", "(2, 1)", "--order"]
    answer = run(capsys, *argv, "8")
    assert answer[0] == 0 and run(capsys, *argv, "0") == answer
    # the representatives' own distance at --order 0 has no standard part
    code, out, _ = run(capsys, "dist", *argv[1:], "0")
    assert code == 0 and "st = (undetermined: blocking exponent 0)" in out


def test_verify_scenarios_pass(capsys):
    for scenario in ("theorem-1.1", "cover-inapproachable", "hb-failure"):
        code, out, _ = run(capsys, "verify", scenario)
        assert code == 0, out
        assert "result: pass" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "hb-failure", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "hb-failure"
    for check in payload["checks"]:
        assert set(check) == {"name", "verdict", "details"}
        assert check["verdict"] in ("pass", "fail", "unknown")


def test_verify_theorem_b_flags_witness(capsys):
    code, out, _ = run(capsys, "verify", "theorem-b", "--json")
    assert code == 0
    payload = json.loads(out)
    cover_checks = [c for c in payload["checks"] if c["name"] == "theorem-b[cover]"]
    assert cover_checks
    assert "finite inapproachable witness: (1, t^-1)" in cover_checks[0]["details"]


def test_verify_deterministic_given_seed(capsys):
    _, first, _ = run(capsys, "verify", "proposition-a", "--json", "--seed", "5")
    _, second, _ = run(capsys, "verify", "proposition-a", "--json", "--seed", "5")
    assert first == second


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "scenario",
    ("theorem-1.1", "cover-inapproachable", "proposition-a", "theorem-b", "hb-failure"),
)
def test_verify_json_matches_golden(capsys, scenario):
    # regenerate, after a deliberate change of output, with
    #   ihull verify SCENARIO --seed 0 --json > tests/golden/verify-SCENARIO.json
    _, out, _ = run(capsys, "verify", scenario, "--seed", "0", "--json")
    assert out == (GOLDEN / f"verify-{scenario}.json").read_text()


def test_net(capsys):
    code, out, _ = run(capsys, "net", "3")
    assert code == 0
    assert out.splitlines() == ["(1, 0)", "(1, 4)", "(1, 8)"]


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "(1, 0)", "(2, 0)", "--grid", "64")
    assert code == 0
    assert "oracle" in out and "closed form" in out
    payload_code, json_out, _ = run(
        capsys, "oracle", "(1, 0)", "(2, 0)", "--grid", "64", "--json"
    )
    payload = json.loads(json_out)
    assert abs(payload["closed_form"] - 1.0) < 1e-9
    assert payload["relative_gap"] <= 0.08


def test_oracle_closed_form_at_the_exact_input(capsys):
    # 1/3000000000 is not recovered from its float by limit_denominator(10**9)
    code, out, _ = run(
        capsys, "oracle", "(1, 0)", "(1, 1/3000000000)", "--grid", "16", "--json"
    )
    assert code == 0
    assert json.loads(out)["closed_form"] == pytest.approx(1 / 3e9, rel=1e-12)
    # a pair closer than --precision resolves is indeterminate, its
    # distance's standard part blocked at t^0
    close = ("(1, 0)", "(1, 1/3000000000000000000000000)", "--grid", "16")
    code, _, err = run(capsys, "oracle", *close)
    assert code == 3 and "(blocking exponent 0)" in err
    code, out, _ = run(capsys, "oracle", *close, "--precision", "256", "--json")
    assert code == 0
    assert json.loads(out)["closed_form"] == pytest.approx(1 / 3e24, rel=1e-12)


def test_oracle_rejects_a_wrong_coordinate_count(capsys):
    for command in (["oracle", "1", "2"], ["dist", "cover", "1", "2"]):
        code, _, err = run(capsys, *command)
        assert code == 2 and "cover needs 2 coordinates, got 1" in err


def test_oracle_rejects_a_grid_above_the_bound(capsys, monkeypatch):
    from ihull import gridoracle

    def unreachable(*args):
        raise AssertionError("a rejected grid must not be built")

    monkeypatch.setattr(gridoracle, "oracle_distances", unreachable)
    # --grid N asks for N x N levels: 1025 is the smallest N above the bound
    side = math.isqrt(gridoracle.MAX_GRID_NODES)
    assert side * side == gridoracle.MAX_GRID_NODES
    for grid in (side + 1, 100000000):
        code, out, err = run(capsys, "oracle", "(1, 0)", "(1, 1)", "--grid", str(grid))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "exceeds" in err


def test_precision_above_the_bound_is_rejected_before_any_computation(capsys, monkeypatch):
    from ihull import cli, gridoracle, spaces

    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected precision must not reach the library")

    monkeypatch.setattr(spaces, "get_space", unreachable)
    monkeypatch.setattr(gridoracle, "oracle_distance", unreachable)
    for command in (
        ("dist", "cover", "(1, 0)", "(1, 1)"),
        ("hull-dist", "cover", "(1, 0)", "(1, 1)"),
        ("oracle", "(1, 0)", "(1, 1)"),
    ):
        for precision in (cli.MAX_PRECISION + 1, 10**9, 0, -1):
            code, out, err = run(capsys, *command, f"--precision={precision}")
            assert code == 2 and out == ""
            assert f"between 1 and {cli.MAX_PRECISION} bits" in err
    assert cli.precision_bits(str(cli.MAX_PRECISION)) == cli.MAX_PRECISION


def test_order_and_net_above_their_bounds_are_rejected_before_any_computation(
    capsys, monkeypatch
):
    from ihull import cli, cover, spaces

    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected order or net size must not reach the library")

    for module, name in (
        (cli, "parse_expression"), (cli, "parse_point"),
        (spaces, "get_space"), (cover, "separated_net"),
    ):
        monkeypatch.setattr(module, name, unreachable)
    too_large = lambda limit: (limit + 1, -limit - 1, 10**9, f"1/{cli.MAX_ORDER_DENOMINATOR + 1}")
    for command, limit in (
        (("eval", "1/(1-t)"), cli.MAX_ORDER),
        (("classify", "1/(1-t)"), cli.MAX_ORDER),
        (("dist", "cover", "(1, 0)", "(1, 1)"), cli.MAX_DISTANCE_ORDER),
        (("hull-dist", "cover", "(1, 0)", "(1, 1)"), cli.MAX_DISTANCE_ORDER),
    ):
        # an exponent form is refused unread: Fraction would first build 10^exponent;
        # a zero denominator gets the same usage message, not a traceback
        for order in (*too_large(limit), "1e100000", "1/0", "-3/0"):
            code, out, err = run(capsys, *command, f"--order={order}")
            assert code == 2 and out == ""
            if isinstance(order, int) and abs(order) <= cli.MAX_ORDER:
                # dist and hull-dist: the lattice rule, as ceil(|Q| D) >= |Q|
                assert f"exponent lattice, more than {limit}" in err
            else:
                assert f"size at most {cli.MAX_ORDER} and denominator at most" in err
    for n in (cli.MAX_NET_POINTS + 1, 10**9, 1, 0, -1):
        code, out, err = run(capsys, "net", str(n))
        assert code == 2 and out == ""
        assert f"between 2 and {cli.MAX_NET_POINTS} points" in err
    # the bounds admit the orders and net sizes the README, tests and benchmark use
    for text in ("1480", "17/3", "-3", "0", "2.5", str(cli.MAX_ORDER)):
        assert cli.order_value(text) == Fraction(text)
    with pytest.raises(AssertionError, match="must not reach"):
        main(["dist", "cover", "(1, 0)", "(1, 1)", f"--order={cli.MAX_DISTANCE_ORDER}"])
    assert [cli.net_points(str(n)) for n in (2, 3, 10, 12)] == [2, 3, 10, 12]
    assert cli.net_points(str(cli.MAX_NET_POINTS)) == cli.MAX_NET_POINTS


def test_lattice_above_the_bound_is_rejected_before_any_computation(capsys, monkeypatch):
    from ihull import cli, spaces

    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected lattice must not reach the library")

    for module, name in ((cli, "parse_expression"), (cli, "parse_point"), (spaces, "get_space")):
        monkeypatch.setattr(module, name, unreachable)
    for argv, points, limit in (
        (["eval", "1/(1-t^1/1000)", "--order", "2048"], 2048000, cli.MAX_LATTICE_POINTS),
        (["eval", "1/(1-t^1/1000)"], 8000, cli.MAX_LATTICE_POINTS),
        (["classify", "1 + O(t^-1/999)", "--order", "9"], 8991, cli.MAX_LATTICE_POINTS),
        (["dist", "cover", "(1+t^1/6, t^1/6)", "(2, 1)", "--order", "64"], 384, cli.MAX_DISTANCE_ORDER),
        (["hull-dist", "cover", "(1, 0)", "(2, t^1/7)", "--order", "9.5"], 67, cli.MAX_DISTANCE_ORDER),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"spans {points} points of the literals' exponent lattice, more than {limit}" in err
    # a literal the parser stops in counts every exponent before the stop
    code, out, err = run(capsys, "eval", "1/(1-t^1/1000) + t^(1)")
    assert code == 2 and "spans 8000 points" in err
    # the bound admits the literals and orders the README, tests and benchmark use:
    # probe exponents have denominators up to 3, so lattices up to (1/6)Z, and
    # README's largest eval has t^2/3 = t^(2/3), so (1/3)Z at order 2048
    assert [exponent_lcm(text) for text in ("(1 + 2t^1/2, -t^2/3)", "t^-1/3", "1/(1-t-t^2)")] == [6, 3, 1]
    assert 2048 * exponent_lcm("1/(1-t/2-t^2/3)") == 6144 == cli.MAX_LATTICE_POINTS
    # denominators count as written; a zero one or a bad character counts 1
    assert [exponent_lcm(text) for text in ("O(t^2/4)", "t^1/0", "t^1/2 # 1")] == [4, 1, 1]


def test_products_above_the_bound_are_parse_errors(capsys, monkeypatch):
    from ihull import parsing

    # at order Q, 1/(1-t-t^2)/(1-t/5) multiplies Q + 1 + Q^2 pairs of terms:
    # past 2^20 at Q = 2048, where it ran 39 s before this bound
    monkeypatch.setattr(parsing, "MAX_PRODUCT_PAIRS", 32 + 1 + 32 * 32)
    code, out, err = run(capsys, "eval", "1/(1-t-t^2)/(1-t/5)", "--order", "33")
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and "more than 1057 pairs" in err and "position 11" in err
    assert run(capsys, "eval", "1/(1-t-t^2)/(1-t/5)", "--order", "32")[0] == 0
    # README's 1/(1-t/2-t^2/3), whose t^2/3 is t^(2/3), multiplies 1 + (3Q - 1)
    # pairs: 6,144 at 2048
    monkeypatch.setattr(parsing, "MAX_PRODUCT_PAIRS", 3 * 64)
    assert run(capsys, "eval", "1/(1-t/2-t^2/3)", "--order", "64")[0] == 0
    assert run(capsys, "eval", "1/(1-t/2-t^2/3)", "--order", "65")[0] == 2


def test_product_bits_above_the_bound_are_parse_errors(capsys, monkeypatch):
    from ihull import lcf, parsing

    # a product the bound refuses never runs: one of more than 2^16 pairs fails
    mul = lcf.mul

    def guarded(a, b):
        assert len(a.pairs) * len(b.pairs) <= 1 << 16, "a refused product ran"
        return mul(a, b)

    monkeypatch.setattr(lcf, "mul", guarded)
    # at order 1023 the product of the two inverses reaches about 6.4e9 bits;
    # it ran 20 s before this bound (228 s with 997/991 and 983/977)
    literal = "1/(1-t/3-(t^2)/7)/(1-t/5-(t^2)/11)"
    code, out, err = run(capsys, "eval", literal, "--order", "1023")
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and "position 17" in err
    assert f"more than {parsing.MAX_PRODUCT_BITS} bits" in err
    # (1 + 2t)(3/4 + t^2) counts 2 x (2 + 3) + 2 x (5 + 2) bits: a term's size is
    # the bit lengths of max(|L|, |H|) and of E, here 1 + 1, 2 + 1, 2 + 3, 1 + 1
    monkeypatch.setattr(parsing, "MAX_PRODUCT_BITS", 24)
    assert run(capsys, "eval", "(1 + 2t)*(3/4 + t^2)")[:2] == (0, "3/4 + 3/2t + t^2 + 2t^3\n")
    monkeypatch.setattr(parsing, "MAX_PRODUCT_BITS", 23)
    code, _, err = run(capsys, "eval", "(1 + 2t)*(3/4 + t^2)")
    assert code == 2 and "more than 23 bits" in err and "position 8" in err


def test_oracle_coordinates_a_float_cannot_hold(capsys):
    too_large = "1" + "0" * 400
    code, _, err = run(capsys, "oracle", f"({too_large}, 0)", "(1, 1)", "--grid", "16")
    assert code == 2 and err.startswith("error:") and "too large" in err
    # 1.6e308 is a float, but the window around it reaches past the largest one
    code, _, err = run(capsys, "oracle", "(16" + "0" * 307 + ", 0)", "(1, 1)", "--grid", "16")
    assert code == 2 and err.startswith("error:") and "finite" in err


_BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv, shown",
    [
        # Fibonacci coefficients pass the largest float near t^1475
        (["eval", "1/(1-t-t^2)", "--order", "1480"], "1 + t + 2t^2 + 3t^3 + 5t^4"),
        (["eval", f"{_BEYOND_FLOAT} + O(t)"], f"{_BEYOND_FLOAT} + O(t)\n"),
        (["dist", "rationals-line", _BEYOND_FLOAT, "0"], f"d = {_BEYOND_FLOAT}\n"),
    ],
    ids=["eval-fibonacci", "eval-1e400", "dist-1e400"],
)
def test_values_beyond_the_float_range_print(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.startswith(shown)
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == ""
    # beyond the float range the approximation is null; the exact endpoints stay
    payload = json.loads(out)
    last = payload["value"]["terms"][-1] if argv[0] == "eval" else payload["standard_part"]
    assert last["approx"] is None and len(last["lo"]) >= 309


def test_integers_past_the_digit_limit_print(capsys):
    # 6,001-digit products and a distance whose JSON endpoints pass 4,300
    # digits: the output prints whole, and the limit is restored after it
    from ihull import hull, lcf, spaces

    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * 3000
    far = f"(-{_BEYOND_FLOAT}/7 + t, 0)"
    code, out, err = run(capsys, "eval", f"{big}*{big}")
    assert (code, out, err) == (0, "1" + "0" * 6000 + "\n", "")
    code, out, err = run(capsys, "eval", f"{big}*{big}", "--json")
    assert code == 0 and json.loads(out) == {"value": "1" + "0" * 6000}
    code, out, err = run(capsys, "classify", f"({big}*{big}, 0)", "--json")
    assert code == 0 and json.loads(out)["standard_point"][0] == "1" + "0" * 6000
    code, out, err = run(capsys, "dist", "euclidean-plane", far, "(0, 1)")
    assert code == 0 and err == "" and out.endswith("st ~ 1.42857142857e+399\n")
    code, out, err = run(capsys, "dist", "euclidean-plane", far, "(0, 1)", "--json")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    space = spaces.get_space("euclidean-plane")
    points = (space.point(*parse_point(p, lcf.DEFAULT_ORDER)) for p in (far, "(0, 1)"))
    d = hull.extended_distance(space, *points)
    payload = json.loads(out)
    terms = payload["distance"]["terms"]
    assert max(len(t[end]) for t in terms for end in ("lo", "hi")) > 4300
    sys.set_int_max_str_digits(0)  # to read the endpoints back
    try:
        assert [(Fraction(t["lo"]), Fraction(t["hi"])) for t in terms] == [
            (c.lo, c.hi) for _, c in d.terms
        ]
        st = payload["standard_part"]
        assert (Fraction(st["lo"]), Fraction(st["hi"])) == (d.terms[0][1].lo, d.terms[0][1].hi)
    finally:
        sys.set_int_max_str_digits(limit)


def test_approximate_text_beyond_the_float_range(capsys):
    # a square root of 10^800 + 1 is an enclosure, shown by its decimal rounding
    code, out, _ = run(capsys, "dist", "euclidean-plane", f"({_BEYOND_FLOAT}, 0)", "(0, 1)")
    assert code == 0 and out == "d = ~1e+400\nst ~ 1e+400\n"


def test_oracle_window_whose_edge_weights_overflow(capsys):
    # the window is finite, but r * dzeta squared is not: rejected before any
    # graph is built, so numpy never warns and no inf is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge_angle = "(1, 17" + "0" * 306 + ")"
        code, out, err = run(capsys, "oracle", huge_angle, "(1, 1)", "--grid", "16")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "float range" in err and "inf" not in err


def test_parse_error_exit_code_and_position(capsys):
    code, _, err = run(capsys, "eval", "1 + &")
    assert code == 2
    assert "position 4" in err


def test_deeply_nested_literals_are_parse_errors(capsys):
    from ihull.parsing import MAX_NESTING

    nested = "(" * 250 + "1" + ")" * 250  # 501 characters
    code, out, err = run(capsys, "eval", nested)
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and f"position {MAX_NESTING}" in err
    admitted = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert run(capsys, "eval", admitted)[:2] == (0, "1\n")
    # signs fold in a loop: any number of them parses
    assert run(capsys, "eval", "--", "-" * 1000 + "1")[:2] == (0, "1\n")
    assert run(capsys, "eval", "--", "-" * 999 + "1")[:2] == (0, "-1\n")


def test_truncation_and_exponent_errors(capsys):
    # an O(1) tail absorbs every term of non-negative exponent
    assert run(capsys, "eval", "1+t+O(1)") == (0, "O(1)\n", "")
    for literal, message in (
        ("t^t", "expected a rational exponent after ^ (at position 2)"),
        ("O(2)", "expected t or 1 inside O(...) (at position 2)"),
        ("O(1/0)", "zero denominator in rational literal (at position 2)"),
    ):
        assert run(capsys, "eval", literal) == (2, "", f"parse error: {message}\n")


def test_completion_distances_at_the_restored_origin(capsys):
    assert run(capsys, "dist", "cover-completion", "(0,0)", "(1,2)")[:2] == (0, "d = 1\nst = 1\n")
    assert run(capsys, "hull-dist", "cover-completion", "(0,0)", "(t,1)")[:2] == (0, "0\n")


def test_hull_dist_raises_an_undecidable_branch_at_once(capsys, monkeypatch):
    # 355/113 is within 2^-8 of pi: the branch test of the standard points
    # (here the points themselves) cannot settle at precision 8, and the one
    # distance call raises it
    from ihull import hull, spaces

    calls = []
    distance = hull.extended_distance

    def counted(s, a, b):
        calls.append((a, b))
        return distance(s, a, b)

    monkeypatch.setattr(hull, "extended_distance", counted)
    code, out, err = run(capsys, "hull-dist", "cover", "(1,0)", "(1, 355/113)", "--precision", "8")
    assert code == 3 and out == "" and err.startswith("indeterminate: angle gap vs pi")
    cover = spaces.get_space("cover")
    a, b = cover.point(1, 0), cover.point(1, Fraction(355, 113))
    assert calls == [(a, b)]


@pytest.mark.parametrize("space, p, q", [
    ("euclidean-plane", "(1 + O(t^3), 0)", "(1 + O(t^3), 0)"),
    ("cover", "(1 + t + O(t^2), 2)", "(1, 2)"),
    ("cover", "(t + O(t^3), 2)", "(t, 2)"),
])
def test_hull_dist_of_infinitely_close_points_is_zero(capsys, space, p, q):
    # the first two pairs share their standard point; the last lies in the
    # origin halo of the cover, where the squared distance is O(t^4)
    assert run(capsys, "hull-dist", space, p, q) == (0, "0\n", "")


def test_dist_of_infinitely_close_points_is_a_bound(capsys):
    # no term of the squared distance is known, so the distance is the
    # bound O(t^(L/2)) for a squared distance O(t^L): two points of
    # 1 + O(t^3) differ by O(t^3), whose square is O(t^6)
    plane = ("euclidean-plane", "(1 + O(t^3), 0)", "(1 + O(t^3), 0)")
    assert run(capsys, "dist", *plane) == (0, "d = O(t^3)\nst = 0\n", "")
    cover = ("cover", "(t + O(t^3), 2)", "(t, 2)")
    assert run(capsys, "dist", *cover) == (0, "d = O(t^2)\nst = 0\n", "")


def test_dist_at_order_0_is_a_bound_on_the_cover_as_on_the_plane(capsys):
    # the squared chord has no term below its order 0, so the distance is
    # O(1), whose standard part is blocked at t^0
    want = (0, "d = O(1)\nst = (undetermined: blocking exponent 0)\n", "")
    cover = ("cover", "(4, 1/2 + t^2)", "(1 + t, -2/3)")
    assert run(capsys, "dist", "--order", "0", "--", *cover) == want
    plane = ("euclidean-plane", "(1 + t, 0)", "(2, 0)")
    assert run(capsys, "dist", "--order", "0", "--", *plane) == want


def test_hull_dist_from_the_restored_origin(capsys):
    # (t, 355/113) lies in the origin halo, whose standard point in the
    # completion is the restored origin: the hull distance is st r of (1, 0),
    # although the representatives' own branch test is undecidable at 8 bits
    argv = ["hull-dist", "cover-completion", "(t, 355/113)", "(1, 0)", "--precision", "8"]
    assert run(capsys, *argv) == (0, "1\n", "")
    assert run(capsys, "hull-dist", "cover", *argv[2:])[0] == 3


def test_usage_error_exit_code(capsys):
    assert main(["dist", "no-such-space", "(1,0)", "(2,0)"]) == 2
    capsys.readouterr()
    assert main(["classify", "(0, 1)"]) == 2  # r must be positive
    capsys.readouterr()
    assert main(["dist", "cover", "(1,0)"]) == 2  # missing argument
    capsys.readouterr()


def test_indeterminate_exit_code(capsys):
    # distance of two values equal up to an unknown tail: sign is undecidable
    code, _, err = run(capsys, "dist", "rationals-line", "1 + O(t^2)", "1")
    assert code == 3
    assert "indeterminate" in err.lower()


def test_radial_coordinate_of_unknown_sign_is_indeterminate(capsys):
    # 1/(1 + t^-1) = t - t^2 + ... is O(t) at order 0: no term decides its sign
    argv = ["dist", "--order", "0", "--", "cover", "(1/(1+t^-1), 0)", "(1, 0)"]
    want = "indeterminate: radial coordinate of unknown sign (blocking exponent 1)\n"
    assert run(capsys, *argv) == (3, "", want)
    argv[2] = "1"
    assert run(capsys, *argv) == (0, "d = 1 + O(t)\nst = 1\n", "")


@pytest.mark.parametrize("seed", [5, 7])
def test_generated_calls_keep_the_exit_code_contract(seed):
    # 500 calls of the seeded sweep: each answers (0), is rejected (2) or is
    # indeterminate (3) and names its blocking exponent, never raises, and
    # reports nothing undecided as an error; an undetermined standard part
    # names its blocking exponent too.  Each call's exit code and output digest
    # equal the "seed code digest" lines of tests/golden/cli-sweep.txt, written by
    #   for s in 5 7; do PYTHONPATH=src python tests/cli_sweep.py $s 500 |
    #     awk -v s=$s '{print s, $(NF-1), $NF}'; done > tests/golden/cli-sweep.txt
    # and rewritten only by a change that means to change the CLI's output
    lines = (GOLDEN / "cli-sweep.txt").read_text().splitlines()
    golden = [line.split(" ", 1)[1] for line in lines if line.startswith(f"{seed} ")]
    assert len(golden) == 500
    for (argv, code, out, err), want in zip(cli_sweep.calls(seed, 500), golden):
        assert cli_sweep.line(argv, code, out, err).endswith(" " + want), (argv, code, out, err)
        assert code in ("0", "2", "3"), (argv, code, err)
        assert code != "3" or "(blocking exponent " in err, (argv, err)
        undecided = ("undecidable", "undetermined", "may be infinite")
        assert code != "2" or not any(word in err for word in undecided), (argv, err)
        for line in out.splitlines():
            assert not line.startswith("st = (undetermined") or re.fullmatch(
                r"st = \(undetermined: blocking exponent -?\d+(/\d+)?\)", line
            ), (argv, line)


def test_a_divisor_of_undecided_lead_is_indeterminate(capsys):
    # O(t^3) holds members that vanish and members that do not: whether the
    # quotient exists is undecided at t^3, while dividing by an exact 0 is malformed
    want = (
        "indeterminate: cannot divide: cannot invert: leading coefficient is zero or of "
        "unknown sign (blocking exponent 3)\n"
    )
    assert run(capsys, "eval", "--order", "2", "--", "O(t^-2)/O(t^3)") == (3, "", want)
    code, _, err = run(capsys, "eval", "--", "1/(t - t)")
    assert code == 2 and err.startswith("parse error: cannot divide")


def test_wrong_dimension_rejected(capsys):
    code, _, err = run(capsys, "dist", "cover", "1", "2")
    assert code == 2 and "coordinates" in err


def test_verify_exit_codes_for_fail_and_unknown(capsys, monkeypatch):
    from ihull import scenarios

    def fake_scenario(name, seed=0):
        return {
            "scenario": name,
            "checks": [{"name": "x", "verdict": fake_scenario.verdict, "details": ""}],
        }

    monkeypatch.setattr(scenarios, "run_scenario", fake_scenario)
    fake_scenario.verdict = "fail"
    assert main(["verify", "hb-failure"]) == 1
    capsys.readouterr()
    fake_scenario.verdict = "unknown"
    assert main(["verify", "hb-failure"]) == 3
    capsys.readouterr()


SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs `ihull.cli.main(ARGS)` and prints the exit code and the loaded modules
#: of the package, `dataclasses` and `scipy` (python -c LOADS SRC ARGS...).
LOADS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from ihull.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
names = ("ihull", "dataclasses", "scipy")
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] in names)]))
"""


def test_import_leaves_scipy_unloaded():
    # each command loads the modules it runs, in a fresh interpreter: the
    # arithmetic for eval, + cover for classify and net, + spaces and hull for
    # dist and hull-dist, everything but scipy for verify, scipy for oracle
    arithmetic = {"ihull", "ihull.cli", "ihull.errors", "ihull.intervals", "ihull.lcf",
                  "ihull.parsing"}
    loaded = {}
    for argv in (
        ["eval", "1/(1 - t)"],
        ["classify", "(1, t^-1)"],
        ["net", "3"],
        ["dist", "cover", "(1, t^-1)", "(t, 0)"],
        ["hull-dist", "cover", "(1, t^-1)", "(t, 0)"],
        ["verify", "hb-failure"],
        ["oracle", "(1, 0)", "(1, 1)", "--grid", "16"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", LOADS, str(SRC), *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0, argv
        loaded[argv[0]] = set(modules)
    assert loaded["eval"] == arithmetic
    assert loaded["classify"] == loaded["net"] == arithmetic | {"ihull.cover"}
    for command in ("dist", "hull-dist"):
        assert not loaded[command] & {"ihull.scenarios", "ihull.probes"}, command
    assert {"ihull.scenarios", "ihull.probes", "dataclasses"} <= loaded["verify"]
    assert [c for c, modules in loaded.items() if "scipy" in modules] == ["oracle"]


@pytest.mark.parametrize("blocked", ["numpy", "scipy"])
def test_oracle_without_numpy_or_scipy_exits_2(blocked):
    # a fresh interpreter in which the import fails, as it does where the
    # oracle extra is not installed; nothing is uninstalled
    script = f"import sys; sys.modules[{blocked!r}] = None\n" + LOADS
    proc = subprocess.run(
        [sys.executable, "-c", script, str(SRC), "oracle", "(1, 0)", "(1, 1)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)[0] == 2, proc.stderr
    assert proc.stderr == (
        "error: the grid oracle needs numpy and scipy (pip install 'ihull[oracle]')\n"
    )


#: The calls whose usage and help text `tests/golden/cli-usage.txt` pins:
#: their choices print from the registries, which load when argparse reads them.
USAGE_CALLS = (
    ["--help"],
    ["dist", "--help"],
    ["hull-dist", "--help"],
    ["verify", "--help"],
    ["dist", "nope", "(1, 0)", "(1, 0)"],
    ["verify", "nope"],
)


def usage_transcript(src: Path = SRC) -> str:
    """`$ ihull ARGS`, the exit code, stdout and stderr of each of USAGE_CALLS,
    each in a fresh `python -m ihull.cli` on `src` at 80 columns."""
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    parts = []
    for argv in USAGE_CALLS:
        proc = subprocess.run(
            [sys.executable, "-m", "ihull.cli", *argv], capture_output=True, text=True, env=env
        )
        parts.append(
            f"$ ihull {shlex.join(argv)}\nexit {proc.returncode}\n"
            f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}"
        )
    return "".join(parts)


def test_usage_and_help_text_match_golden():
    # regenerate: python -c "import sys; sys.path[:0] = ['tests', 'src']; import
    #   test_cli; print(test_cli.usage_transcript(), end='')" > tests/golden/cli-usage.txt
    assert usage_transcript() == (GOLDEN / "cli-usage.txt").read_text()


def _readme_examples():
    """(argv, comment) for each line of README's "Command line" examples."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    examples = []
    for line in block.split("```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "ihull", line
        examples.append(pytest.param(argv[1:], comment.strip(), id=" ".join(argv[1:])))
    return examples


@pytest.mark.parametrize("argv, comment", _readme_examples())
def test_readme_example(capsys, argv, comment):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if argv[0] in ("eval", "classify", "hull-dist"):
        # the comment is the first line of output
        assert out.splitlines()[0] == comment
