"""Command-line front end.

Subcommands: eval, dist, classify, hull-dist, verify, oracle, net.  Each
declares only the shared flags it acts on:

    eval, classify      --order --json
    dist, hull-dist     --order --precision --json
    verify              --seed --json
    oracle              --precision --grid --json
    net                 --json

Literals are parsed at --order where a subcommand takes it, so ``/``
truncates its series there.  `verify` runs its fixed scenarios at the
library's default order and precision; --seed picks their probes.

Exit codes: 0 all checks pass / value printed; 1 a verification check
failed; 2 usage, parse, or domain error; 3 a query was indeterminate at the
requested order/precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from importlib import import_module

from . import lcf, parsing  # the other modules load in the commands that run them
from .errors import (
    IhullError,
    IndeterminateComparison,
    NotFinite,
    ParseError,
)
from .intervals import _triple
from .parsing import format_number, number_to_json, parse_expression, parse_point

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

#: The largest --precision accepted: enclosing pi alone grows like p^2.4,
#: about 0.02 s at 4,096 bits and 0.75 s at 16,000 (2-core x86-64, Python 3.11).
MAX_PRECISION = 4096
#: The largest |--order| (README's `--order` paragraph: the worst eval found takes ~37 s).
MAX_ORDER = 2048
#: The most points of the literals' exponent lattice (1/D)Z in [0, |--order|)
#: for dist and hull-dist, whose series run on enclosures; as ceil(|Q| D) >= |Q|,
#: it bounds their |--order| too.
MAX_DISTANCE_ORDER = 64
#: The most such points for eval and classify (README: its 1/(1-t/2-t^2/3)).
MAX_LATTICE_POINTS = 3 * MAX_ORDER
#: The largest denominator of --order: it keeps the order a short literal.  It
#: joins a value's stored lattice, not the points a series computes.
MAX_ORDER_DENOMINATOR = 1000
#: The largest `net n`: about 0.1 ms a point.
MAX_NET_POINTS = 10_000


def precision_bits(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"precision must be between 1 and {MAX_PRECISION} bits, got {value}"
        )
    return value


def net_points(text: str) -> int:
    value = int(text)
    if not 2 <= value <= MAX_NET_POINTS:
        raise argparse.ArgumentTypeError(
            f"a net has between 2 and {MAX_NET_POINTS} points, got {value}"
        )
    return value


def order_value(text: str) -> Fraction:
    # no exponent form: Fraction("1e10000000") computes 10^10000000 first
    try:
        value = None if "e" in text.lower() else Fraction(text)
    except ZeroDivisionError:  # n/0
        value = None
    if value is None or abs(value) > MAX_ORDER or value.denominator > MAX_ORDER_DENOMINATOR:
        raise argparse.ArgumentTypeError(
            f"order must be a rational n/d or decimal of size at most {MAX_ORDER} "
            f"and denominator at most {MAX_ORDER_DENOMINATOR}, got {text}"
        )
    return value


_SHARED_FLAGS = {
    "order": dict(
        type=order_value, default=lcf.DEFAULT_ORDER, metavar="Q",
        help="truncation order for series operations (rational, default %(default)s)",
    ),
    "precision": dict(
        type=precision_bits, default=lcf.DEFAULT_PRECISION, metavar="N",
        help=f"enclosure precision in bits, at most {MAX_PRECISION} (default %(default)s)",
    ),
    "seed": dict(type=int, default=0, metavar="S", help="seed for generated probes"),
}


class _Names:
    """A registry's names, read when argparse checks (`in` iterates) or prints one, so
    only its subcommand loads it; set as `choices` after add_argument, which reads them."""

    def __init__(self, module: str, names: str):
        self.module, self.names = module, names

    def __iter__(self):
        return iter(getattr(import_module(self.module, __package__), self.names))


def _flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add the named shared flags, those the subcommand acts on, and --json."""
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output on stdout"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ihull",
        description="exact infinitesimal arithmetic, hull distances, and the "
        "punctured-plane universal cover",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    space_names = _Names(".spaces", "SPACE_NAMES")

    p_eval = sub.add_parser("eval", help="evaluate an arithmetic expression")
    p_eval.add_argument("expr")
    _flags(p_eval, "order")

    p_dist = sub.add_parser("dist", help="extended distance between two points")
    p_dist.add_argument("space").choices = space_names
    p_dist.add_argument("p1")
    p_dist.add_argument("p2")
    _flags(p_dist, "order", "precision")

    p_cls = sub.add_parser(
        "classify", help="classify a number (magnitude) or cover point"
    )
    p_cls.add_argument("point")
    _flags(p_cls, "order")

    p_hd = sub.add_parser("hull-dist", help="hull distance (standard part) of halos")
    p_hd.add_argument("space").choices = space_names
    p_hd.add_argument("p1")
    p_hd.add_argument("p2")
    _flags(p_hd, "order", "precision")

    p_ver = sub.add_parser("verify", help="run a named verification scenario")
    p_ver.add_argument("scenario").choices = _Names(".scenarios", "SCENARIO_NAMES")
    _flags(p_ver, "seed")

    p_or = sub.add_parser("oracle", help="grid-oracle vs closed-form distance")
    p_or.add_argument("p1")
    p_or.add_argument("p2")
    p_or.add_argument(
        "--grid", type=int, default=256, metavar="N", help="levels per axis (at most 1024)"
    )
    _flags(p_or, "precision")

    p_net = sub.add_parser("net", help="print the 2-separated unit-sphere net")
    p_net.add_argument("n", type=net_points)
    _flags(p_net)

    return parser


def _emit(args, payload, text_lines) -> None:
    """Print `payload()` as JSON or the lines of `text_lines()`, building only
    the output printed; its integers print at any length (literals are still
    parsed under the interpreter's digit limit)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.json:
            print(json.dumps(payload(), indent=2))
        else:
            for line in text_lines():
                print(line)
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_eval(args) -> int:
    value = parse_expression(args.expr, args.order)
    _emit(args, lambda: {"value": number_to_json(value)}, lambda: [format_number(value)])
    return EXIT_OK


def _space_points(args):
    from . import spaces
    space = spaces.get_space(args.space, args.order, args.precision)
    return space, *(space.point(*parse_point(p, args.order)) for p in (args.p1, args.p2))


def _cmd_dist(args) -> int:
    from . import hull
    space, a, b = _space_points(args)
    d = hull.extended_distance(space, a, b)
    try:
        st, blocked = lcf.standard_part(d), None
    except NotFinite:
        st = blocked = None
    except IndeterminateComparison as exc:
        st, blocked = None, exc.exponent

    def payload():
        st_json = None if st is None else {
            "lo": str(st.lo), "hi": str(st.hi), "approx": parsing.approx_float(_triple(st))
        }
        payload = {"space": args.space, "distance": number_to_json(d), "standard_part": st_json}
        if blocked is not None:
            payload["blocking_exponent"] = str(blocked)
        return payload

    def lines():
        if blocked is not None:
            tail = f"st = (undetermined: blocking exponent {blocked})"
        elif st is None:
            tail = "st = (not finite)"
        elif st.is_exact:
            tail = f"st = {st.lo}"
        else:
            tail = f"st ~ {parsing.approx_text(_triple(st), 12)}"
        return [f"d = {format_number(d)}", tail]

    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_classify(args) -> int:
    coords = parse_point(args.point, args.order)
    if len(coords) == 1:
        verdict = lcf.classify_magnitude(coords[0])
        _emit(args, lambda: {"kind": "magnitude", "verdict": verdict.value}, lambda: [verdict.value])
        return EXIT_OK
    if len(coords) != 2:
        raise ParseError("expected a number or a pair", 0)
    from . import cover
    verdict = cover.classify_point(cover.CoverPoint(coords[0], coords[1]))
    near = verdict is cover.Verdict.NEARSTANDARD
    st = lambda: [str(lcf.standard_part(c)) for c in coords]  # called in _emit: no digit limit

    def payload():
        return {"kind": "cover", "verdict": verdict.value, **({"standard_point": st()} if near else {})}

    _emit(args, payload, lambda: ["nearstandard ({}, {})".format(*st()) if near else verdict.value])
    return EXIT_OK


def _cmd_hull_dist(args) -> int:
    from . import hull
    value = hull.hull_distance(*_space_points(args))
    _emit(
        args,
        lambda: {
            "space": args.space,
            "hull_distance": {"lo": str(value.lo), "hi": str(value.hi)},
            "approx": parsing.approx_float(_triple(value)),
        },
        lambda: [str(value)],
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import scenarios
    report = scenarios.run_scenario(args.scenario, args.seed)
    lines = [f"scenario: {report['scenario']}"]
    for check in report["checks"]:
        lines.append(f"  {check['verdict']:7s} {check['name']}: {check['details']}")
    verdicts = [c["verdict"] for c in report["checks"]]
    if "fail" in verdicts:
        code = EXIT_CHECK_FAILED
    elif "unknown" in verdicts:
        code = EXIT_INDETERMINATE
    else:
        code = EXIT_OK
    lines.append(f"result: {'pass' if code == EXIT_OK else 'fail' if code == 1 else 'unknown'}")
    _emit(args, lambda: report, lambda: lines)
    return code


def _grid_coordinate(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a coordinate is too large for the float grid oracle") from None


def _cmd_oracle(args) -> int:
    from . import cover, spaces
    try:
        from . import gridoracle  # numpy and scipy: loaded only by this command
    except ModuleNotFoundError as exc:
        if exc.name.partition(".")[0] not in ("numpy", "scipy"):
            raise
        raise IhullError("the grid oracle needs numpy and scipy (pip install 'ihull[oracle]')") from None
    space = spaces.get_space("cover", precision=args.precision)
    coords = [space.point(*parse_point(p)).coords for p in (args.p1, args.p2)]
    a, b = (tuple(_grid_coordinate(cover.exact_standard_value(c)) for c in p) for p in coords)
    pa, pb = (cover.CoverPoint(*p) for p in coords)  # a radius <= 0 fails before any grid
    cfg = gridoracle.window_for([a, b], n_r=args.grid, n_zeta=args.grid)
    approx = gridoracle.oracle_distance(cfg, a, b)
    # at exact standard points no series runs, so no order is needed
    closed = float(
        lcf.standard_part(cover.cover_distance(pa, pb, precision=args.precision)).midpoint
    )
    gap = abs(approx - closed) / closed if closed else 0.0
    payload = {"oracle": approx, "closed_form": closed, "relative_gap": gap, "grid": args.grid}
    lines = [
        f"oracle      = {approx:.6f}",
        f"closed form = {closed:.6f}",
        f"relative gap = {gap:.4%}",
    ]
    _emit(args, lambda: payload, lambda: lines)
    return EXIT_OK


def _cmd_net(args) -> int:
    from . import cover
    net = cover.separated_net(args.n)
    rendered = [str(p) for p in net]
    _emit(args, lambda: {"points": rendered}, lambda: rendered)
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "dist": _cmd_dist,
    "classify": _cmd_classify,
    "hull-dist": _cmd_hull_dist,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "net": _cmd_net,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if hasattr(args, "order"):  # from the literals' tokens, before any is evaluated
            literals = [vars(args).get(name, "") for name in ("expr", "point", "p1", "p2")]
            points = math.ceil(abs(args.order) * math.lcm(*map(parsing.exponent_lcm, literals)))
            limit = MAX_DISTANCE_ORDER if args.command.endswith("dist") else MAX_LATTICE_POINTS
            if points > limit:
                raise ValueError(
                    f"--order {args.order} spans {points} points of the literals' "
                    f"exponent lattice, more than {limit}"
                )
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IndeterminateComparison as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (IhullError, ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
