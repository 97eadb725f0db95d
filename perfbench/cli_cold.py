"""cli-cold: one `python -m ihull.cli ... --json` child process per query.

Users pay interpreter start-up and imports on every call: a call takes
0.6-0.9 s against about 0.1 s for a bare interpreter, mostly scipy pulled in
through `gridoracle`.  This is the only workload that measures `cli`,
`parsing` of command-line literals and import cost.  Children run one at a
time; the exit code and the JSON fields of each are checked.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random

from ihull import lcf, parsing, probes
from ihull.intervals import Interval

from common import (
    Query,
    mp_cover_distance,
    require,
    require_contains,
    series_encloses,
    standard_value,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 60
IMPORT_TIME_RUNS = 3


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_child(argv: list[str], tracer) -> tuple[int, dict | None]:
    if tracer is None:
        cmd = [sys.executable, "-m", "ihull.cli", *argv, "--json"]
        trace_file = None
    else:
        fd, trace_file = tempfile.mkstemp(suffix=".json", dir=HERE / "out")
        os.close(fd)
        cmd = [sys.executable, str(HERE / "clishim.py"), trace_file, *argv, "--json"]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if trace_file is not None and proc.returncode in (0, 1, 3):
            tracer.merge(json.loads(Path(trace_file).read_text()))
    finally:
        if trace_file is not None:
            os.unlink(trace_file)
    try:
        payload = json.loads(proc.stdout) if proc.stdout.strip() else None
    except json.JSONDecodeError:
        payload = None
    return proc.returncode, payload


def _interval(d: dict) -> Interval:
    return Interval(Fraction(d["lo"]), Fraction(d["hi"]))


def _number(value) -> lcf.LeviCivitaNumber:
    """A LeviCivitaNumber from the CLI's JSON encoding."""
    if isinstance(value, str):
        return parsing.parse_number(value)
    order = Fraction(value["order"]) if value["order"] is not None else lcf.INFINITE_ORDER
    terms = tuple((Fraction(t["exponent"]), _interval(t)) for t in value["terms"])
    return lcf.LeviCivitaNumber(terms, order)


def _query(
    kind, argv, tracer, check_payload, enclosures=lambda p: [], standard_parts=None, terms_read=lambda p: 0
) -> Query:
    def run():
        return _run_child(argv, tracer)

    def check(out, outputs):
        code, payload = out
        require(code == 0, f"{' '.join(argv)} exited {code}")
        require(payload is not None, f"{' '.join(argv)} printed no JSON")
        check_payload(payload)

    return Query(
        kind=kind,
        run=run,
        check=check,
        corrupt=lambda out: (1, out[1]),
        enclosures=lambda out: enclosures(out[1]),
        standard_parts=(lambda out: standard_parts(out[1])) if standard_parts else None,
        terms_read=lambda out: terms_read(out[1]),
        is_unknown=lambda out: out[0] == 3,
    )


def _eval_query(rng, tracer) -> Query:
    a = probes.random_finite(rng)
    b = probes.random_appreciable_positive(rng)
    text = f"({parsing.format_number(a)})/({parsing.format_number(b)})"

    def check(payload):
        value = _number(payload["value"])
        series_encloses(lcf.mul(value, b), {q: c.lo for q, c in a.terms}, lcf.DEFAULT_ORDER, text)

    return _query(
        "eval",
        ["eval", text],
        tracer,
        check,
        enclosures=lambda p: [c for _, c in _number(p["value"]).terms],
        standard_parts=lambda p: [_number(p["value"]).coefficient(0)],
        terms_read=lambda p: len(_number(p["value"]).terms),
    )


def _cover_point(rng):
    return probes.random_appreciable_positive(rng), lcf.from_rational(probes.random_fraction(rng))


def _reference(p, q):
    return mp_cover_distance(*(standard_value(c) for c in p + q))


def _dist_query(rng, tracer) -> Query:
    p, q = _cover_point(rng), _cover_point(rng)

    def check(payload):
        require(payload["space"] == "cover", "wrong space")
        require_contains(_interval(payload["standard_part"]), _reference(p, q), "dist st")
        _number(payload["distance"])

    return _query(
        "dist",
        ["dist", "cover", parsing.format_point(p), parsing.format_point(q)],
        tracer,
        check,
        enclosures=lambda pl: [_interval(pl["standard_part"])],
        terms_read=lambda pl: len(_number(pl["distance"]).terms),
    )


def _hull_dist_query(rng, tracer) -> Query:
    p, q = _cover_point(rng), _cover_point(rng)

    def check(payload):
        require_contains(_interval(payload["hull_distance"]), _reference(p, q), "hull-dist")

    return _query(
        "hull-dist",
        ["hull-dist", "cover", parsing.format_point(p), parsing.format_point(q)],
        tracer,
        check,
        enclosures=lambda pl: [_interval(pl["hull_distance"])],
        terms_read=lambda pl: 1,
    )


def _classify_queries(rng, tracer) -> list[Query]:
    r = probes.random_appreciable_positive(rng)
    z = probes.random_finite(rng)
    eps = probes.random_infinitesimal(rng)
    if lcf.sign(eps) < 0:
        eps = lcf.neg(eps)
    cases = [
        ((r, z), "nearstandard"),
        ((r, lcf.add(lcf.scale(lcf.T_INVERSE, probes.random_nonzero_fraction(rng)), z)), "finite_inapproachable"),
        ((eps, z), "origin_halo"),
        ((lcf.add(lcf.T_INVERSE, r), z), "outside_galaxy"),
    ]
    queries = []
    for coords, verdict in cases:
        def check(payload, verdict=verdict):
            require(payload["kind"] == "cover", "not classified as a cover point")
            require(payload["verdict"] == verdict, f"verdict {payload['verdict']}, expected {verdict}")

        queries.append(_query("classify", ["classify", parsing.format_point(coords)], tracer, check))
    return queries


def _net_query(rng, tracer) -> Query:
    n = rng.randint(3, 12)

    def check(payload):
        require(payload["points"] == [f"(1, {4 * k})" for k in range(n)], f"net {n} is wrong")

    return _query("net", ["net", str(n)], tracer, check)


def _verify_query(scenario, tracer) -> Query:
    def check(payload):
        require(payload["scenario"] == scenario, "wrong scenario")
        verdicts = [c["verdict"] for c in payload["checks"]]
        require(verdicts and all(v == "pass" for v in verdicts), f"{scenario}: {verdicts}")

    return _query("verify", ["verify", scenario], tracer, check)


def build(seed: int, tracer=None) -> list[Query]:
    rng = Random(seed)
    (HERE / "out").mkdir(exist_ok=True)
    queries: list[Query] = []
    for _ in range(4):
        queries.append(_eval_query(rng, tracer))
        queries.append(_dist_query(rng, tracer))
    queries += _classify_queries(rng, tracer)
    for _ in range(3):
        queries.append(_hull_dist_query(rng, tracer))
    queries += [_net_query(rng, tracer), _net_query(rng, tracer)]
    queries += [_verify_query("cover-inapproachable", tracer), _verify_query("hb-failure", tracer)]
    rng.shuffle(queries)
    # warm-up: byte-compile the package and load the file cache
    _run_child(["net", "2"], None)
    return queries


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def _import_costs(stderr: str) -> tuple[float, float]:
    """Cumulative import time of `ihull.cli`, and of every scipy module
    imported from outside scipy, from a `-X importtime` report."""
    rows = [(int(c), len(ind), name) for _, c, ind, name in _IMPORT_LINE.findall(stderr)]
    cli, scipy, stack = 0, 0, []
    # the report lists a module after the modules it imported; read it
    # backwards to see each module before its imports and know its importer
    for cumulative, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        importer = stack[-1][1] if stack else ""
        if name == "ihull.cli":
            cli = cumulative
        if name.split(".")[0] == "scipy" and importer.split(".")[0] != "scipy":
            scipy += cumulative
        stack.append((depth, name))
    return cli / 1e6, scipy / 1e6


def extra_metrics() -> dict:
    """Import cost of `ihull.cli` and of the scipy modules it pulls in, from
    `python -X importtime` (median of IMPORT_TIME_RUNS children)."""
    costs = []
    for _ in range(IMPORT_TIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ihull.cli"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        costs.append(_import_costs(proc.stderr))
    return {
        "cli.import_s": statistics.median(c[0] for c in costs),
        "cli.scipy_import_s": statistics.median(c[1] for c in costs),
    }
