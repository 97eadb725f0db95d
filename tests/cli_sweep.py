"""A seeded sweep of the CLI on generated literals, for diffing the output of
two trees:

    PYTHONPATH=src python tests/cli_sweep.py SEED N > sweep.txt

Each of the N calls runs `ihull.cli.main` in process: eval, dist, hull-dist
or classify, over the four spaces, at an order from ORDERS and, where the
command takes one, a precision from PRECISIONS, with --json on half of them.
The literals mix exact terms, ``O(...)`` terms, products and quotients.  Each
call prints one line: its argv as JSON, its exit code (``exc:<type>`` when
`main` raised), and a digest of its stdout plus stderr.  The file is not
named test_*, so pytest does not collect it; `tests/test_cli.py` checks the
CLI's exit-code contract on its `calls`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys

from ihull.cli import main

ORDERS = ("-1", "0", "1/2", "1", "2", "17/3", "8")
PRECISIONS = ("8", "64")
SPACES = ("rationals-line", "euclidean-plane", "cover", "cover-completion")

_COEFFICIENTS = ("1", "2", "3", "1/2", "3/2", "1/3", "7/4", "355/113")
_EXPONENTS = ("", "^2", "^3", "^-1", "^-2", "^1/2", "^2/3", "^-1/2")


def _term(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.2:
        return f"O(t{rng.choice(_EXPONENTS)})" if rng.random() < 0.8 else "O(1)"
    if roll < 0.45:
        return rng.choice(_COEFFICIENTS)
    coefficient = "" if rng.random() < 0.4 else rng.choice(_COEFFICIENTS)
    return f"{coefficient}t{rng.choice(_EXPONENTS)}"


def _sum(rng: random.Random) -> str:
    text = ("-" if rng.random() < 0.2 else "") + _term(rng)
    for _ in range(rng.randrange(3)):
        text += f" {rng.choice('+-')} {_term(rng)}"
    return text


def _factor(rng: random.Random) -> str:
    return f"({_sum(rng)})" if rng.random() < 0.6 else _term(rng)


def _divisor(rng: random.Random) -> str:
    """A factor whose leading coefficient is mostly known: 1 + a term."""
    if rng.random() < 0.3:
        return _factor(rng)
    return f"({rng.choice(_COEFFICIENTS)} {rng.choice('+-')} {_term(rng)})"


def literal(rng: random.Random) -> str:
    """A sum, a product of two factors, or a quotient."""
    roll = rng.random()
    if roll < 0.4:
        return _sum(rng)
    if roll < 0.7:
        return f"{_factor(rng)}*{_factor(rng)}"
    return f"{_factor(rng)}/{_divisor(rng)}"


def _radius(rng: random.Random) -> str:
    """A cover radius, mostly of decidably positive sign: c t^e (1 +- c' t^k)
    with k in 1, 2, 3, so that the lead stays c t^e."""
    if rng.random() < 0.2:
        return literal(rng)
    lead = f"{rng.choice(_COEFFICIENTS)}t{rng.choice(_EXPONENTS[:6])}"
    return f"{lead}*(1 {rng.choice('+-')} {rng.choice(_COEFFICIENTS)}t{rng.choice(_EXPONENTS[:3])})"


def _point(rng: random.Random, space: str) -> str:
    if space == "rationals-line":
        return literal(rng)
    first = _radius(rng) if space.startswith("cover") else literal(rng)
    return f"({first}, {literal(rng)})"


def arguments(rng: random.Random) -> list[str]:
    """One call's argv: the command, its flags, "--" (so that a literal
    starting with "-" is not read as a flag), and its literals."""
    command = rng.choice(("eval", "dist", "hull-dist", "classify"))
    flags = ["--order", rng.choice(ORDERS)]
    if command == "eval":
        positional = [literal(rng)]
    elif command == "classify":
        positional = [literal(rng) if rng.random() < 0.5 else _point(rng, "cover")]
    else:
        space = rng.choice(SPACES)
        positional = [space, _point(rng, space), _point(rng, space)]
        flags += ["--precision", rng.choice(PRECISIONS)]
    if rng.random() < 0.5:
        flags.append("--json")
    return [command, *flags, "--", *positional]


def calls(seed: int, n: int):
    """The sweep's n calls at `seed`, each run in process as (argv, exit code
    or ``exc:<type>`` when `main` raised, stdout, stderr)."""
    rng = random.Random(seed)
    for _ in range(n):
        argv = arguments(rng)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = str(main(argv))
            except Exception as exc:  # a traceback is a finding, not a stop
                code = f"exc:{type(exc).__name__}"
        yield argv, code, out.getvalue(), err.getvalue()


def line(argv: list[str], code: str, out: str, err: str) -> str:
    digest = hashlib.sha256((out + "\0" + err).encode()).hexdigest()
    return f"{json.dumps(argv)} {code} {digest[:16]}"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/cli_sweep.py SEED N")
    for result in calls(int(sys.argv[1]), int(sys.argv[2])):
        print(line(*result), flush=True)
