"""Named verification scenarios behind the CLI `verify` command.

Each scenario returns ``{"scenario": name, "checks": [{"name", "verdict",
"details"}]}`` with verdict one of pass / fail / unknown.  Checks are exact
where the arithmetic is exact; probe-based checks are deterministic given
the seed.  Every scenario works at the library's default order and
precision.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from . import cover, hull, lcf, probes, spaces
from .errors import IndeterminateComparison
from .lcf import LeviCivitaNumber, Magnitude, Ordering, Ternary


def run_scenario(name: str, seed: int = 0) -> dict:
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        ) from None
    return {"scenario": name, "checks": runner(seed)}


def _check(name: str, passed: bool, details: str) -> dict:
    return {"name": name, "verdict": "pass" if passed else "fail", "details": details}


def _unknown(name: str, details: str) -> dict:
    return {"name": name, "verdict": "unknown", "details": details}


# ---------------------------------------------------------------------------
# the standard-part morphism and its kernel
# ---------------------------------------------------------------------------

def _standard_part_morphism(seed: int) -> list[dict]:
    rng = Random(seed)
    pairs = [(probes.random_finite(rng), probes.random_finite(rng)) for _ in range(500)]
    add_bad = mul_bad = 0
    for a, b in pairs:
        if lcf.standard_part(lcf.add(a, b)) != lcf.standard_part(a) + lcf.standard_part(b):
            add_bad += 1
        if lcf.standard_part(lcf.mul(a, b)) != lcf.standard_part(a) * lcf.standard_part(b):
            mul_bad += 1
    kernel_bad = 0
    for value in [v for pair in pairs for v in pair]:
        zero_part = lcf.standard_part(value).is_zero
        infinitesimal = lcf.classify_magnitude(value) is Magnitude.INFINITESIMAL
        if zero_part != infinitesimal:
            kernel_bad += 1
    approx_bad = 0
    for _ in range(100):
        y = probes.random_finite(rng)
        try:
            q = lcf.approximate_within(y, lcf.T)
        except IndeterminateComparison:
            approx_bad += 1
            continue
        if not q.is_exact or lcf.halo_equal(q, y) is not Ternary.TRUE:
            approx_bad += 1
    return [
        _check(
            "standard-part-additive",
            add_bad == 0,
            f"exact equality on {len(pairs)} random pairs ({add_bad} failures)",
        ),
        _check(
            "standard-part-multiplicative",
            mul_bad == 0,
            f"exact equality on {len(pairs)} random pairs ({mul_bad} failures)",
        ),
        _check(
            "kernel-is-infinitesimals",
            kernel_bad == 0,
            f"st(a) = 0 iff a infinitesimal on {2 * len(pairs)} values "
            f"({kernel_bad} failures)",
        ),
        _check(
            "rational-approximation",
            approx_bad == 0,
            f"q within t of y, q ~ y, for 100 random finite y ({approx_bad} failures)",
        ),
    ]


# ---------------------------------------------------------------------------
# the inapproachable hull point of the cover
# ---------------------------------------------------------------------------

def _cover_inapproachable(seed: int) -> list[dict]:
    del seed
    center = cover.point(lcf.one(), lcf.T_INVERSE)
    origin_rep = cover.point(lcf.T, lcf.zero())
    distance = cover.cover_distance(center, origin_rep)
    st = lcf.standard_part(distance)
    expected_bound = LeviCivitaNumber(
        ((Fraction(0), 1), (Fraction(1), 2), (Fraction(2), -2))
    )
    bound = cover.three_leg_upper_bound(center, lcf.T)
    checks = [
        _check(
            "distance-standard-part-one",
            st.is_exact and st.lo == 1,
            f"st d((1, t^-1), (t, 0)) = {st} (exact arithmetic)",
        ),
        _check(
            "three-leg-bound-exact",
            bound == expected_bound,
            f"path chain evaluates to {bound}",
        ),
        _check(
            "bound-dominates-distance",
            lcf.compare(distance, bound) is Ordering.LT,
            f"distance {distance} < bound {bound}",
        ),
        _check(
            "separation-ball-half",
            cover.inapproachability_lower_bound(center, cover.point(1, 0))
            == Fraction(1, 2)
            and cover.inapproachability_lower_bound(center, cover.point(7, 3))
            == Fraction(1, 2),
            "rectangle certificate gives radius 1/2 for any finite-angle point",
        ),
        _check(
            "classification",
            cover.classify_point(center) is cover.Verdict.FINITE_INAPPROACHABLE,
            f"(1, t^-1) classifies as {cover.classify_point(center).value}",
        ),
    ]
    space = spaces.get_space("cover")
    galaxy = hull.in_galaxy(space, space.point(center.r, center.zeta))
    checks.append(
        _check(
            "in-hull",
            galaxy is Ternary.TRUE,
            "(1, t^-1) is at finite distance from the basepoint",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# harness scenarios
# ---------------------------------------------------------------------------

def _harness_check(name: str, report: hull.HarnessReport) -> dict:
    """A harness report as a check; each clause says whether it holds."""
    details = "; ".join(
        f"{c.name}: {'yes' if c.holds else 'no'} ({c.note})" for c in report.clauses
    )
    if report.passed and report.unknown_count:
        return _unknown(name, details)
    return _check(name, report.passed, details)


def _harness(name: str, check, witness, plan, seed: int) -> list[dict]:
    """Run `check` on each space of `plan` with its count of seeded probes
    and, where `witness` names one, the space's witness probe."""
    rng = Random(seed)
    checks = []
    for space_name, count in plan:
        space = spaces.get_space(space_name)
        probe_list = probes.finite_probes(space, rng, count)
        witness_probe = witness(space)
        if witness_probe is not None:
            probe_list.append(witness_probe)
        report = check(space, probe_list)
        checks.append(_harness_check(f"{name}[{space_name}]", report))
    return checks


def _hb_failure(seed: int) -> list[dict]:
    del seed
    net = cover.separated_net(10)
    unit_ok = all(cover.completion_distance(None, p) == lcf.one() for p in net)
    pairs = list(itertools.combinations(net, 2))
    pairs_ok = all(cover.cover_distance(p, q) == lcf.from_rational(2) for p, q in pairs)
    close_pair = cover.cover_distance(cover.point(1, 0), cover.point(1, 1))
    control_ok = lcf.compare(close_pair, lcf.from_rational(2)) is Ordering.LT
    return [
        _check(
            "net-on-unit-sphere",
            unit_ok,
            "all 10 net points at completion-distance exactly 1 from the origin",
        ),
        _check(
            "net-2-separated",
            pairs_ok,
            f"{len(pairs)} pairwise distances, all exactly 2",
        ),
        _check(
            "sub-pi-control",
            control_ok,
            "points (1,0), (1,1) at spacing below pi are closer than 2",
        ),
    ]


_RUNNERS = {
    "theorem-1.1": _standard_part_morphism,
    "cover-inapproachable": _cover_inapproachable,
    "proposition-a": lambda seed: _harness(
        "proposition-a",
        hull.check_proposition_a,
        spaces.incompleteness_witness,
        (("euclidean-plane", 50), ("rationals-line", 50), ("cover", 50)),
        seed,
    ),
    "theorem-b": lambda seed: _harness(
        "theorem-b",
        hull.check_theorem_b,
        spaces.inapproachability_witness,
        (("rationals-line", 100), ("euclidean-plane", 100), ("cover", 50),
         ("cover-completion", 50)),
        seed,
    ),
    "hb-failure": _hb_failure,
}

SCENARIO_NAMES = tuple(_RUNNERS)
