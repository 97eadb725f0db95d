"""The discrete shortest-path oracle on the annular grid."""

import functools
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from ihull.errors import OutOfWindow
from ihull.gridoracle import (
    _OFFSETS,
    MAX_GRID_NODES,
    GridConfig,
    _build_graph,
    _radial_levels,
    _with_levels,
    oracle_distance,
    oracle_distances,
    window_for,
)
from ihull.intervals import Interval, pi_interval
from kernels import cos_sin_interval

CHORD_1 = 0.9588510772084060  # closed form for (1,0)-(1,1)


def test_config_invariants():
    with pytest.raises(ValueError):
        GridConfig(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GridConfig(0.1, 1.0, 0.0, 1.0, n_r=8)
    with pytest.raises(ValueError):
        GridConfig(0.1, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        GridConfig(0.1, 1.0, 0.0, 1.0, connectivity="16-neighbor")
    for bounds in (
        (0.1, math.inf, 0.0, 1.0),
        (0.1, 1.0, -math.inf, 1.0),
        (0.1, 1.0, 0.0, math.nan),
        (math.nan, 1.0, 0.0, 1.0),
    ):
        with pytest.raises(ValueError, match="finite"):
            GridConfig(*bounds)


def test_grid_size_bound():
    # a config allocates nothing, so the bound is checked on both sides of it
    GridConfig(0.1, 1.0, 0.0, 1.0, n_r=16, n_zeta=MAX_GRID_NODES // 16)
    GridConfig(0.1, 1.0, 0.0, 1.0, n_r=1024, n_zeta=1024)
    assert 17 * 61681 == MAX_GRID_NODES + 1
    with pytest.raises(ValueError, match="exceeds"):
        GridConfig(0.1, 1.0, 0.0, 1.0, n_r=17, n_zeta=61681)
    # the batch grid of acceptance criterion 2 and the benchmark
    window_for([(1.0, 50.0), (1.5, -40.0)], n_r=96, n_zeta=1024)


def test_window_builder_margins():
    cfg = window_for([(1, 0), (2, 0)])
    assert cfg.r_min <= 0.02 * 1
    assert cfg.r_max >= 2 * 1.1
    # both points clear the 10% margin the oracle enforces
    oracle_distance(cfg, (1, 0), (2, 0))


def test_radial_line_is_exact_grid_path():
    d = oracle_distance(window_for([(1, 0), (2, 0)]), (1, 0), (2, 0))
    assert abs(d - 1.0) <= 0.02


def test_through_origin_dip():
    cfg = window_for([(1, 0), (1, 4)])
    assert cfg.r_min <= 0.02  # deep enough for the dip path
    d = oracle_distance(cfg, (1, 0), (1, 4))
    assert abs(d - 2.0) <= 0.05 * 2


def test_chord_agreement():
    d = oracle_distance(window_for([(1, 0), (1, 1)]), (1, 0), (1, 1))
    assert abs(d - CHORD_1) / CHORD_1 <= 0.08


def test_oracle_never_underestimates():
    # every grid edge is at least the true geodesic between its endpoints
    for pair, true in (
        (((1, 0), (2, 0)), 1.0),
        (((1, 0), (1, 4)), 2.0),
        (((1, 0), (1, 1)), CHORD_1),
    ):
        d = oracle_distance(window_for(list(pair)), *pair)
        assert d >= true - 1e-9


def test_symmetry_exact():
    cfg = window_for([(0.7, 0.3), (1.9, 2.5)])
    assert oracle_distance(cfg, (0.7, 0.3), (1.9, 2.5)) == pytest.approx(
        oracle_distance(cfg, (1.9, 2.5), (0.7, 0.3)), abs=1e-12
    )


def test_refinement_improves_fixed_pair():
    pair = ((1, 0), (1, 1))
    err = {}
    for n in (128, 512):
        d = oracle_distance(window_for(list(pair), n_r=n, n_zeta=n), *pair)
        err[n] = abs(d - CHORD_1)
    assert err[512] <= err[128]


def test_connectivity_enrichment_monotone():
    pair = ((1, 0), (1, 1))
    rich = oracle_distance(
        window_for(list(pair), connectivity="8-neighbor+knight"), *pair
    )
    poor = oracle_distance(window_for(list(pair), connectivity="4-neighbor"), *pair)
    assert rich <= poor + 1e-12


def test_out_of_window():
    cfg = window_for([(1, 0), (2, 0)])
    with pytest.raises(OutOfWindow):
        oracle_distance(cfg, (5, 0), (1, 0))
    with pytest.raises(OutOfWindow):
        oracle_distance(cfg, (1, 0), (1, 40))


def test_multi_target_single_source():
    # bundling inserts every target's coordinates as grid levels, so the
    # graph differs slightly from per-pair runs; values agree to grid accuracy
    targets = [(1.0, 1.0), (1.5, 2.0), (0.8, -1.0)]
    cfg = window_for([(1.0, 0.0)] + targets)
    bundled = oracle_distances(cfg, (1.0, 0.0), targets)
    singles = [oracle_distance(cfg, (1.0, 0.0), t) for t in targets]
    for lhs, rhs in zip(bundled, singles):
        assert lhs == pytest.approx(rhs, rel=0.02)


def test_large_angle_standin_exceeds_half():
    # the scaled stand-in for an infinite angle: distance from (1, 50) to
    # the angle-zero axis stays above the certified ball radius 1/2
    cfg = window_for([(1, 50), (1, 0)], n_r=96, n_zeta=1024)
    assert oracle_distance(cfg, (1, 50), (1, 0)) > 0.5


def _reference_csr(r, z, connectivity):
    """CSR arrays of the grid graph, edge by edge from its definition."""
    nr, nz = len(r), len(z)
    rows = []
    for i in range(nr):
        for j in range(nz):
            edges = []
            for di, dj in _OFFSETS[connectivity]:
                i2, j2 = i + di, j + dj
                if i2 < nr and 0 <= j2 < nz:
                    dr = float(r[i2]) - float(r[i])
                    arc = (float(r[i2]) + float(r[i])) / 2.0 * (float(z[j2]) - float(z[j]))
                    edges.append((i2 * nz + j2, math.sqrt(dr * dr + arc * arc)))
            rows.append(sorted(edges))
    indptr = [0]
    for edges in rows:
        indptr.append(indptr[-1] + len(edges))
    return indptr, [c for e in rows for c, _ in e], [w for e in rows for _, w in e]


@pytest.mark.parametrize("connectivity", sorted(_OFFSETS))
@pytest.mark.parametrize("shape", [(16, 16), (17, 23)])
def test_build_graph_matches_reference_edges(shape, connectivity):
    rng = np.random.default_rng(shape[0] * shape[1])
    r = np.cumsum(rng.uniform(0.01, 0.5, shape[0]))  # uneven radial levels
    z = np.cumsum(rng.uniform(0.01, 0.9, shape[1])) - 3.0  # uneven angles
    graph = _build_graph(r, z, connectivity)
    indptr, indices, data = _reference_csr(r, z, connectivity)
    assert graph.shape == (len(r) * len(z),) * 2
    assert graph.indptr.tolist() == indptr
    assert graph.indices.tolist() == indices
    assert graph.data.tolist() == data  # bit for bit


@functools.lru_cache(maxsize=None)
def _cos_lower(x: Fraction) -> Fraction:
    """Lower end of a 256-bit enclosure of cos x."""
    cos = cos_sin_interval(Interval(x, x), 256)[0]
    assert cos.width <= Fraction(1, 2**255)
    return cos.lo


def _check_edge(r1, r2, dzeta, weight, pi):
    """The exact length sqrt(dr^2 + rbar^2 dzeta^2) of an edge between
    rational levels is at least the cover geodesic between its ends, and the
    stored `weight` is within 4 ulp of it."""
    exact = (r2 - r1) ** 2 + ((r1 + r2) / 2) ** 2 * dzeta**2
    if dzeta == 0:
        assert exact == (r2 - r1) ** 2  # a radial edge is the geodesic
    elif abs(dzeta) <= pi.lo:
        assert exact >= r1 * r1 + r2 * r2 - 2 * r1 * r2 * _cos_lower(abs(dzeta))
    else:
        assert abs(dzeta) >= pi.hi
        assert exact >= (r1 + r2) ** 2  # through the puncture
    ulps = 4 * Fraction(math.ulp(weight))
    assert max(Fraction(weight) - ulps, 0) ** 2 <= exact <= (Fraction(weight) + ulps) ** 2


def _edges(graph, r, z, positions):
    """(r1, r2, dzeta, weight) of the graph's edges at `positions`, the
    levels read exactly."""
    rows = np.searchsorted(graph.indptr, positions, side="right") - 1
    for k, row in zip(positions, rows):
        (i1, j1), (i2, j2) = divmod(int(row), len(z)), divmod(int(graph.indices[k]), len(z))
        yield (
            Fraction(float(r[i1])),
            Fraction(float(r[i2])),
            Fraction(float(z[j2])) - Fraction(float(z[j1])),
            float(graph.data[k]),
        )


def test_edge_weights_bound_the_geodesic_exactly():
    pi = pi_interval(256)
    cfg = window_for([(1.0, 0.0), (1.6, 3.0)])
    base_z = np.linspace(cfg.zeta_min, cfg.zeta_max, cfg.n_zeta)
    query_z = float(base_z[100]) + 1e-9  # an inserted level next to a grid level
    r = _radial_levels(cfg, {1.0, 1.6})
    z = _with_levels(base_z, {0.0, query_z})
    graph = _build_graph(r, z, cfg.connectivity)
    rng = np.random.default_rng(2024)
    positions = list(rng.integers(0, graph.nnz, 1000))
    # every edge out of the two levels just below the inserted one, in 40 rows
    jq = int(np.searchsorted(z, query_z))
    for i in rng.integers(0, len(r) - 2, 40):
        start = graph.indptr[i * len(z) + jq - 2]
        positions.extend(range(start, graph.indptr[i * len(z) + jq]))
    edges = list(_edges(graph, r, z, positions))
    # a coarse window whose angular steps exceed pi
    wide_r, wide_z = np.geomspace(0.5, 2.0, 16), np.linspace(-50.0, 50.0, 16)
    wide = _build_graph(wide_r, wide_z, "8-neighbor+knight")
    edges += _edges(wide, wide_r, wide_z, range(wide.nnz))
    for edge in edges:
        _check_edge(*edge, pi)
    steps = [abs(dzeta) for _, _, dzeta, _ in edges]
    assert len(edges) >= 1000 + 40 * 16
    assert 0 in steps and 0 < min(s for s in steps if s) < 1e-8 and max(steps) > 4
