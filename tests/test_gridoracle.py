"""The discrete shortest-path oracle on the annular grid."""

import pytest

from ihull.errors import OutOfWindow
from ihull.gridoracle import GridConfig, oracle_distance, oracle_distances, window_for

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
