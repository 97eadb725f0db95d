"""Brute-force shortest-path validation for the cover distance.

Discretizes an annular window of the cover into a weighted grid graph
(edge weight sqrt(dr^2 + rbar^2 dzeta^2), rbar the mean radius of the edge)
and runs Dijkstra.  Every grid edge is at least as long as the true geodesic
between its endpoints, so oracle distances bound the true distance from
above and converge to it as the grid refines.

Floating point throughout: this module exists to cross-check the exact
closed form by an independent method, not to be exact itself.  Radial levels
are log-spaced so cells keep the same shape at every radius
(the geometry is scale-invariant); query coordinates are inserted as extra
grid levels so queries never pay a snapping error.

The graph is assembled directly in CSR form.  Node (i, j) is row i*nz + j;
each edge is stored once, in the row of its endpoint with the smaller index,
and Dijkstra reads the matrix as undirected.  Offsets (di, dj) are taken in
order of their column step di*nz + dj.  The steps are distinct and, as
nz >= 16 > 2*max|dj|, a row's columns ascend in that order, so the arrays
are written in their final, sorted order: there are no duplicate edges to
sum and no indices to sort.  A config asks for at most `MAX_GRID_NODES`
nodes (query levels add a few), which bounds the memory a graph takes and
keeps its indices far inside int32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import OutOfWindow

_OFFSETS = {
    "4-neighbor": ((0, 1), (1, 0)),
    "8-neighbor+knight": (
        (0, 1),
        (1, 0),
        (1, 1),
        (1, -1),
        (1, 2),
        (2, 1),
        (1, -2),
        (2, -1),
    ),
}

#: The most nodes n_r * n_zeta a config may ask for (1024 x 1024 when square).
#: Each query coordinate adds at most one level to its axis.
MAX_GRID_NODES = 2**20


@dataclass(frozen=True)
class GridConfig:
    """Annular window and resolution for the oracle grid."""

    r_min: float
    r_max: float
    zeta_min: float
    zeta_max: float
    n_r: int = 256
    n_zeta: int = 256
    connectivity: str = "8-neighbor+knight"

    def __post_init__(self):
        bounds = (self.r_min, self.r_max, self.zeta_min, self.zeta_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("window bounds must be finite")
        if self.r_min <= 0:
            raise ValueError("r_min must be positive (the puncture is not a point)")
        if self.r_min >= self.r_max or self.zeta_min >= self.zeta_max:
            raise ValueError("empty window")
        # every edge has dr <= r_max - r_min, rbar <= r_max (formed as the
        # build forms it) and dzeta <= the angular span, and float rounding is
        # monotone, so this bounds the sum squared in every edge weight
        dr = self.r_max - self.r_min
        arc = (self.r_max + self.r_max) / 2.0 * (self.zeta_max - self.zeta_min)
        if not math.isfinite(dr * dr + arc * arc):
            raise ValueError("the window's edge weights exceed the float range")
        if self.n_r < 16 or self.n_zeta < 16:
            raise ValueError("need at least 16 levels per axis")
        if self.n_r * self.n_zeta > MAX_GRID_NODES:
            raise ValueError(
                f"a {self.n_r} x {self.n_zeta} grid exceeds {MAX_GRID_NODES} nodes"
            )
        if self.connectivity not in _OFFSETS:
            raise ValueError(f"connectivity must be one of {sorted(_OFFSETS)}")


def window_for(
    points: list[tuple[float, float]],
    n_r: int = 256,
    n_zeta: int = 256,
    connectivity: str = "8-neighbor+knight",
) -> GridConfig:
    """A window containing `points` with margin, deep enough toward the
    puncture that through-origin dips are representable: a path through it
    pays about r_min * span, so past an angle span of 8 the floor r_min =
    min r / 100 shrinks with the span (the same window up to 8)."""
    rs = [p[0] for p in points]
    zs = [p[1] for p in points]
    span = max(zs) - min(zs)
    pad = 0.15 * span + 0.3
    return GridConfig(
        r_min=0.01 * min(rs) * 8 / max(span, 8),
        r_max=1.2 * max(rs),
        zeta_min=min(zs) - pad,
        zeta_max=max(zs) + pad,
        n_r=n_r,
        n_zeta=n_zeta,
        connectivity=connectivity,
    )


def _check_margin(cfg: GridConfig, point: tuple[float, float]) -> None:
    """10% of the window on each side, the lower radial one on the levels' log
    scale: r >= r_min^0.9 r_max^0.1, by Bernoulli <= r_min + 10% of r's span."""
    r, z = point
    margin_r = 0.1 * (cfg.r_max - cfg.r_min)
    margin_z = 0.1 * (cfg.zeta_max - cfg.zeta_min)
    if not (cfg.r_min**0.9 * cfg.r_max**0.1 <= r <= cfg.r_max - margin_r):
        raise OutOfWindow(f"radius {r} within 10% of the window boundary")
    if not (cfg.zeta_min + margin_z <= z <= cfg.zeta_max - margin_z):
        raise OutOfWindow(f"angle {z} within 10% of the window boundary")


def _with_levels(base: np.ndarray, extra) -> np.ndarray:
    """The sorted union of the grid levels `base` and the query coordinates."""
    return np.unique(np.concatenate([base, np.asarray(sorted(extra), dtype=float)]))


def _radial_levels(cfg: GridConfig, query_radii) -> np.ndarray:
    """Radial levels: a dense band around the query radii plus a coarse deep
    segment toward the puncture.

    Radial movement telescopes exactly on any spacing, so the deep segment
    (used only by through-origin dips) can be coarse; the band is where
    geodesics run obliquely and needs cells of balanced shape.
    """
    band_lo = 0.4 * min(query_radii)
    if band_lo <= cfg.r_min * 1.5:
        return _with_levels(np.geomspace(cfg.r_min, cfg.r_max, cfg.n_r), query_radii)
    n_deep = max(8, cfg.n_r // 5)
    deep = np.geomspace(cfg.r_min, band_lo, n_deep)
    band = np.geomspace(band_lo, cfg.r_max, cfg.n_r - n_deep)
    return _with_levels(np.concatenate([deep, band]), query_radii)


def _build_graph(r: np.ndarray, z: np.ndarray, connectivity: str) -> csr_matrix:
    """The grid graph on radial levels `r` and angular levels `z`.

    Slot k of node (i, j) holds the edge along the k-th offset in order of
    column step; `valid` marks the slots whose far end lies on the grid, and
    reading the slot table in C order gives the CSR data and indices.
    """
    nr, nz = len(r), len(z)
    offsets = sorted(_OFFSETS[connectivity], key=lambda o: o[0] * nz + o[1])
    weights = np.empty((nr, nz, len(offsets)))
    valid = np.zeros((nr, nz, len(offsets)), dtype=bool)
    counts = np.zeros((nr, nz), dtype=np.int32)
    for k, (di, dj) in enumerate(offsets):
        j0, j1 = max(0, -dj), nz - max(0, dj)
        dr = (r[di:] - r[: nr - di])[:, None]
        rbar = ((r[di:] + r[: nr - di]) / 2.0)[:, None]
        dzeta = z[j0 + dj : j1 + dj] - z[j0:j1]
        weights[: nr - di, j0:j1, k] = np.sqrt(dr * dr + (rbar * dzeta) ** 2)
        valid[: nr - di, j0:j1, k] = True
        counts[: nr - di, j0:j1] += 1
    n = nr * nz
    steps = np.array([di * nz + dj for di, dj in offsets], dtype=np.int32)
    columns = np.arange(n, dtype=np.int32).reshape(nr, nz, 1) + steps
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return csr_matrix((weights[valid], columns[valid], indptr), shape=(n, n))


def _node_index(levels_r: np.ndarray, levels_z: np.ndarray, point) -> int:
    r, z = point
    i = int(np.searchsorted(levels_r, r))
    j = int(np.searchsorted(levels_z, z))
    i = min(i, len(levels_r) - 1)
    j = min(j, len(levels_z) - 1)
    if not math.isclose(levels_r[i], r, rel_tol=1e-12, abs_tol=1e-12):
        raise OutOfWindow(f"radius {r} does not lie on a grid level")
    if not math.isclose(levels_z[j], z, rel_tol=1e-12, abs_tol=1e-12):
        raise OutOfWindow(f"angle {z} does not lie on a grid level")
    return i * len(levels_z) + j


def oracle_distances(
    cfg: GridConfig,
    source: tuple[float, float],
    targets: list[tuple[float, float]],
) -> list[float]:
    """Shortest grid-path lengths from `source` to each target.

    One Dijkstra run serves all targets.  Source and target coordinates are
    inserted as grid levels, so the reported lengths are genuine path lengths
    between the exact query points.
    """
    for point in (source, *targets):
        _check_margin(cfg, point)
    extra_r = {source[0], *(p[0] for p in targets)}
    extra_z = {source[1], *(p[1] for p in targets)}
    levels_r = _radial_levels(cfg, extra_r)
    levels_z = _with_levels(np.linspace(cfg.zeta_min, cfg.zeta_max, cfg.n_zeta), extra_z)
    graph = _build_graph(levels_r, levels_z, cfg.connectivity)
    source_idx = _node_index(levels_r, levels_z, source)
    dist = dijkstra(graph, directed=False, indices=source_idx)
    return [float(dist[_node_index(levels_r, levels_z, p)]) for p in targets]


def oracle_distance(
    cfg: GridConfig, a: tuple[float, float], b: tuple[float, float]
) -> float:
    """Shortest grid-path length between two standard points."""
    return oracle_distances(cfg, a, [b])[0]
