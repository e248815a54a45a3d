"""Pairwise territory-exchange maps between regions of a partition.

The full exchange hands the pair's union over to the bisector of the two
region centroids. The distance-limited variant scales the exchange down
when the regions are farther apart or the centroids closer together than
a communication radius delta, trading only a boundary slab.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import partition as pt
from .geometry import Density, HalfPlane, PerformanceFunction, Region, VanishedRegion
from .partition import Partition


@dataclass(frozen=True)
class StepOutcome:
    """Result of one pairwise exchange.

    traded_area is the area that changed owner: the pieces the split
    moved across its cut line, from region i to j and from j to i.
    """

    partition: Partition
    changed: bool
    pair: tuple[int, int]
    h_before: float
    h_after: float
    traded_area: float


def check_delta(env: pt.Environment, delta: float) -> float:
    if not (0.0 < delta <= env.diameter / 10.0):
        raise ValueError(
            f"delta must lie in (0, diameter/10 = {env.diameter / 10.0:.6g}]")
    return float(delta)


def _unchanged(partition, i, j, h) -> StepOutcome:
    return StepOutcome(partition, False, (i, j), h, h, 0.0)


def _apply_pair(partition: Partition, i: int, j: int, split, density, perf,
                h_before) -> StepOutcome:
    """Install a split's (pieces_i, pieces_j, traded) unless it trades nothing."""
    env = partition.env
    pieces_i, pieces_j, traded = split
    if traded <= env.tol_area:
        return _unchanged(partition, i, j, h_before)
    ri, rj = env.region(pieces_i), env.region(pieces_j)
    for k, r in ((i, ri), (j, rj)):
        if r.is_empty or r.area <= env.tol_area:
            raise VanishedRegion(
                f"region {k} vanished in exchange ({i}, {j}): area {r.area:.3e}")
    new = partition.replace(i, j, ri, rj)
    h_after = pt.centroid_cost(new, density, perf)
    return StepOutcome(new, True, (i, j), h_before, h_after, traded)


def _bisector_offsets(partition: Partition, i: int, j: int, ci, cj):
    """The bisector of ci and cj, and each vertex's signed offset past it
    for regions i and j: one half-plane and one projection per region
    for every no-op test of the pair."""
    hp = geo.bisector_halfplane(ci, cj)
    regions = partition.regions
    return (hp, regions[i].vertices @ hp.normal - hp.offset,
            regions[j].vertices @ hp.normal - hp.offset)


def _on_own_sides(di, dj, eps: float) -> bool:
    """True when region i's offsets are all at most eps and region j's
    all at least -eps."""
    return float(di.max()) <= eps and float(dj.min()) >= -eps


def _trade_bound(partition: Partition, i: int, j: int, hp, di, dj) -> float:
    """Upper bound on the area the pair's split can trade.

    What the split hands from region i to j lies between the bisector
    and region i's farthest vertex past it, widened by the snap within
    which the split treats a vertex as on the line, and within region
    i's vertex span along the line; likewise for region j on the other
    side. The bound is the two rectangles' area.
    """
    env = partition.env
    line = np.array([-hp.normal[1], hp.normal[0]])
    bound = 0.0
    for k, over in ((i, float(di.max())), (j, float((-dj).max()))):
        along = partition.regions[k].vertices @ line
        bound += (max(over, 0.0) + env.snap) * float(along.max() - along.min())
    return bound


def _full_exchange(partition: Partition, i: int, j: int, ci, cj, density,
                   perf, h_before) -> StepOutcome:
    """Split the pair's union by the bisector of ci and cj, unless the
    split provably trades nothing."""
    env = partition.env
    hp, di, dj = _bisector_offsets(partition, i, j, ci, cj)
    if _on_own_sides(di, dj, env.snap) or \
            _trade_bound(partition, i, j, hp, di, dj) <= env.tol_area:
        return _unchanged(partition, i, j, h_before)
    split = pt.pair_split(partition, i, j, ci, cj)
    return _apply_pair(partition, i, j, split, density, perf, h_before)


def gossip_step(partition: Partition, i: int, j: int, density: Density,
                perf: PerformanceFunction) -> StepOutcome:
    """Full pairwise exchange: split the union by the centroid bisector."""
    if i == j:
        raise ValueError("pair indices must differ")
    env = partition.env
    cs = pt.centroids(partition, density, perf)
    h_before = pt.centroid_cost(partition, density, perf)
    gap = float(np.hypot(*(cs[i] - cs[j])))
    if gap <= env.tol_point:
        return _unchanged(partition, i, j, h_before)
    return _full_exchange(partition, i, j, cs[i], cs[j], density, perf,
                          h_before)


def _sat(x: float) -> float:
    return min(x, 1.0)


def trade_fraction_from(gap: float, pair_distance: float, delta: float) -> float:
    """Exchange scaling in [0, 1] from centroid gap and region separation."""
    return _sat(gap / delta) * (1.0 - _sat(pair_distance / delta))


def _fraction(partition: Partition, i: int, j: int, delta: float,
              cs) -> float:
    """The pair's exchange scaling at centroids cs; 0 when they coincide
    within tol_point."""
    gap = float(np.hypot(*(cs[i] - cs[j])))
    if gap <= partition.env.tol_point:
        return 0.0
    # a separation of delta or more zeroes the fraction, so a bound will do
    pd = geo._distance_below(partition.regions[i], partition.regions[j],
                             delta)
    return trade_fraction_from(gap, pd, delta)


def trade_fraction(partition: Partition, i: int, j: int, delta: float,
                   density: Density, perf: PerformanceFunction) -> float:
    delta = check_delta(partition.env, delta)
    return _fraction(partition, i, j, delta,
                     pt.centroids(partition, density, perf))


def _slab_regions(partition: Partition, i: int, j: int, ci, cj,
                  beta: float) -> tuple[list, list, float]:
    """Exchange only the outer beta-fraction of each region's far slab.

    The far slab of region i is its part beyond the centroid bisector;
    the traded sub-slab keeps the points farthest from the bisector.
    Returns the pieces of the new regions i and j and the traded area,
    as pt.pair_split does.
    """
    env = partition.env
    u = (cj - ci)
    u = u / float(np.hypot(u[0], u[1]))
    m = float(u @ (ci + cj)) / 2.0
    vi, vj = partition.regions[i], partition.regions[j]

    def far_reach(region: Region, sign: float) -> float:
        # max signed distance past the bisector on the far side; 0 if none
        verts = region.vertices
        s = sign * (verts @ u - m)
        reach = float(s.max()) if len(s) else 0.0
        return max(reach, 0.0)

    wi = far_reach(vi, +1.0)
    wj = far_reach(vj, -1.0)
    keep_i = HalfPlane(u, m + (1.0 - beta) * wi)
    keep_j = HalfPlane(-u, -(m - (1.0 - beta) * wj))
    kept_i, give_i = geo.region_split(vi, keep_i, env.snap, env.sliver_area)
    kept_j, give_j = geo.region_split(vj, keep_j, env.snap, env.sliver_area)
    traded = sum(p.area for p in give_i) + sum(p.area for p in give_j)
    return kept_i + give_j, kept_j + give_i, traded


def partial_gossip_step(partition: Partition, i: int, j: int, delta: float,
                        density: Density,
                        perf: PerformanceFunction) -> StepOutcome:
    """Distance-limited exchange; reduces to the full exchange when the
    regions touch and the centroid gap reaches delta."""
    if i == j:
        raise ValueError("pair indices must differ")
    delta = check_delta(partition.env, delta)
    cs = pt.centroids(partition, density, perf)
    h_before = pt.centroid_cost(partition, density, perf)
    beta = _fraction(partition, i, j, delta, cs)
    if beta <= 0.0:
        return _unchanged(partition, i, j, h_before)
    if beta >= 1.0:
        return _full_exchange(partition, i, j, cs[i], cs[j], density, perf,
                              h_before)
    split = _slab_regions(partition, i, j, cs[i], cs[j], beta)
    return _apply_pair(partition, i, j, split, density, perf, h_before)


def lloyd_step(partition: Partition, density: Density,
               perf: PerformanceFunction) -> Partition:
    """Synchronous update: nearest-point partition of the current centroids."""
    cs = pt.centroids(partition, density, perf)
    return pt.voronoi(partition.env, cs)


def fixed_point_residual(partition: Partition, density: Density,
                         perf: PerformanceFunction, mode: str = "full",
                         delta: float | None = None) -> float:
    """Largest partition movement a single full exchange could cause.

    A pair's movement is the sum of its two regions' symmetric
    differences to their split, which is exactly twice the area the
    split trades. mode "full" checks every pair; "adjacent" only pairs
    whose interiors come within delta. is_mixed_centroidal is this
    residual, in mode "full", held to a threshold.
    """
    env = partition.env
    if mode == "adjacent":
        if delta is None:
            raise ValueError("adjacent mode needs delta")
        pairs = pt.adjacency_pairs(partition, delta)
    elif mode == "full":
        pairs = [(i, j) for i in range(partition.n)
                 for j in range(i + 1, partition.n)]
    else:
        raise ValueError(f"unknown residual mode {mode!r}")
    cs = pt.centroids(partition, density, perf)
    worst = 0.0
    for i, j in pairs:
        gap = float(np.hypot(*(cs[i] - cs[j])))
        if gap <= env.tol_point:
            continue
        _, di, dj = _bisector_offsets(partition, i, j, cs[i], cs[j])
        if _on_own_sides(di, dj, env.snap):
            continue
        _, _, traded = pt.pair_split(partition, i, j, cs[i], cs[j])
        moved = 2.0 * traded
        if moved > worst:
            worst = moved
    return worst


def is_mixed_centroidal(partition: Partition, density: Density,
                        perf: PerformanceFunction,
                        tol: float | None = None) -> bool:
    """True when every region pair is pairwise balanced: the full-mode
    fixed_point_residual is at most tol (default 1e-5 of the area).

    A pair passes when its centroids coincide, or when splitting the
    pair's union by the centroid bisector moves at most tol, that is
    twice the traded area.
    """
    if tol is None:
        tol = 1e-5 * partition.env.area
    return fixed_point_residual(partition, density, perf) <= tol
