"""Pairwise territory-exchange maps between regions of a partition.

The full exchange hands the pair's union over to the bisector of the two
region centroids. The distance-limited variant is the same exchange
scaled down when the regions are farther apart or the centroids closer
together than a communication radius delta: each region's cut line moves
toward its far boundary, so only a boundary slab changes owner.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import partition as pt
from .geometry import Density, HalfPlane, PerformanceFunction
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


def _trade_bound(partition: Partition, i: int, j: int, hp) -> float:
    """Upper bound on the area the pair's split at hp can trade.

    What the split hands from region i to j lies between the bisector
    and region i's farthest vertex past it, widened by the snap within
    which the split treats a vertex as on the line, and within region
    i's vertex span along the line; likewise for region j on the other
    side. The bound is the two rectangles' area. It orders and stops
    the fixed-point residual's splits.
    """
    env = partition.env
    line = np.array([-hp.normal[1], hp.normal[0]])
    bound = 0.0
    for k, sign in ((i, 1.0), (j, -1.0)):
        v = partition.regions[k].vertices
        over = float((sign * (v @ hp.normal - hp.offset)).max())
        along = v @ line
        bound += (max(over, 0.0) + env.snap) * float(along.max() - along.min())
    return bound


def gossip_step(partition: Partition, i: int, j: int, density: Density,
                perf: PerformanceFunction) -> StepOutcome:
    """Full pairwise exchange: split the union by the centroid bisector."""
    return _exchange(partition, i, j, None, density, perf)


def _sat(x: float) -> float:
    return min(x, 1.0)


def trade_fraction_from(gap: float, pair_distance: float, delta: float) -> float:
    """Exchange scaling in [0, 1] from centroid gap and region separation."""
    return _sat(gap / delta) * (1.0 - _sat(pair_distance / delta))


def _fraction(partition: Partition, i: int, j: int, delta: float | None,
              cs) -> float:
    """The pair's exchange scaling at centroids cs: 0 when they coincide
    within tol_point, else 1 for the full exchange (delta None)."""
    gap = float(np.hypot(*(cs[i] - cs[j])))
    if gap <= partition.env.tol_point:
        return 0.0
    if delta is None:
        return 1.0
    # a separation of delta or more zeroes the fraction, so a bound will do
    pd = geo._distance_below(partition.regions[i], partition.regions[j],
                             delta)
    return trade_fraction_from(gap, pd, delta)


def trade_fraction(partition: Partition, i: int, j: int, delta: float,
                   density: Density, perf: PerformanceFunction) -> float:
    delta = check_delta(partition.env, delta)
    return _fraction(partition, i, j, delta,
                     pt.centroids(partition, density, perf))


def partial_gossip_step(partition: Partition, i: int, j: int, delta: float,
                        density: Density,
                        perf: PerformanceFunction) -> StepOutcome:
    """Distance-limited exchange: the full one with each region's cut
    line moved (1 - beta) of its far reach into its far side, beta the
    trade fraction; equal to it when the regions touch and the centroid
    gap reaches delta."""
    return _exchange(partition, i, j, check_delta(partition.env, delta),
                     density, perf)


def _exchange(partition: Partition, i: int, j: int, delta: float | None,
              density: Density, perf: PerformanceFunction) -> StepOutcome:
    """The pairwise exchange behind both maps; delta None is the full one.

    Both cut lines start at the centroid bisector. At a trade fraction
    beta < 1 each moves (1 - beta) of its region's far reach, the
    region's largest offset past the bisector, into that far side. The
    partition comes back unchanged exactly when beta is 0 or the split
    trades at most tol_area.

    The exchange is a map of the partition, so a no-op found once is
    remembered in the partition's exchange_cache and a repeat returns
    before any centroid or split. Only the cost before is stored, a
    float: an outcome would refer back to its own partition, and a
    changed one would chain each successor to its predecessor.
    """
    if i == j:
        raise ValueError("pair indices must differ")
    key = (i, j, delta, density, perf)
    h_before = partition.exchange_cache.get(key)
    if h_before is not None:
        return _unchanged(partition, i, j, h_before)
    env = partition.env
    cs = pt.centroids(partition, density, perf)
    h_before = pt.centroid_cost(partition, density, perf)
    beta = _fraction(partition, i, j, delta, cs)
    if beta > 0.0:
        hp_i = hp_j = hp = geo.bisector_halfplane(cs[i], cs[j])
        if beta < 1.0:
            di = partition.regions[i].vertices @ hp.normal - hp.offset
            dj = partition.regions[j].vertices @ hp.normal - hp.offset
            hp_i = HalfPlane(hp.normal, hp.offset
                             + (1.0 - beta) * max(float(di.max()), 0.0))
            hp_j = HalfPlane(hp.normal, hp.offset
                             - (1.0 - beta) * max(float((-dj).max()), 0.0))
        pieces_i, pieces_j, traded = pt.pair_split(partition, i, j, hp_i,
                                                   hp_j)
        if traded > env.tol_area:
            new = partition.replace(i, j, env.region(pieces_i),
                                    env.region(pieces_j))
            return StepOutcome(new, True, (i, j), h_before,
                               pt.centroid_cost(new, density, perf), traded)
    partition.exchange_cache[key] = h_before
    return _unchanged(partition, i, j, h_before)


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
    differences to their split by the centroid bisector, which is
    exactly twice the area the split trades; only the handed-over parts
    are built to measure it. mode "full" checks every pair; "adjacent"
    only pairs whose interiors come within delta. Pairs whose centroids
    coincide within tol_point have no bisector and are skipped.
    is_mixed_centroidal is this residual, in mode "full", held to a
    threshold.

    Pairs are split in decreasing order of their trade bound, and the
    visit stops once twice the bound cannot beat the largest movement
    found: the result is the maximum over the same exact splits. A pair
    with each region on its own side of its bisector has a bound of only
    snap times the regions' spans along it, so the stop drops it once any
    pair has moved more; split anyway, it trades exactly 0.
    """
    env = partition.env
    if mode == "adjacent":
        if delta is None or not delta > 0.0:  # NaN too
            raise ValueError(f"adjacent mode needs delta > 0, got {delta!r}")
        pairs = pt.adjacency_pairs(partition, delta)
    elif mode == "full":
        pairs = [(i, j) for i in range(partition.n)
                 for j in range(i + 1, partition.n)]
    else:
        raise ValueError(f"unknown residual mode {mode!r}")
    cs = pt.centroids(partition, density, perf)
    bounded = []
    for i, j in pairs:
        if float(np.hypot(*(cs[i] - cs[j]))) <= env.tol_point:
            continue
        hp = geo.bisector_halfplane(cs[i], cs[j])
        bounded.append((_trade_bound(partition, i, j, hp), i, j, hp))
    bounded.sort(key=lambda b: b[0], reverse=True)
    worst = 0.0
    for bound, i, j, hp in bounded:
        if 2.0 * bound <= worst:
            break
        worst = max(worst, 2.0 * pt.traded_area(partition, i, j, hp, hp))
    return worst


def is_mixed_centroidal(partition: Partition, density: Density,
                        perf: PerformanceFunction,
                        tol: float | None = None) -> bool:
    """True when every region pair is pairwise balanced: the full-mode
    fixed_point_residual is at most tol (default env.balance_tol).

    A pair passes when its centroids coincide, or when splitting the
    pair's union by the centroid bisector moves at most tol, that is
    twice the traded area.
    """
    if tol is None:
        tol = partition.env.balance_tol
    return fixed_point_residual(partition, density, perf) <= tol
