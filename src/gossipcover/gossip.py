"""Pairwise territory-exchange maps between regions of a partition.

The full exchange hands the pair's union over to the bisector of the two
region centroids. The distance-limited variant is the same exchange
scaled down when the regions are farther apart or the centroids closer
together than a communication radius delta: each region's cut line moves
toward its far boundary, so only a boundary slab changes owner.
"""
from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from . import partition as pt
from .geometry import Density, HalfPlane, PerformanceFunction
from .partition import Partition


class StepOutcome(NamedTuple):
    """Result of one pairwise exchange.

    traded_area is the area that changed owner: the pieces the split
    moved across its cut line, from region i to j and from j to i. A
    named tuple, as a memoized no-op builds one per contact.
    """

    partition: Partition
    changed: bool
    pair: tuple[int, int]
    h_before: float
    h_after: float
    traded_area: float


def check_delta(env: pt.Environment, delta: float) -> float:
    if not 0.0 < geo._number(delta) <= env.diameter / 10.0:
        raise ValueError(
            f"delta must lie in (0, diameter/10 = {env.diameter / 10.0:.6g}]")
    return float(delta)


_new_tuple = tuple.__new__


def gossip_step(partition: Partition, i: int, j: int, density: Density,
                perf: PerformanceFunction) -> StepOutcome:
    """Full pairwise exchange: split the union by the centroid bisector.

    A pair_cache movement at most 2 tol_area answers a no-op before any
    centroid or split; a non-integer index is refused first (1.0 == 1).
    """
    if type(i) is not int or type(j) is not int:
        _check_pair(partition, i, j)
    movement = partition.pair_cache.get((i, j), {}).get((density, perf))
    if movement is not None and movement <= 2.0 * partition.env.tol_area:
        h = pt.centroid_cost(partition, density, perf)
        return StepOutcome(partition, False, (i, j), h, h, 0.0)
    return _exchange(partition, i, j, None, density, perf)


def trade_fraction_from(gap: float, pair_distance: float, delta: float) -> float:
    """Exchange scaling in [0, 1] from centroid gap and region separation."""
    return min(gap / delta, 1.0) * (1.0 - min(pair_distance / delta, 1.0))


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


def _check_pair(partition: Partition, i: int, j: int) -> None:
    """Refuses a pair that is not two distinct regions of the partition:
    a negative index would otherwise alias a region from the end, and a
    float one would pass the range test and fail in numpy's indexing,
    so operator.index refuses every non-integer with TypeError."""
    n = partition.n
    if operator.index(i) not in range(n) or operator.index(j) not in range(n):
        raise ValueError(
            f"pair ({i}, {j}) is not in range for {n} regions")
    if i == j:
        raise ValueError("pair indices must differ")


def partial_gossip_step(partition: Partition, i: int, j: int, delta: float,
                        density: Density,
                        perf: PerformanceFunction) -> StepOutcome:
    """Distance-limited exchange: the full one with each region's cut
    line moved (1 - beta) of its far reach into its far side, beta the
    trade fraction; equal to it when the regions touch and the centroid
    gap reaches delta.

    The memo is looked up first, so a repeated no-op costs one lookup:
    only a checked pair and delta are ever stored in a key, so a hit
    proves them valid, and a bad index, NaN, a str or an out-of-range
    delta never hits, nor, refused first, a non-integer index.
    """
    if type(i) is not int or type(j) is not int:
        _check_pair(partition, i, j)
    h = partition.exchange_cache.get((i, j, delta, density, perf))
    if h is not None:
        # tuple.__new__ skips the named tuple's Python-level __new__: a
        # memoized contact pays for little else
        return _new_tuple(StepOutcome, (partition, False, (i, j), h, h, 0.0))
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

    A no-op is stored as a float, which both maps look up first: the
    distance-limited one's cost before in exchange_cache, the full
    one's movement in pair_cache under the pair as named (the exchange
    is not label-symmetric). That is the residual's movement: both sum
    the same handed-over parts in the same order, and doubling is exact.
    """
    _check_pair(partition, i, j)
    env = partition.env
    cs = pt.centroids(partition, density, perf)
    h_before = pt.centroid_cost(partition, density, perf)
    beta = _fraction(partition, i, j, delta, cs)
    traded = 0.0
    if beta > 0.0:
        hp_i = hp_j = hp = geo.bisector_halfplane(cs[i], cs[j])
        if beta < 1.0:
            di = partition.regions[i].vertices @ hp.normal - hp.offset
            dj = partition.regions[j].vertices @ hp.normal - hp.offset
            hp_i = HalfPlane(hp.normal, hp.offset
                             + (1.0 - beta) * max(float(di.max()), 0.0))
            hp_j = HalfPlane(hp.normal, hp.offset
                             - (1.0 - beta) * max(float((-dj).max()), 0.0))
        pieces_i, pieces_j, traded = pt.pair_split(partition, i, j, hp_i, hp_j)
        if traded > env.tol_area:
            # each new region reuses the merge verdicts of both old ones
            parents = partition.regions[i], partition.regions[j]
            new = partition.replace(i, j, env.region(pieces_i, parents),
                                    env.region(pieces_j, parents))
            return StepOutcome(new, True, (i, j), h_before,
                               pt.centroid_cost(new, density, perf), traded)
    if delta is None:
        known = partition.pair_cache.setdefault((i, j), {})
        known[density, perf] = 2.0 * traded
    else:
        partition.exchange_cache[i, j, delta, density, perf] = h_before
    return StepOutcome(partition, False, (i, j), h_before, h_before, 0.0)


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
    are built to measure it. A pair whose centroids coincide within
    tol_point has no bisector and moves 0.0. mode "full" checks every
    pair; "adjacent" only pairs whose interiors come within delta.
    is_mixed_centroidal is this residual, in mode "full", held to a
    threshold.

    Each pair's movement is kept in the partition's pair_cache, and an
    exchange's successor keeps those of the pairs it left alone, so
    only the pairs missing from the memo are split.
    """
    if mode == "adjacent":
        pairs = pt.adjacency_pairs(partition, delta)
    elif mode == "full":
        pairs = pt.all_pairs(partition.n)
    else:
        raise ValueError(f"unknown residual mode {mode!r}")
    cs = pt.centroids(partition, density, perf)
    memo = partition.pair_cache
    worst = 0.0
    for i, j in pairs:
        known = memo.get((i, j)) or memo.setdefault((i, j), {})
        movement = known.get((density, perf))
        if movement is None:
            movement = 0.0
            if _fraction(partition, i, j, None, cs):
                hp = geo.bisector_halfplane(cs[i], cs[j])
                movement = 2.0 * pt.traded_area(partition, i, j, hp, hp)
            known[density, perf] = movement
        worst = max(worst, movement)
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
