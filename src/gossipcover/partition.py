"""Partitions of a convex environment and their coverage costs.

An Environment wraps the convex polygon to be covered together with
tolerances derived from its size. A Partition assigns each of N agents
a Region; the regions tile the environment up to tolerance.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .geometry import (ConvexPolygon, Density, EmptyRegion, GeometryError,
                       HalfPlane, PerformanceFunction, Region, VanishedRegion,
                       bisector_halfplane, symdiff_area)


class CoincidentGenerators(GeometryError):
    """Two generator points coincide within tolerance."""


class DimensionMismatch(GeometryError):
    """Point count does not match region count."""


class DegenerateEvolution(GeometryError):
    """An evolution step drove a region below the minimum tolerated area."""

    def __init__(self, message, step: int | None = None, trace=None):
        super().__init__(message)
        self.step = step
        self.trace = trace


@dataclass(frozen=True)
class Environment:
    """Convex polygon to cover: owns every size-scaled threshold and
    the policy that builds regions from pieces."""

    polygon: ConvexPolygon

    @property
    def area(self) -> float:
        return self.polygon.area

    @cached_property
    def diameter(self) -> float:
        return geo.diameter(self.polygon)

    @property
    def tol_point(self) -> float:
        return 1e-9 * self.diameter

    @property
    def tol_area(self) -> float:
        return 1e-9 * self.area

    # numeric slivers below this are dropped silently by clipping pipelines
    @property
    def sliver_area(self) -> float:
        return 1e-13 * self.area

    # cut-to-vertex distance below which a split treats the vertex as on the cut
    @property
    def snap(self) -> float:
        return 1e-12 * self.diameter

    # distance below which a vertex counts as on the environment's wall
    @property
    def wall_tol(self) -> float:
        return 10 * self.tol_point

    # pair-balance threshold of is_mixed_centroidal and is_centroidal_voronoi
    @property
    def balance_tol(self) -> float:
        return 1e-5 * self.area

    # residual at which an evolution run stops
    @property
    def stop_tol(self) -> float:
        return 1e-6 * self.area

    # balance threshold for the end state of a network simulation
    @property
    def end_state_tol(self) -> float:
        return 1e-4 * self.area

    # transient fragmentation near a slow fixed-point approach can stack
    # O(100) unmergeable shells before convergence cleans them up
    @property
    def piece_budget(self) -> int:
        return 256

    def region(self, pieces, parents=()) -> Region:
        """Region of the given pieces: slivers dropped, neighbours merged
        within tol_area; PieceBudgetExceeded past piece_budget pieces.

        The merge skips the piece pairs that parents, the regions the
        pieces were cut from, refused at a tol_area no smaller than
        this one: a pair refused at one slack is refused at any smaller
        one. The new region keeps the refused pairs whose two pieces
        it holds, so they keep no other piece alive.
        """
        tol = self.tol_area
        kept = [p for p in pieces if p.area > self.sliver_area]
        refused = set()
        if len(kept) > 1:
            for parent in parents:
                parent_tol, pairs = parent.refused
                if parent_tol >= tol:
                    refused |= pairs
            kept = geo.merge_pieces(kept, tol, refused)
        if len(kept) > self.piece_budget:
            raise geo.PieceBudgetExceeded(
                f"{len(kept)} pieces exceed budget {self.piece_budget}")
        held = set(kept)
        return Region(tuple(kept), refused=(tol, frozenset(
            (a, b) for a, b in refused if a in held and b in held)))


def all_pairs(n: int) -> list[tuple[int, int]]:
    """Every region pair (i, j), i < j, in lexicographic order: the one
    pair order, in which AdjacentRandom indexes its draws."""
    return list(combinations(range(n), 2))


def environment(vertices) -> Environment:
    return Environment(ConvexPolygon(vertices))


def rectangle(width: float, height: float) -> Environment:
    return environment([[0.0, 0.0], [width, 0.0], [width, height], [0.0, height]])


@dataclass(frozen=True)
class Partition:
    """Regions tiling the environment, one per agent.

    A partition never changes, so it keeps two plain memos of itself.
    exchange_cache maps (i, j, delta, density, perf) to the cost before
    a distance-limited exchange found to be a no-op on it. pair_cache
    maps a pair (i, j) to {question: answer}: a delta to whether the
    regions come within it (adjacency_pairs), and (density, perf) to
    the movement of their centroid bisector split (gossip). An answer
    depends only on the pair's two regions, so replace(i, j, ...) hands
    the successor, by reference, those of every pair without i or j.
    """

    env: Environment
    regions: tuple
    exchange_cache: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)
    pair_cache: dict = field(default_factory=dict, init=False,
                             repr=False, compare=False)

    def __post_init__(self):
        if len(self.regions) == 0:
            raise EmptyRegion("partition needs at least one region")
        tol = self.env.tol_area
        for k, r in enumerate(self.regions):
            if r.area <= tol:
                raise VanishedRegion(
                    f"region {k} area {r.area:.3e} at or below tolerance {tol:.3e}")
        total = geo.sum_left(r.area for r in self.regions)
        short, over = self.cover_slack
        if total < self.env.area - short or total > self.env.area + over:
            raise GeometryError(
                f"regions cover {total!r}, environment area {self.env.area!r}")

    @property
    def cover_slack(self) -> tuple[float, float]:
        """How far the summed region areas may fall short of the
        environment area (dropped slivers) and exceed it (merge slack):
        n and n² times tol_area. Construction is the one cover check."""
        n, tol = self.n, self.env.tol_area
        return n * tol, n * n * tol

    @property
    def n(self) -> int:
        return len(self.regions)

    def replace(self, i: int, j: int, ri: Region, rj: Region) -> "Partition":
        regs = list(self.regions)
        regs[i], regs[j] = ri, rj
        new = Partition(self.env, tuple(regs))
        new.pair_cache.update({pair: known for pair, known
                               in self.pair_cache.items()
                               if i not in pair and j not in pair})
        return new

    def validate(self) -> "Partition":
        """Full check: pieces inside the environment, pairwise overlaps
        within tol_area."""
        tol = self.env.tol_area
        for k, r in enumerate(self.regions):
            r.validate(tol)
            if not np.all(self.env.polygon.contains(r.vertices,
                                                    tol=self.env.wall_tol)):
                raise GeometryError(f"region {k} leaves the environment")
        for i, j in all_pairs(self.n):
            ov = geo.intersection_area(self.regions[i], self.regions[j])
            if ov > tol:
                raise GeometryError(
                    f"regions {i} and {j} overlap with area {ov:.3e}")
        return self


def check_points(env: Environment, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise DimensionMismatch("points must have shape (n, 2)")
    inside = env.polygon.contains(pts, tol=env.tol_point)
    if not np.all(inside):
        bad = int(np.argmin(inside))
        raise GeometryError(f"point {bad} at {pts[bad]} lies outside the environment")
    gap, i, j = _min_gap(pts.tolist())
    if gap <= env.tol_point:
        raise CoincidentGenerators(f"points {i} and {j} coincide")
    return pts


def _min_gap(points) -> tuple[float, int, int]:
    """The smallest distance between two of the points, (x, y) pairs of
    floats, and the first pair at it; inf for fewer than two points.

    The answer is np.argmin's over the matrix of squared gaps dx*dx + dy*dy
    with an infinite diagonal: the first minimum in row-major order, which
    the matrix's symmetry puts at i < j, or the first NaN; (inf, 0, 0)
    when every gap is infinite."""
    best, bi, bj = math.inf, 0, 0
    for i, (xi, yi) in enumerate(points):
        for j in range(i + 1, len(points)):
            xj, yj = points[j]
            dx, dy = xi - xj, yi - yj
            d2 = dx * dx + dy * dy
            if d2 < best:
                best, bi, bj = d2, i, j
            elif d2 != d2:
                return math.sqrt(d2), i, j
    return math.sqrt(best), bi, bj


def voronoi(env: Environment, points) -> Partition:
    """Nearest-point partition of the environment for the given generators."""
    pts = check_points(env, points)
    n = len(pts)
    regions = []
    for i in range(n):
        piece = geo.clip(env.polygon, (bisector_halfplane(pts[i], pts[j])
                                       for j in range(n) if j != i),
                         0.0, env.sliver_area)
        if piece is None:
            raise VanishedRegion(f"generator {i} has an empty cell")
        regions.append(Region((piece,)))
    return Partition(env, tuple(regions))


# ---------------------------------------------------------------------------
# coverage costs

def multicenter_cost(partition: Partition, points, density: Density,
                     perf: PerformanceFunction) -> float:
    """Total cost of serving each region from its assigned point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) != partition.n:
        raise DimensionMismatch(
            f"{len(pts)} points for {partition.n} regions")
    return geo.sum_left(geo.one_center_cost(pts[i], partition.regions[i],
                                            density, perf)
                        for i in range(partition.n))


def _centroid_entry(region: Region, env: Environment, density: Density,
                    perf: PerformanceFunction) -> tuple:
    """The region's cached (centroid, cost), both computed on first use."""
    key = (density, perf, env.polygon)
    entry = region.centroid_cache.get(key)
    if entry is None:
        entry = region.centroid_cache[key] = geo._centroid_and_cost(
            region, density, perf, env.diameter)
    return entry


def centroids(partition: Partition, density: Density,
              perf: PerformanceFunction) -> np.ndarray:
    """Each region's one-center point, computed once per region."""
    return np.array([_centroid_entry(r, partition.env, density, perf)[0]
                     for r in partition.regions])


def centroid_cost(partition: Partition, density: Density,
                  perf: PerformanceFunction) -> float:
    """Multicenter cost with every region served from its own centroid."""
    return geo.sum_left(_centroid_entry(r, partition.env, density, perf)[1]
                        for r in partition.regions)


# ---------------------------------------------------------------------------
# distances, predicates, diagnostics

def partition_distance(u: Partition, v: Partition) -> float:
    """Sum over regions of symmetric-difference areas."""
    if u.n != v.n:
        raise DimensionMismatch(f"{u.n} regions vs {v.n}")
    return geo.sum_left(symdiff_area(u.regions[k], v.regions[k])
                        for k in range(u.n))


def pair_split(partition: Partition, i: int, j: int, hp_i: HalfPlane,
               hp_j: HalfPlane) -> tuple[list, list, float]:
    """Reassign the union of regions i and j along two cut lines.

    Region i keeps its part inside hp_i and hands the rest to j; region
    j hands its part inside hp_j to i. Returns the pieces of the new
    region i, those of the new region j, and the traded area: the sum
    of the two handed-over parts. The full exchange cuts both regions at
    the centroid bisector; the distance-limited one moves each line into
    its region's far side. Each piece is split two-sided so both halves
    share their seam vertices, which conserves area; the environment's
    snap absorbs cuts that nearly coincide with an existing edge instead
    of shaving hairline slivers off it.
    """
    return _pair_split(partition, i, j, hp_i, hp_j, True)


def traded_area(partition: Partition, i: int, j: int, hp_i: HalfPlane,
                hp_j: HalfPlane) -> float:
    """pair_split(partition, i, j, hp_i, hp_j)'s traded area, with only
    the handed-over parts built."""
    return _pair_split(partition, i, j, hp_i, hp_j, False)[2]


def _pair_split(partition, i, j, hp_i, hp_j, kept: bool):
    """pair_split, with the kept parts left unbuilt when kept is False."""
    env = partition.env
    keep_i, give_i = geo.region_split(partition.regions[i], hp_i, env.snap,
                                      env.sliver_area, (kept, True))
    give_j, keep_j = geo.region_split(partition.regions[j], hp_j, env.snap,
                                      env.sliver_area, (True, kept))
    traded = (geo.sum_left(p.area for p in give_i)
              + geo.sum_left(p.area for p in give_j))
    return keep_i + give_j, give_i + keep_j, traded


def pair_rebalanced(partition: Partition, i: int, j: int, ci, cj) -> tuple[Region, Region]:
    """Regions i and j split along the bisector of ci and cj."""
    hp = bisector_halfplane(ci, cj)
    pieces_i, pieces_j, _ = pair_split(partition, i, j, hp, hp)
    env = partition.env
    return env.region(pieces_i), env.region(pieces_j)


def is_centroidal_voronoi(partition: Partition, density: Density,
                          perf: PerformanceFunction,
                          tol: float | None = None) -> bool:
    """True when the partition equals the nearest-point partition of its
    centroids, within tol (default env.balance_tol)."""
    env = partition.env
    if tol is None:
        tol = env.balance_tol
    cs = centroids(partition, density, perf)
    if _min_gap(cs.tolist())[0] <= env.tol_point:
        return False
    try:
        ref = voronoi(env, cs)
    except (CoincidentGenerators, VanishedRegion):
        return False
    return partition_distance(partition, ref) <= tol


def adjacency_pairs(partition: Partition, delta: float) -> list[tuple[int, int]]:
    """Region pairs whose interiors come within delta of each other.

    Each pair is tested once per partition and delta; the answers are
    kept in the partition's pair_cache. delta must be > 0.
    """
    # before the memo: a NaN key would store a fresh entry each call
    geo.check_adjacency_delta(delta)
    memo = partition.pair_cache
    regions = partition.regions
    out = []
    for i, j in all_pairs(partition.n):
        known = memo.get((i, j)) or memo.setdefault((i, j), {})
        within = known.get(delta)
        if within is None:
            within = known[delta] = geo.regions_within(regions[i], regions[j],
                                                       delta)
        if within:
            out.append((i, j))
    return out


class DegeneracyReport(NamedTuple):
    min_centroid_gap: float
    min_region_area: float
    max_piece_count: int


def degeneracy_report(partition: Partition, density: Density,
                      perf: PerformanceFunction) -> DegeneracyReport:
    return DegeneracyReport(
        min_centroid_gap=_min_gap([
            _centroid_entry(r, partition.env, density, perf)[0].tolist()
            for r in partition.regions])[0],
        min_region_area=min(r.area for r in partition.regions),
        max_piece_count=max(len(r.pieces) for r in partition.regions))


# ---------------------------------------------------------------------------
# snapshot serialization

_MAGIC = "gossipcover-partition 1"


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_ring(v: np.ndarray) -> str:
    return " ".join(f"{_fmt(p[0])} {_fmt(p[1])}" for p in v)


@contextmanager
def _opened(path_or_file, mode: str):
    """An open file object as it is, or a path opened in the mode and
    closed on exit."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file,
                                                         "__fspath__"):
        with open(path_or_file, mode) as f:
            yield f
    else:
        yield path_or_file


def write_snapshot(partition: Partition, path_or_file, step: int = 0):
    """Plain-text snapshot: header, environment ring, then piece rings."""
    with _opened(path_or_file, "w") as f:
        f.write(_MAGIC + "\n")
        f.write(f"step {step}\n")
        f.write(f"regions {partition.n}\n")
        f.write("environment " + _fmt_ring(partition.env.polygon.vertices) + "\n")
        for k, r in enumerate(partition.regions):
            f.write(f"region {k} pieces {len(r.pieces)}\n")
            for p in r.pieces:
                f.write("piece " + _fmt_ring(p.vertices) + "\n")


def _parse_ring(tokens) -> np.ndarray:
    vals = [float(t) for t in tokens]
    if len(vals) % 2 or len(vals) < 6:
        raise ValueError("vertex ring needs an even number of >= 6 coordinates")
    return np.array(vals, dtype=float).reshape(-1, 2)


def read_snapshot(path_or_file) -> tuple[Partition, int]:
    """The partition and step write_snapshot wrote. A file that is not a
    snapshot, or one cut short, raises ValueError naming what it lacks;
    every line written ends in a newline, so text that does not was cut
    inside its last line."""
    with _opened(path_or_file, "r") as f:
        text = f.read()
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise ValueError("not a partition snapshot")
    if not text.endswith("\n"):
        raise ValueError("snapshot ends inside its last line")
    rows = iter(lines[1:])

    def row(what: str) -> list:
        line = next(rows, None)
        if line is None:
            raise ValueError(f"snapshot ends before its {what} line")
        return line.split()

    def number(what: str, at: int) -> int:
        tokens = row(what)
        if len(tokens) <= at:
            raise ValueError(f"snapshot {what} line lacks its number")
        return int(tokens[at])

    def ring(what: str) -> ConvexPolygon:
        return ConvexPolygon(_parse_ring(row(what)[1:]))

    step = number("step", 1)
    n = number("regions", 1)
    env = Environment(ring("environment"))
    regions = [Region(tuple(ring(f"region {k} piece")
                            for _ in range(number(f"region {k}", 3))))
               for k in range(n)]
    return Partition(env, tuple(regions)), step
