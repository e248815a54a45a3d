"""Planar convex geometry for territory partitioning.

Points are float arrays of shape (2,). A half-plane is the closed set
{q : <normal, q> <= offset}. Polygons store vertices counterclockwise.
A Region is a finite union of convex polygons with pairwise disjoint
interiors; most set operations (clipping, intersection, symmetric
difference) stay inside that class.

Areas and distances are Euclidean. A tolerance argument is absolute;
partition.Environment owns the thresholds scaled to an environment and
passes them in. The thresholds fixed in this module, such as the vertex
grid cell and the centroid descent's stopping step, scale with the
coordinates they act on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, chain
from numbers import Real
from operator import add
from typing import Sequence

import numpy as np

from .quadrature import subdivide_triangle, triangle_rule


class GeometryError(Exception):
    pass


class CoincidentPoints(GeometryError):
    """Two points expected to be distinct coincide within tolerance."""


class PieceBudgetExceeded(GeometryError):
    """A region operation produced more convex pieces than the budget allows."""


class EmptyRegion(GeometryError):
    """An operation requiring a nonempty region received an empty one."""


class VanishedRegion(GeometryError):
    """A region's area fell to or below the minimum tolerated area."""


# ---------------------------------------------------------------------------
# primitives

@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {q : <normal, q> <= offset}; normal has unit length."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        norm = float(np.hypot(n[0], n[1]))
        if norm == 0.0:
            raise ValueError("half-plane normal must be nonzero")
        n = n / norm
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset) / norm)


class ConvexPolygon:
    """Convex polygon with counterclockwise vertices and positive area.

    The vertices and area are set on construction; every other property
    is computed on first use and kept, since a polygon never changes.
    """

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if not np.isfinite(v).all():
            raise ValueError("polygon vertices must be finite")
        v = _dedupe_ring(v)
        if len(v) < 3:
            raise ValueError("polygon needs at least 3 distinct vertices")
        a = area = _ring_area(v)
        if a < 0.0:
            v = v[::-1].copy()
            a = -a
            # the stored ring's own sum, which may round apart from -a
            area = _ring_area(v)
        if a <= 0.0:
            raise ValueError("polygon has no area")
        scale = float(np.max(np.abs(v))) + 1.0
        e = _cyclic_next(v) - v
        en = _cyclic_next(e)
        cross = e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0]
        if np.any(cross < -1e-9 * scale * scale):
            raise ValueError("polygon is not convex")
        v.setflags(write=False)
        self.vertices = v
        self.area = area

    def __repr__(self):
        return f"ConvexPolygon({self.vertices.tolist()!r})"

    @cached_property
    def moment(self) -> np.ndarray:
        """Integral of (x, y) over the polygon, read-only."""
        m = _ring_moment(self.vertices)
        m.setflags(write=False)
        return m

    @cached_property
    def bbox(self) -> tuple:
        """(xmin, ymin, xmax, ymax) as Python floats."""
        return _bbox(self.vertices)

    @cached_property
    def edges(self) -> list:
        """One row (vx, vy, ex, ey, length) of Python floats per edge:
        its start vertex, its vector and its length."""
        v = self.vertices
        e = _cyclic_next(v) - v
        length = np.hypot(e[:, 0], e[:, 1])
        return list(zip(*v.T.tolist(), *e.T.tolist(), length.tolist()))

    def contains(self, points, tol: float = 0.0):
        """Boolean mask of points inside (boundary counts, up to tol)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.vertices
        e = _cyclic_next(v) - v
        length = np.hypot(e[:, 0], e[:, 1])
        # cross(edge, point - vertex) >= -tol*|edge| for all edges
        rel = pts[:, None, :] - v[None, :, :]
        cr = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
        lim = -tol * length[None, :]
        return np.all(cr >= lim, axis=1)


def _cyclic_next(a: np.ndarray) -> np.ndarray:
    """Each row's successor around the ring: a[1], ..., a[-1], a[0]."""
    return np.concatenate((a[1:], a[:1]))


def _vertex_cell(max_abs: float) -> float:
    """The cell of the one vertex grid, for coordinates up to max_abs."""
    return 1e-12 * (max_abs + 1.0)


def _vertex_keys(vertices: np.ndarray, inv_eps: float) -> list:
    """Each vertex's grid cell as an (i, j) tuple, at 1/inv_eps per cell."""
    return list(map(tuple, np.rint(vertices * inv_eps).astype(np.int64)
                    .tolist()))


def _dedupe_ring(ring) -> np.ndarray:
    """The ring, a list of float pairs or an (n, 2) array, as one array
    with no vertex within one grid cell of the one kept before it, the
    last checked against the first. When every cyclic gap has a leg above
    the cell, every vertex stays: a computed np.hypot is never below its
    larger leg, and rounding is monotone (Shewchuk's static filter). Any
    other ring, and one with a NaN, walks the loop, with the cell taken
    by numpy's max, NaN included."""
    pts = ring.tolist() if isinstance(ring, np.ndarray) else ring
    v = np.asarray(ring, dtype=float)
    eps = _vertex_cell(max(map(abs, chain.from_iterable(pts))))
    px, py = pts[-1]
    for x, y in pts:
        dx, dy = abs(x - px), abs(y - py)
        if not ((dx > eps or dy > eps) and dx == dx and dy == dy):
            break
        px, py = x, y
    else:
        return v
    eps = _vertex_cell(float(np.abs(v).max()))
    keep = []
    for p in v:
        if not keep or np.hypot(*(p - keep[-1])) > eps:
            keep.append(p)
    while len(keep) > 1 and np.hypot(*(keep[-1] - keep[0])) <= eps:
        keep.pop()
    return np.array(keep)


def _ring_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    s = float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1]))
    # the wrap-around term on Python floats: item() skips numpy's scalars
    return 0.5 * (s + (x.item(-1) * y.item(0) - x.item(0) * y.item(-1)))


def _ring_moment(v: np.ndarray) -> np.ndarray:
    """Integral of (x, y) over the polygon (unnormalized first moment).

    Each edge's terms are Python float products, as numpy computes them
    elementwise, and each coordinate's terms are added in np.add.reduce's
    order, so the bits are those of the array form."""
    vl = v.tolist()
    tx, ty = [], []
    for (x, y), (xn, yn) in zip(vl, vl[1:] + vl[:1]):
        cr = x * yn - xn * y
        tx.append((x + xn) * cr)
        ty.append((y + yn) * cr)
    return np.array([_pairwise_sum(tx) / 6.0, _pairwise_sum(ty) / 6.0])


def _pairwise_sum(t: list) -> float:
    """np.add.reduce of a float64 vector held as a list of floats, to the
    bit. numpy adds a pairwise sum to its identity 0.0: below 8 terms one
    running sum; up to 128, eight interleaved running sums joined as a
    tree, then the remaining terms one by one; above that, the sums of two
    halves cut at a multiple of 8. Adding 0.0 changes only the sign of a
    zero, and that only in a zero result, so each level starts from 0.0
    in place of numpy's one identity."""
    n = len(t)
    if n < 8:
        s = 0.0
        for x in t:
            s += x
        return s
    if n > 128:
        h = n // 2 - n // 2 % 8
        return _pairwise_sum(t[:h]) + _pairwise_sum(t[h:])
    m = n - n % 8
    r = t[:8]
    for k in range(8, m, 8):
        r = list(map(add, r, t[k:k + 8]))
    s = 0.0 + (((r[0] + r[1]) + (r[2] + r[3]))
               + ((r[4] + r[5]) + (r[6] + r[7])))
    for x in t[m:]:
        s += x
    return s


def sum_left(values):
    """0 + v0 + v1 + ..., added strictly left to right.

    Every float sum in the package goes through it: from Python 3.12 the
    builtin sum adds floats with compensated summation, which can change
    the last bits. sum([1e16, 1.0, -1e16]) is 1.0 there; this gives 0.0,
    as the builtin does on 3.11.
    """
    total = 0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class Region:
    """Union of convex polygons with pairwise disjoint interiors.

    A region never changes, so it caches one map of itself:
    centroid_cache, the (centroid, cost) pair per density, performance
    and environment, filled by partition.centroids and
    partition.centroid_cost.

    refused is (tol, pairs): the pairs (a, b) of its own pieces whose
    fused hull merge_pieces refused at area tolerance tol. Only
    partition.Environment.region fills it; a region built any other way
    holds none.
    """

    pieces: tuple
    centroid_cache: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)
    refused: tuple = field(default=(0.0, frozenset()), repr=False,
                           compare=False)

    @cached_property
    def area(self) -> float:
        return sum_left(p.area for p in self.pieces)

    @property
    def is_empty(self) -> bool:
        return len(self.pieces) == 0

    @cached_property
    def vertices(self) -> np.ndarray:
        """Every piece's vertices stacked, read-only."""
        if len(self.pieces) == 1:
            return self.pieces[0].vertices
        v = np.concatenate([p.vertices for p in self.pieces]) \
            if self.pieces else np.zeros((0, 2))
        v.setflags(write=False)
        return v

    @cached_property
    def vertex_set(self) -> frozenset:
        """Every vertex as an (x, y) tuple of floats."""
        return frozenset(map(tuple, self.vertices.tolist()))

    @cached_property
    def piece_starts(self) -> np.ndarray:
        """Row in vertices of each piece's first vertex."""
        starts = [0]
        for p in self.pieces[:-1]:
            starts.append(starts[-1] + len(p.vertices))
        return np.array(starts, dtype=np.intp)

    @cached_property
    def next_vertex(self) -> np.ndarray:
        """Row in vertices of each vertex's successor around its piece."""
        starts = self.piece_starts
        nxt = np.arange(1, len(self.vertices) + 1)
        nxt[starts[1:] - 1] = starts[:-1]
        nxt[-1] = starts[-1]
        return nxt

    @cached_property
    def bbox(self) -> tuple:
        """(xmin, ymin, xmax, ymax) of a nonempty region."""
        return _bbox(self.vertices)

    def contains(self, points, tol: float = 0.0):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mask = np.zeros(len(pts), dtype=bool)
        for p in self.pieces:
            mask |= p.contains(pts, tol)
        return mask

    def validate(self, overlap_tol: float):
        """Check pairwise interior-disjointness; raises on violation."""
        for k, p in enumerate(self.pieces):
            for q in self.pieces[k + 1:]:
                inter = convex_intersect(p, q)
                if inter is not None and inter.area > overlap_tol:
                    raise GeometryError(
                        f"pieces overlap with area {inter.area:.3e}")
        return self


def region_of(*vertex_lists) -> Region:
    """Convenience constructor from raw vertex lists."""
    return Region(tuple(ConvexPolygon(v) for v in vertex_lists))


# ---------------------------------------------------------------------------
# construction and clipping

def bisector_halfplane(p, q) -> HalfPlane:
    """Half-plane of points at least as close to p as to q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    gap = float(np.hypot(d[0], d[1]))
    if gap == 0.0:
        raise CoincidentPoints(f"bisector undefined for gap {gap:.3e}")
    n = d / gap
    return HalfPlane(n, float(n @ (p + q)) / 2.0)


def _ring_polygon(ring, min_area: float) -> ConvexPolygon | None:
    """The polygon on the deduplicated ring, with the area measured here;
    None below three vertices or at most min_area."""
    arr = _dedupe_ring(ring)
    if len(arr) < 3:
        return None
    area = _ring_area(arr)
    if area <= min_area:
        return None
    poly = ConvexPolygon.__new__(ConvexPolygon)
    arr.setflags(write=False)
    poly.vertices, poly.area = arr, area
    return poly


def _cut(v: np.ndarray, dl: list, min_area: float, sides):
    """(inside, outside) of a polygon whose vertex offsets dl past the
    line have both signs; a side that sides marks False is not built
    and comes back None."""
    ins: list = []
    outs: list = []
    vl = v.tolist()
    for a, da, b, db in zip(vl, dl, vl[1:] + vl[:1], dl[1:] + dl[:1]):
        if da <= 0.0:
            ins.append(a)
        if da >= 0.0:
            outs.append(a)
        if da < 0.0 < db or da > 0.0 > db:
            t = da / (da - db)
            x = [a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]
            ins.append(x)
            outs.append(x)
    return (_ring_polygon(ins, min_area) if sides[0] else None,
            _ring_polygon(outs, min_area) if sides[1] else None)


def region_split(region: Region, hp: HalfPlane, snap: float = 0.0,
                 min_area: float = 0.0,
                 sides=(True, True)) -> tuple[list, list]:
    """Two-sided split of every piece; returns (inside, outside) piece lists.

    This is the package's one sort of pieces against a line. One
    projection of the stacked vertices gives each piece's offset range;
    vertices within snap of the line are taken to lie on it, so a cut
    almost parallel to an existing edge reassigns the piece cleanly
    instead of shaving off a hairline sliver. A piece wholly on one
    side is handed over as the same object, a hairline one lying on the
    line is dropped, and only pieces that straddle the line are cut, at
    the same offsets; both sides of a cut share the interpolated seam
    vertices, which keeps the split area-conserving. A side that sides
    marks False is not built and comes back empty; the other side's
    pieces are the same.
    """
    if region.is_empty:
        return [], []
    d = region.vertices @ hp.normal - hp.offset
    if snap > 0.0:
        d = np.where(np.abs(d) <= snap, 0.0, d)
    starts = region.piece_starts
    ins: list = []
    outs: list = []
    for p, start, hi, lo in zip(region.pieces, starts.tolist(),
                                np.maximum.reduceat(d, starts).tolist(),
                                np.minimum.reduceat(d, starts).tolist()):
        if hi <= 0.0:
            if lo < 0.0:
                ins.append(p)
        elif lo >= 0.0:
            outs.append(p)
        else:
            a, b = _cut(p.vertices, d[start:start + len(p.vertices)].tolist(),
                        min_area, sides)
            if a is not None:
                ins.append(a)
            if b is not None:
                outs.append(b)
    return ins if sides[0] else [], outs if sides[1] else []


def clip(poly: ConvexPolygon, halfplanes, snap: float = 0.0,
         min_area: float = 0.0) -> ConvexPolygon | None:
    """The part of poly inside every half-plane, taken in turn as the
    inside side of a one-piece region_split; None as soon as nothing is
    left, before the remaining half-planes are drawn."""
    for hp in halfplanes:
        ins, _ = region_split(Region((poly,)), hp, snap, min_area,
                              (True, False))
        if not ins:
            return None
        poly = ins[0]
    return poly


def convex_intersect(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon | None:
    """Intersection of two convex polygons: a clipped by each edge line of b."""
    scale = max(float(np.abs(b.vertices).max()),
                float(np.abs(a.vertices).max()), 1e-300)
    # the inward normal of a CCW edge is (-ey, ex): inside means cross
    # >= 0. Edges shorter than coordinate noise have unreliable normals;
    # the half-plane they would add is redundant up to that noise anyway
    return clip(a, (HalfPlane(np.array([ey, -ex]), ey * x - ex * y)
                    for x, y, ex, ey, length in b.edges
                    if length >= 1e-12 * scale), 1e-12 * scale)


def intersection_area(a: Region, b: Region) -> float:
    # pieces shared by identity intersect in exactly themselves and touch
    # the rest of the other region only along boundaries
    total = 0.0
    unmatched = dict.fromkeys(b.pieces)
    rest_a = []
    for p in a.pieces:
        if p in unmatched:
            total += p.area
            del unmatched[p]
        else:
            rest_a.append(p)
    for p in rest_a:
        for q in unmatched:
            if _bbox_gap(p.bbox, q.bbox) > 0.0:
                continue
            c = convex_intersect(p, q)
            if c is not None:
                total += c.area
    return total


def _bbox(v: np.ndarray):
    (x0, y0), (x1, y1) = v.min(axis=0).tolist(), v.max(axis=0).tolist()
    return x0, y0, x1, y1


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull, counterclockwise (Andrew 1979).

    The chains run on Python floats; the turn test computes
    (b - a) x (p - a) in the order the array form did, so every answer
    is the same to the bit.
    """
    # Python's stable sort of [x, y] rows is np.lexsort's order on x, then y
    seq = sorted(np.asarray(points, dtype=float).tolist())
    if len(seq) < 3:
        return np.array(seq, dtype=float).reshape(-1, 2)

    def build(seq):
        out = []
        for p in seq:
            px, py = p
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = build(seq)
    upper = build(seq[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=float).reshape(-1, 2)


def _fused(hull) -> ConvexPolygon:
    """The polygon on an accepted fused hull. Far from the origin, the
    hull of slivers can round to no positive area, and _ring_polygon
    refuses it: a GeometryError, not a None piece."""
    poly = _ring_polygon(hull, 0.0)
    if poly is None:
        raise GeometryError(f"fused hull of {len(hull)} vertices has area "
                            f"{_ring_area(hull):.3e}")
    return poly


def merge_pieces(pieces: Sequence[ConvexPolygon], tol: float,
                 rejected: set | None = None) -> list:
    """Greedily fuse piece pairs whose union is convex (within area tol).

    A convex union needs a fully shared edge; splits hand both sides the
    same seam coordinates, so candidate pairs must share two vertices and
    the quick grid-key test below prunes everything else. A whole-set hull
    pre-pass catches the common end state where the union is convex but no
    single pair is (misaligned historical seams). Both read one stack of
    every piece's vertices: the hull takes it whole, and the keys come
    from one rounding of it, sliced per piece.

    rejected holds piece pairs (a, b) whose hull is known to fail at
    this tol or a larger one; they are not tested, and every pair that
    fails here is added to it. A pair's verdict depends only on its two
    pieces and the slack, so skipping the test leaves the result the
    same to the bit.
    """
    work = list(pieces)
    if len(work) < 2:
        return work
    if rejected is None:
        rejected = set()
    stacked = np.concatenate([p.vertices for p in work])
    if len(work) > 2:
        hull = _convex_hull(stacked)
        if _ring_area(hull) <= sum_left(p.area for p in work) + tol:
            return [_fused(hull)]
    inv_eps = 1.0 / _vertex_cell(float(np.abs(stacked).max()))
    cells = _vertex_keys(stacked, inv_eps)
    bounds = [0, *accumulate(len(p.vertices) for p in work)]
    keys = [set(cells[a:b]) for a, b in zip(bounds, bounds[1:])]
    # piece pairs whose hull failed are not tested again on a rescan: a
    # failing test fuses nothing, so the greedy order stays the same;
    # holding the pieces keeps their ids unique
    changed = True
    while changed and len(work) > 1:
        changed = False
        i = 0
        while i < len(work):
            j = i + 1
            while j < len(work):
                a, b = work[i], work[j]
                if len(keys[i] & keys[j]) < 2 or (a, b) in rejected:
                    j += 1
                    continue
                hull = _convex_hull(np.concatenate((a.vertices, b.vertices)))
                s = a.area + b.area
                if _ring_area(hull) <= s + max(tol, 1e-12 * s):
                    # keep scanning the grown piece against the remainder
                    work[i] = _fused(hull)
                    keys[i] = set(_vertex_keys(work[i].vertices, inv_eps))
                    del work[j]
                    del keys[j]
                    changed = True
                else:
                    rejected.add((a, b))
                    j += 1
            i += 1
    return work


# ---------------------------------------------------------------------------
# measures and metrics

def symdiff_area(a: Region, b: Region) -> float:
    """Area of the symmetric difference of two regions."""
    return max(a.area + b.area - 2.0 * intersection_area(a, b), 0.0)


def _points_segments_distance(pts: np.ndarray, s1: np.ndarray,
                              s2: np.ndarray) -> np.ndarray:
    """Per-point distance to the nearest of the segments (s1[k], s2[k])."""
    ab = s2 - s1
    den = np.einsum("ij,ij->i", ab, ab)
    den = np.where(den == 0.0, 1.0, den)
    ap = pts[:, None, :] - s1[None, :, :]
    t = np.clip(np.einsum("pki,ki->pk", ap, ab) / den[None, :], 0.0, 1.0)
    diff = ap - t[:, :, None] * ab[None, :, :]
    return np.sqrt(np.einsum("pki,pki->pk", diff, diff).min(axis=1))


def _any_segments_cross(a1, a2, b1, b2) -> bool:
    """True when any segment of the first set properly crosses any of the
    second. A crossing lies in both segments' boxes, so a pair whose
    boxes are apart is not counted: on far-apart segments of one line the
    orientation signs are rounding noise."""
    boxes = ((np.minimum(a1, a2)[:, None] <= np.maximum(b1, b2)[None])
             & (np.minimum(b1, b2)[None] <= np.maximum(a1, a2)[:, None]))
    ea = a2 - a1
    r1 = b1[None, :, :] - a1[:, None, :]
    r2 = b2[None, :, :] - a1[:, None, :]
    d1 = ea[:, None, 0] * r1[:, :, 1] - ea[:, None, 1] * r1[:, :, 0]
    d2 = ea[:, None, 0] * r2[:, :, 1] - ea[:, None, 1] * r2[:, :, 0]
    eb = b2 - b1
    r3 = a1[:, None, :] - b1[None, :, :]
    r4 = a2[:, None, :] - b1[None, :, :]
    d3 = eb[None, :, 0] * r3[:, :, 1] - eb[None, :, 1] * r3[:, :, 0]
    d4 = eb[None, :, 0] * r4[:, :, 1] - eb[None, :, 1] * r4[:, :, 0]
    return bool(np.any(boxes.all(axis=2) & ((d1 > 0) != (d2 > 0))
                       & ((d3 > 0) != (d4 > 0))))


def _bbox_gap(a, b) -> float:
    dx = max(0.0, a[0] - b[2], b[0] - a[2])
    dy = max(0.0, a[1] - b[3], b[1] - a[3])
    if dx == 0.0 or dy == 0.0:
        return dx + dy  # hypot is exact here
    return float(np.hypot(dx, dy))


def interior_distance(a: Region, b: Region) -> float:
    """Infimum distance between region interiors; 0 when they touch."""
    return _distance_below(a, b, np.inf)


def _number(x):
    """x where it is a real number, else NaN, which fails every bound it
    is tested against: a str or None is refused as NaN is."""
    return x if type(x) is float or isinstance(x, Real) else np.nan


def check_adjacency_delta(delta) -> None:
    """Refuse an adjacency delta that is not > 0: NaN, None and a str too."""
    if not _number(delta) > 0.0:
        raise ValueError(f"adjacency delta must be > 0, got {delta!r}")


def regions_within(a: Region, b: Region, delta: float) -> bool:
    """interior_distance(a, b) < delta, for delta > 0.

    After the shortcuts of the bounded search, a vertex of one region
    nearer than delta to an edge of the other answers True. Otherwise
    the regions come within delta only if two of their pieces meet.
    """
    check_adjacency_delta(delta)
    d = _distance_shortcut(a, b, delta)
    if d is None:
        return _vertex_edge_distance(a, b) < delta or _pieces_meet(a, b)
    return bool(d < delta)


def _share_seam_vertex(a: Region, b: Region) -> bool:
    """True when a and b have a vertex in common, coordinate for
    coordinate; regions meeting along a shared seam carry identical
    vertex floats, and a common point means their closures touch."""
    return not a.vertex_set.isdisjoint(b.vertex_set)


def _distance_below(a: Region, b: Region, below: float) -> float:
    """The interior distance when it is below `below`, else `below`.

    Two disjoint convex pieces are nearest at a vertex of one and an
    edge of the other (Ericson, Real-Time Collision Detection, ch. 5),
    so after the shortcuts the distance is the region-level vertex-to-
    edge minimum, capped at `below`, and 0 when two pieces meet.
    """
    d = _distance_shortcut(a, b, below)
    if d is None:
        d = min(_vertex_edge_distance(a, b), float(below))
        if d > 0.0 and _pieces_meet(a, b):
            d = 0.0
    return d


def _distance_shortcut(a: Region, b: Region, below: float) -> float | None:
    """0 for a vertex the regions share; `below` for boxes at least
    `below` apart; else None."""
    if a.is_empty or b.is_empty:
        raise EmptyRegion("interior distance needs nonempty regions")
    if _share_seam_vertex(a, b):
        return 0.0
    if _bbox_gap(a.bbox, b.bbox) >= below:
        return float(below)
    return None


def _vertex_edge_distance(a: Region, b: Region) -> float:
    """Smallest distance from a vertex of either region to an edge of the
    other, in one pass each way over the stacked vertices."""
    va, vb = a.vertices, b.vertices
    return min(
        float(_points_segments_distance(va, vb, vb[b.next_vertex]).min()),
        float(_points_segments_distance(vb, va, va[a.next_vertex]).min()))


def _pieces_meet(a: Region, b: Region) -> bool:
    """True when a piece of a and a piece of b meet: one region holds a
    first vertex of the other's pieces, or their edges cross. One pass
    over the stacked arrays, like _vertex_edge_distance (Ericson, ch. 5)."""
    va, vb = a.vertices, b.vertices
    return bool(b.contains(va[a.piece_starts]).any()
                or a.contains(vb[b.piece_starts]).any()
                or _any_segments_cross(va, va[a.next_vertex],
                                       vb, vb[b.next_vertex]))


# interior points sampled per edge when a Hausdorff distance is bounded
_HAUSDORFF_SAMPLES = 8


def _boundary_candidates(region: Region) -> np.ndarray:
    """Every vertex, then each edge's interior samples in vertex order."""
    ts = np.arange(1, _HAUSDORFF_SAMPLES + 1) / (_HAUSDORFF_SAMPLES + 1)
    v = region.vertices
    seg = v[:, None, :] + ts[None, :, None] * (v[region.next_vertex]
                                               - v)[:, None, :]
    return np.vstack((v, seg.reshape(-1, 2)))


def hausdorff_distance(a: Region, b: Region) -> float:
    """Hausdorff distance evaluated over boundary candidate points.

    Exact when both regions are single convex pieces (the directed
    distance is then attained at a vertex); for unions it is a lower
    bound refined by sampling each edge at _HAUSDORFF_SAMPLES points.
    """
    if a.is_empty or b.is_empty:
        raise EmptyRegion("hausdorff distance needs nonempty regions")

    def directed(src: Region, dst: Region) -> float:
        cand = _boundary_candidates(src)
        outside = cand[~dst.contains(cand)]
        if len(outside) == 0:
            return 0.0
        v = dst.vertices
        return float(_points_segments_distance(outside, v,
                                               v[dst.next_vertex]).max())

    return max(directed(a, b), directed(b, a))


def diameter(obj) -> float:
    """Largest vertex-to-vertex distance (polygon or region)."""
    v = obj.vertices
    if len(v) == 0:
        raise EmptyRegion("diameter of an empty region")
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.max()))


# ---------------------------------------------------------------------------
# densities and performance functions

class _MemoKey:
    """Base of the frozen dataclasses that key the memo tables.

    __post_init__ ends with _seal, which stores the hash the dataclass
    would generate, that of the field tuple, so a memo lookup does not
    hash the fields again (a grid's every sample). A dataclass writes
    its own __hash__ unless the class body names one, so each subclass
    sets __hash__ = _MemoKey.__hash__. Pickling rebuilds the object
    through its constructor, because str hashes are salted per process
    and a stored hash must not travel.
    """

    def _field_values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def _seal(self):
        object.__setattr__(self, "_hash", hash(self._field_values()))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), self._field_values()


@dataclass(frozen=True)
class UniformDensity(_MemoKey):
    """Constant positive density; equal densities share memo entries."""

    value: float = 1.0

    __hash__ = _MemoKey.__hash__

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("density must be finite")
        if self.value <= 0.0:
            raise ValueError("density must be positive")
        object.__setattr__(self, "value", float(self.value))
        self._seal()

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.full(len(pts), self.value)


@dataclass(frozen=True)
class GridDensity(_MemoKey):
    """Bilinear interpolation of positive samples on a regular grid over
    [x0, x1] x [y0, y1]; values keeps the sample rows as a tuple."""

    x0: float
    y0: float
    x1: float
    y1: float
    values: tuple

    __hash__ = _MemoKey.__hash__

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise ValueError("grid needs at least 2x2 samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density samples must be finite")
        if np.any(vals <= 0.0):
            raise ValueError("density samples must be positive")
        if not np.all(np.isfinite([self.x0, self.y0, self.x1, self.y1])):
            raise ValueError("grid extent must be finite")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("empty grid extent")
        object.__setattr__(self, "values", tuple(map(tuple, vals.tolist())))
        self._seal()

    @cached_property
    def grid(self) -> np.ndarray:
        return np.array(self.values)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ny, nx = self.grid.shape
        fx = (pts[:, 0] - self.x0) / (self.x1 - self.x0) * (nx - 1)
        fy = (pts[:, 1] - self.y0) / (self.y1 - self.y0) * (ny - 1)
        fx = np.clip(fx, 0.0, nx - 1 - 1e-12)
        fy = np.clip(fy, 0.0, ny - 1 - 1e-12)
        ix = fx.astype(int)
        iy = fy.astype(int)
        tx = fx - ix
        ty = fy - iy
        v = self.grid
        return ((1 - tx) * (1 - ty) * v[iy, ix] + tx * (1 - ty) * v[iy, ix + 1]
                + (1 - tx) * ty * v[iy + 1, ix] + tx * ty * v[iy + 1, ix + 1])


Density = UniformDensity | GridDensity


@dataclass(frozen=True)
class PerformanceFunction(_MemoKey):
    """Increasing convex cost f of distance, given by its kind: f(r) = r^2
    for "quadratic", f(r) = r for "linear"; a new cost is a new kind.
    Equal costs share memo entries. fn gives f.

    refine splits every quadrature triangle into refine**2 children when
    integrating this cost; a cost kinked at the center, like the linear
    one, needs it to shrink the degree-6 rule's error.
    """

    kind: str
    refine: int = 1

    __hash__ = _MemoKey.__hash__

    def __post_init__(self):
        if self.kind not in ("quadratic", "linear"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if type(self.refine) is not int or self.refine < 1:
            raise ValueError(f"refine: need an int >= 1, got {self.refine!r}")
        self._seal()

    def fn(self, r):
        return np.square(r) if self.kind == "quadratic" else \
            np.asarray(r, dtype=float)


def quadratic_performance() -> PerformanceFunction:
    return PerformanceFunction("quadratic")


def linear_performance() -> PerformanceFunction:
    return PerformanceFunction("linear")


# ---------------------------------------------------------------------------
# integration and generalized centroids

# the descent for non-quadratic centroids stops once a step moves less
# than this fraction of its scale (the region's or environment's diameter)
_DESCENT_TOL = 1e-10
_DESCENT_MAX_ITER = 500


def _quadrature(region: Region, density: Density, refine: int):
    """Quadrature points, physical weights and density values of a region:
    the degree-6 rule on refine**2 children of each piece's fan triangles,
    in piece, then fan triangle, then child, then rule point order.

    Building them is the costly part of an integral, so callers that
    integrate several functions over one region build them once. Every
    fan triangle of every piece is one stack, so each step below is one
    numpy pass, with the float operations of a per-triangle build.
    """
    if region.is_empty:
        pts, w = np.zeros((0, 2)), np.zeros(0)
        return pts, w, density(pts)
    bary, wts = triangle_rule()
    v = region.vertices
    starts = region.piece_starts.tolist()
    fan = [(s, k, k + 1) for s, e in zip(starts, starts[1:] + [len(v)])
           for k in range(s + 1, e - 1)]
    tris = v[fan]  # (K, 3, 2)
    tris = subdivide_triangle(tris[:, 0], tris[:, 1], tris[:, 2], refine)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = np.einsum("rb,kbd->krd", bary, tris).reshape(-1, 2)  # (k * R, 2)
    w = (areas[:, None] * wts[None, :]).reshape(-1)
    return pts, w, density(pts)


def _quad_sum(quad, values) -> float:
    """Integral over a quadrature point set of the values given at its
    points times the density; 0.0 over no points."""
    _, w, dens = quad
    return float(np.sum(w * np.asarray(values, dtype=float) * dens))


def integrate(region: Region, density: Density, fn) -> float:
    """Integral of fn(q) * density(q) over the region, by the degree-6 rule.

    fn maps an (n, 2) array of points to n scalar values.
    """
    quad = _quadrature(region, density, 1)
    return _quad_sum(quad, fn(quad[0]))


def mass_centroid(region: Region, density: Density) -> np.ndarray:
    """Density-weighted mean point (exact for uniform density)."""
    return _mass_centroid(region, density, 1)


def _mass_centroid(region: Region, density: Density, refine: int) -> np.ndarray:
    if region.is_empty:
        raise EmptyRegion("centroid of an empty region")
    if isinstance(density, UniformDensity):
        m0 = region.area
        if m0 <= 0.0:
            raise VanishedRegion("region has no area")
        # the moments summed left to right from 0.0, as the sum of arrays
        # from np.zeros(2) adds them
        mx = my = 0.0
        for p in region.pieces:
            px, py = p.moment.tolist()
            mx += px
            my += py
        return np.array([mx / m0, my / m0])
    return _quad_mass_centroid(_quadrature(region, density, refine))


def _quad_mass_centroid(quad) -> np.ndarray:
    """Density-weighted mean of a nonempty region's quadrature points."""
    pts, w, dens = quad
    m0 = _quad_sum(quad, 1.0)
    if m0 <= 0.0:
        raise VanishedRegion("region has no mass")
    return np.sum((w * dens)[:, None] * pts, axis=0) / m0


def one_center_cost(p, region: Region, density: Density,
                    perf: PerformanceFunction) -> float:
    """Expected cost of serving the region from point p.

    Quadratic cost under uniform density is exact: the polar second
    moment of the region about p. Every other cost integrates the
    quadrature.
    """
    if perf.kind == "quadratic" and isinstance(density, UniformDensity):
        if region.is_empty:
            return 0.0
        return density.value * _polar_moment_about(p, region)
    quad = _quadrature(region, density, perf.refine)
    d = np.asarray(p, dtype=float) - quad[0]
    return _quad_sum(quad, perf.fn(np.hypot(d[:, 0], d[:, 1])))


def _polar_moment_about(p, region: Region) -> float:
    """Integral of |q - p|^2 over the region, from one shoelace pass over
    every piece's edges about the vertex mean o (Steger 1996).

    The pass gives area A, first moment M and polar second moment J
    about o; then the integral is J - M.M/A + A |p - o - M/A|^2.
    """
    v = region.vertices
    # v.mean(axis=0) as numpy's own mean computes it, without its wrapper
    o = np.add.reduce(v, axis=0) / len(v)
    x, y = (v - o).T
    nxt = region.next_vertex
    xn, yn = x[nxt], y[nxt]
    cr = x * yn - xn * y
    a = float(cr.sum()) / 2.0
    sx, sy = x + xn, y + yn
    m = np.array([sx @ cr, sy @ cr]) / 6.0
    j = float((x * sx + xn * xn + y * sy + yn * yn) @ cr) / 12.0
    c = m / a
    d = np.asarray(p, dtype=float) - o - c
    return float(j - c @ m + a * (d @ d))


def centroid(region: Region, density: Density, perf: PerformanceFunction,
             scale: float | None = None) -> np.ndarray:
    """Point minimizing the one-center cost of the region.

    Quadratic cost has the closed-form mass centroid; the linear cost
    (f(r) = r, f'(r) = 1) runs gradient descent with backtracking from
    that start, every iterate evaluated on one quadrature point set
    built up front; an accepted iterate's offsets to those points serve
    its next gradient. It stops after
    _DESCENT_MAX_ITER iterations at the latest. scale sets the first
    step and the stopping length; it defaults to the region's diameter.
    The minimizer of a convex increasing cost lies in the region's
    convex hull, so no iterate needs projecting.
    """
    return _centroid_and_cost(region, density, perf, scale)[0]


def _centroid_and_cost(region: Region, density: Density,
                       perf: PerformanceFunction, scale: float | None):
    """centroid's point and the one-center cost there: the descent's last
    accepted cost, the sum one_center_cost makes at that point."""
    if perf.kind == "quadratic":
        x = _mass_centroid(region, density, perf.refine)
        return x, one_center_cost(x, region, density, perf)
    if region.is_empty:
        raise EmptyRegion("centroid of an empty region")
    quad = _quadrature(region, density, perf.refine)
    # under a grid density the start reads the descent's own build
    x = (_mass_centroid(region, density, perf.refine)
         if isinstance(density, UniformDensity) else _quad_mass_centroid(quad))
    pts, w, dens = quad
    # a density of exactly 1.0 everywhere: x * 1.0 is x, bit for bit
    unit = bool((dens == 1.0).all())
    wd = w if unit else w * dens
    # offsets are kept as (2, N): one broadcast subtract per trial and
    # contiguous rows for the hypot
    pts = np.ascontiguousarray(pts.T)
    if scale is None:
        scale = diameter(region)
    tol = _DESCENT_TOL * max(scale, 1e-12)
    # the accepted point's offsets, lengths and offset rows, and a
    # trial's: the two trade places when a trial is accepted, and every
    # pass writes into a buffer, so nothing is allocated per trial
    n = len(w)
    d, dc = np.empty((2, n)), np.empty((2, n))
    here, there = (d, np.empty(n), tuple(d)), (dc, np.empty(n), tuple(dc))
    terms, s, wr = np.empty((2, n)), np.empty(n), np.empty(n)
    g_last = terms[:, -1]
    cbuf = np.empty((2, 1))

    def cost_at(p, offsets, lengths, rows):
        # w * |p - q| * dens summed over the points q, with the product
        # by dens skipped where it is 1.0
        np.subtract(p, pts, out=offsets)
        np.hypot(*rows, out=lengths)
        np.multiply(w, lengths, out=wr)
        if not unit:
            np.multiply(wr, dens, out=wr)
        return float(np.add.reduce(wr))

    fx = cost_at(x[:, None], *here)
    step = max(scale, 1e-12)
    # the iterate, gradient, trial point and move are Python floats: the
    # same IEEE operations numpy's elementwise ops make on 2-vectors. The
    # stop and decrease tests take math.hypot and a two-term Python sum,
    # so no decision depends on the BLAS kernel or the C library's hypot
    x0, x1 = x.tolist()
    # near: a lower bound on the iterate's distance to every quadrature
    # point, the least computed length when last measured less 1.001
    # times the L1 length of each move accepted since (an L1 length is
    # never below the L2 one, and the 0.1 % covers the moves' rounding)
    near = 0.0
    for _ in range(_DESCENT_MAX_ITER):
        d, r, _rows = here
        # f'(r) = 1: each point pulls along its unit offset, none at p.
        # With every length at or above 1e-14, np.maximum(r, 1e-300) is r
        # and nothing is masked. near >= 2e-14 proves that with a factor
        # 2 to spare for the lengths' rounding; below it the least length
        # is measured again, and a NaN one fails the test
        if near < 2e-14:
            near = float(np.minimum.reduce(r))
        if near >= 2e-14:
            np.divide(1.0, r, out=s)
        else:
            np.divide(1.0, np.maximum(r, 1e-300), out=s)
            s[r < 1e-14] = 0.0
        # each coordinate's terms summed in point order: accumulate runs
        # sequentially, where a reduce along a contiguous row would pair
        np.multiply(d, s, out=terms)
        np.multiply(wd, terms, out=terms)
        np.add.accumulate(terms, axis=1, out=terms)
        g0, g1 = g_last.tolist()
        if math.hypot(g0, g1) * step < tol * 1e-3:
            break
        moved = False
        alpha = step
        for _bt in range(60):
            c0, c1 = x0 - alpha * g0, x1 - alpha * g1
            m0, m1 = c0 - x0, c1 - x1
            if math.hypot(m0, m1) < tol:
                break
            cbuf[0, 0], cbuf[1, 0] = c0, c1
            fc = cost_at(cbuf, *there)
            if fc <= fx + 1e-4 * (g0 * m0 + g1 * m1):
                x0, x1, fx = c0, c1, fc
                here, there = there, here
                near -= 1.001 * (abs(m0) + abs(m1))
                moved = True
                step = alpha * 2.0
                break
            alpha *= 0.5
        if not moved:
            break
    return np.array((x0, x1)), fx
