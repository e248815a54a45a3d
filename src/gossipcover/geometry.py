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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
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

    def signed(self, points) -> np.ndarray:
        """Signed distance to the boundary line; <= 0 means inside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.normal - self.offset

    def contains(self, point, tol: float = 0.0) -> bool:
        return float(self.signed(point)[0]) <= tol

    def flipped(self) -> "HalfPlane":
        return HalfPlane(-self.normal, -self.offset)


class ConvexPolygon:
    """Convex polygon with counterclockwise vertices and positive area.

    The vertices and area are set on construction; every other property
    is computed on first use and kept, since a polygon never changes.
    """

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
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


def _contains_point(poly: ConvexPolygon, x: float, y: float) -> bool:
    """poly.contains at tolerance 0 for the one point (x, y), on Python
    floats: the same cross products, so the same answer."""
    for vx, vy, ex, ey, _ in poly.edges:
        if ex * (y - vy) - ey * (x - vx) < 0.0:
            return False
    return True


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


def _dedupe_ring(v: np.ndarray) -> np.ndarray:
    eps = _vertex_cell(float(np.abs(v).max()))
    # every gap, the closing one included, above eps: the loop keeps all
    gap = _cyclic_next(v) - v
    if (np.hypot(gap[:, 0], gap[:, 1]) > eps).all():
        return v
    keep = []
    for p in v:
        if not keep or np.hypot(*(p - keep[-1])) > eps:
            keep.append(p)
    while len(keep) > 1 and np.hypot(*(keep[-1] - keep[0])) <= eps:
        keep.pop()
    return np.array(keep) if keep else v[:0]


def _ring_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    s = float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1]))
    return 0.5 * (s + float(x[-1] * y[0] - x[0] * y[-1]))


def _ring_moment(v: np.ndarray) -> np.ndarray:
    """Integral of (x, y) over the polygon (unnormalized first moment)."""
    x, y = v[:, 0], v[:, 1]
    xn, yn = _cyclic_next(x), _cyclic_next(y)
    cr = x * yn - xn * y
    mx = float(np.sum((x + xn) * cr)) / 6.0
    my = float(np.sum((y + yn) * cr)) / 6.0
    return np.array([mx, my])


@dataclass(frozen=True)
class Region:
    """Union of convex polygons with pairwise disjoint interiors.

    A region never changes, so it caches one map of itself:
    centroid_cache, the (centroid, cost) pair per density, performance
    and environment, filled by partition.centroids and
    partition.centroid_cost.
    """

    pieces: tuple
    centroid_cache: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    @cached_property
    def area(self) -> float:
        return sum(p.area for p in self.pieces)

    @property
    def is_empty(self) -> bool:
        return len(self.pieces) == 0

    @cached_property
    def vertices(self) -> np.ndarray:
        """Every piece's vertices stacked, read-only."""
        if len(self.pieces) == 1:
            return self.pieces[0].vertices
        v = np.vstack([p.vertices for p in self.pieces]) if self.pieces \
            else np.zeros((0, 2))
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
        nxt[np.append(starts[1:], len(nxt)) - 1] = starts
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


def _ring_polygon(points, min_area: float) -> ConvexPolygon | None:
    """The polygon on the deduplicated ring, with the area measured here;
    None below three vertices or at most min_area."""
    arr = _dedupe_ring(np.array(points))
    if len(arr) < 3:
        return None
    area = _ring_area(arr)
    if area <= min_area:
        return None
    poly = ConvexPolygon.__new__(ConvexPolygon)
    arr.setflags(write=False)
    poly.vertices, poly.area = arr, area
    return poly


def split_convex(poly: ConvexPolygon, hp: HalfPlane, snap: float = 0.0,
                 min_area: float = 0.0):
    """Split a convex polygon by a half-plane boundary in one pass.

    Returns (inside, outside); either may be None. Vertices within snap
    of the boundary line are treated as lying on it, so a cut almost
    parallel to an existing edge reassigns the piece cleanly instead of
    shaving off a hairline sliver. Both outputs share the interpolated
    seam vertices, which keeps the split area-conserving. A clip to the
    half-plane is the inside part, split_convex(...)[0].
    """
    d = _snap(poly.vertices @ hp.normal - hp.offset, snap)
    if (d <= 0.0).all():
        if (d == 0.0).all():
            return None, None  # hairline lying on the boundary
        return poly, None
    if (d >= 0.0).all():
        return None, poly
    return _cut(poly.vertices, d.tolist(), min_area)


def _snap(d: np.ndarray, snap: float) -> np.ndarray:
    """Signed offsets past a line, with those within snap of it set to 0."""
    if snap > 0.0:
        d = np.where(np.abs(d) <= snap, 0.0, d)
    return d


def _cut(v: np.ndarray, dl: list, min_area: float, sides=(True, True)):
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

    One projection of the stacked vertices, snapped as split_convex
    snaps, gives each piece's offset range: a piece wholly on one side
    is handed over as it is, a hairline one lying on the line is
    dropped, and only pieces that straddle the line are cut, at the
    same offsets. A side that sides marks False is not built and comes
    back empty; the other side's pieces are the same.
    """
    if region.is_empty:
        return [], []
    d = _snap(region.vertices @ hp.normal - hp.offset, snap)
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


def convex_intersect(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon | None:
    """Intersection of two convex polygons: a cut by each edge line of b."""
    v = b.vertices
    scale = max(float(np.abs(v).max()), float(np.abs(a.vertices).max()), 1e-300)
    out = a
    for k in range(len(v)):
        p0, p1 = v[k], v[(k + 1) % len(v)]
        e = p1 - p0
        # edges shorter than coordinate noise have unreliable normals; the
        # half-plane they would add is redundant up to that noise anyway
        if float(np.hypot(e[0], e[1])) < 1e-12 * scale:
            continue
        # inward normal of a CCW edge is (-ey, ex); inside means cross >= 0
        hp = HalfPlane(np.array([e[1], -e[0]]), float(e[1] * p0[0] - e[0] * p0[1]))
        out = split_convex(out, hp, 1e-12 * scale)[0]
        if out is None:
            return None
    return out


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
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    if len(pts) < 3:
        return pts

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

    seq = pts.tolist()
    lower = build(seq)
    upper = build(seq[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=float).reshape(-1, 2)


def merge_pieces(pieces: Sequence[ConvexPolygon], tol: float) -> list:
    """Greedily fuse piece pairs whose union is convex (within area tol).

    A convex union needs a fully shared edge; splits hand both sides the
    same seam coordinates, so candidate pairs must share two vertices and
    the quick grid-key test below prunes everything else. A whole-set hull
    pre-pass catches the common end state where the union is convex but no
    single pair is (misaligned historical seams). Both read one stack of
    every piece's vertices: the hull takes it whole, and the keys come
    from one rounding of it, sliced per piece.
    """
    work = list(pieces)
    if len(work) < 2:
        return work
    stacked = np.vstack([p.vertices for p in work])
    if len(work) > 2:
        hull = _convex_hull(stacked)
        if _ring_area(hull) <= sum(p.area for p in work) + tol:
            return [_ring_polygon(hull, 0.0)]
    inv_eps = 1.0 / _vertex_cell(float(np.abs(stacked).max()))
    cells = _vertex_keys(stacked, inv_eps)
    bounds = [0, *accumulate(len(p.vertices) for p in work)]
    keys = [set(cells[a:b]) for a, b in zip(bounds, bounds[1:])]
    # piece pairs whose hull failed, not tested again on a rescan: a
    # failing test fuses nothing, so the greedy order stays the same;
    # holding the pieces keeps their ids unique
    rejected = set()
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
                hull = _convex_hull(np.vstack((a.vertices, b.vertices)))
                s = a.area + b.area
                if _ring_area(hull) <= s + max(tol, 1e-12 * s):
                    # keep scanning the grown piece against the remainder
                    work[i] = _ring_polygon(hull, 0.0)
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
    """True when any segment of the first set properly crosses any of the second."""
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
    return bool(np.any(((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))))


def _convex_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Distance between two convex polygons (0 when they meet)."""
    va, vb = a.vertices, b.vertices
    if _contains_point(b, *va[0].tolist()) or _contains_point(a, *vb[0].tolist()):
        return 0.0
    ea1, ea2 = va, _cyclic_next(va)
    eb1, eb2 = vb, _cyclic_next(vb)
    best = min(float(_points_segments_distance(va, eb1, eb2).min()),
               float(_points_segments_distance(vb, ea1, ea2).min()))
    if best > 0.0 and _any_segments_cross(ea1, ea2, eb1, eb2):
        return 0.0
    return best


def _bbox_gap(a, b) -> float:
    dx = max(0.0, a[0] - b[2], b[0] - a[2])
    dy = max(0.0, a[1] - b[3], b[1] - a[3])
    if dx == 0.0 or dy == 0.0:
        return dx + dy  # hypot is exact here
    # np.hypot, not math.hypot: they differ in the last bit on some pairs
    return float(np.hypot(dx, dy))


def interior_distance(a: Region, b: Region) -> float:
    """Infimum distance between region interiors; 0 when they touch."""
    return _distance_below(a, b, np.inf)


def regions_within(a: Region, b: Region, delta: float) -> bool:
    """interior_distance(a, b) < delta, for delta > 0.

    After the shortcuts of the bounded search, a vertex of one region
    nearer than delta to an edge of the other answers True: that
    distance bounds the regions' distance from above. Only the pairs it
    leaves run the piece scan, which stops at delta.
    """
    if not delta > 0.0:  # NaN too
        raise ValueError(f"adjacency delta must be > 0, got {delta!r}")
    d = _distance_shortcut(a, b, delta)
    if d is None:
        if _vertex_edge_distance(a, b) < delta:
            return True
        d = _pieces_below(a, b, delta)
    return bool(d < delta)


def _share_seam_vertex(a: Region, b: Region) -> bool:
    """True when a and b have a vertex in common, coordinate for
    coordinate; regions meeting along a shared seam carry identical
    vertex floats, and a common point means their closures touch."""
    return not a.vertex_set.isdisjoint(b.vertex_set)


def _distance_below(a: Region, b: Region, below: float) -> float:
    """The interior distance when it is below `below`, else a lower bound
    that is at least `below`: a shortcut's answer, else the piece scan's."""
    d = _distance_shortcut(a, b, below)
    return _pieces_below(a, b, below) if d is None else d


def _distance_shortcut(a: Region, b: Region, below: float) -> float | None:
    """0 for a vertex the regions share; `below` for boxes at least
    `below` apart, as the piece scan would answer; else None."""
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


def _pieces_below(a: Region, b: Region, best: float) -> float:
    """Smallest piece-pair distance below best, else best itself; piece
    pairs whose bounding boxes lie at least the best so far apart are
    skipped."""
    for p in a.pieces:
        for q in b.pieces:
            if _bbox_gap(p.bbox, q.bbox) >= best:
                continue
            d = _convex_distance(p, q)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return float(best)


# interior points sampled per edge when a Hausdorff distance is bounded
_HAUSDORFF_SAMPLES = 8


def _boundary_candidates(region: Region) -> np.ndarray:
    pts = [region.vertices]
    ts = np.arange(1, _HAUSDORFF_SAMPLES + 1) / (_HAUSDORFF_SAMPLES + 1)
    for piece in region.pieces:
        v = piece.vertices
        nxt = _cyclic_next(v)
        seg = v[:, None, :] + ts[None, :, None] * (nxt - v)[:, None, :]
        pts.append(seg.reshape(-1, 2))
    return np.vstack(pts)


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
        ends = np.vstack([_cyclic_next(p.vertices) for p in dst.pieces])
        return float(_points_segments_distance(outside, dst.vertices,
                                               ends).max())

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

@dataclass(frozen=True)
class UniformDensity:
    """Constant positive density; equal densities share memo entries."""

    value: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("density must be finite")
        if self.value <= 0.0:
            raise ValueError("density must be positive")
        object.__setattr__(self, "value", float(self.value))

    @property
    def sup_norm(self) -> float:
        return self.value

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.full(len(pts), self.value)


@dataclass(frozen=True)
class GridDensity:
    """Bilinear interpolation of positive samples on a regular grid over
    [x0, x1] x [y0, y1]; values keeps the sample rows as a tuple."""

    x0: float
    y0: float
    x1: float
    y1: float
    values: tuple

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

    @cached_property
    def grid(self) -> np.ndarray:
        return np.array(self.values)

    @property
    def sup_norm(self) -> float:
        return max(map(max, self.values))

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
class PerformanceFunction:
    """Increasing convex cost f of distance, given by its kind: f(r) = r^2
    for "quadratic", f(r) = r for "linear"; a new cost is a new kind.
    Equal costs share memo entries. fn, dfn and lipschitz_on give f, f'
    and a Lipschitz constant of f on [0, upper].

    refine splits every quadrature triangle into refine**2 children when
    integrating this cost; a cost kinked at the center, like the linear
    one, needs it to shrink the degree-6 rule's error.
    """

    kind: str
    refine: int = 1

    def __post_init__(self):
        if self.kind not in ("quadratic", "linear"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if type(self.refine) is not int or self.refine < 1:
            raise ValueError(f"refine: need an int >= 1, got {self.refine!r}")

    def fn(self, r):
        return np.square(r) if self.kind == "quadratic" else \
            np.asarray(r, dtype=float)

    def dfn(self, r):
        return 2.0 * r if self.kind == "quadratic" else \
            np.ones_like(np.asarray(r, dtype=float))

    def lipschitz_on(self, upper: float) -> float:
        return 2.0 * upper if self.kind == "quadratic" else 1.0


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
    the degree-6 rule on refine**2 children of each piece's fan triangles.

    Building them is the costly part of an integral, so callers that
    integrate several functions over one region build them once.
    """
    bary, wts = triangle_rule()
    pts_all, w_all = [], []
    for piece in region.pieces:
        v = piece.vertices
        tris = np.concatenate([subdivide_triangle(v[0], v[k], v[k + 1], refine)
                               for k in range(1, len(v) - 1)], axis=0)
        e1 = tris[:, 1] - tris[:, 0]
        e2 = tris[:, 2] - tris[:, 0]
        areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        pts = np.einsum("rb,kbd->krd", bary, tris)  # (k, R, 2)
        w = areas[:, None] * wts[None, :]
        pts_all.append(pts.reshape(-1, 2))
        w_all.append(w.reshape(-1))
    if not pts_all:
        pts, w = np.zeros((0, 2)), np.zeros(0)
    else:
        pts, w = np.vstack(pts_all), np.concatenate(w_all)
    return pts, w, density(pts)


def _quad_sum(quad, values) -> float:
    """Integral over a quadrature point set of the values given at its
    points times the density; 0.0 over no points."""
    _, w, dens = quad
    return float(np.sum(w * np.asarray(values, dtype=float) * dens))


def _offsets(quad, p):
    """Each quadrature point's offset d = p - q and its length r."""
    d = np.asarray(p, dtype=float) - quad[0]
    return d, np.hypot(d[:, 0], d[:, 1])


def _cost_gradient(quad, d, r, perf: PerformanceFunction) -> np.ndarray:
    """Gradient in p of the one-center cost, from the offsets of p; a point
    coinciding with p contributes zero."""
    _, w, dens = quad
    scale = perf.dfn(r) / np.maximum(r, 1e-300)
    scale[r < 1e-14] = 0.0
    return np.sum((w * dens)[:, None] * (d * scale[:, None]), axis=0)


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
        m1 = sum((p.moment for p in region.pieces), np.zeros(2))
        if m0 <= 0.0:
            raise VanishedRegion("region has no area")
        return m1 / m0
    quad = _quadrature(region, density, refine)
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
    return _quad_sum(quad, perf.fn(_offsets(quad, p)[1]))


def _polar_moment_about(p, region: Region) -> float:
    """Integral of |q - p|^2 over the region, from one shoelace pass over
    every piece's edges about the vertex mean o (Steger 1996).

    The pass gives area A, first moment M and polar second moment J
    about o; then the integral is J - M.M/A + A |p - o - M/A|^2.
    """
    v = region.vertices
    o = v.mean(axis=0)
    x, y = (v - o).T
    nxt = region.next_vertex
    xn, yn = x[nxt], y[nxt]
    cr = x * yn - xn * y
    a = float(cr.sum()) / 2.0
    m = np.array([(x + xn) @ cr, (y + yn) @ cr]) / 6.0
    j = float((x * (x + xn) + xn * xn + y * (y + yn) + yn * yn) @ cr) / 12.0
    c = m / a
    d = np.asarray(p, dtype=float) - o - c
    return float(j - c @ m + a * (d @ d))


def centroid(region: Region, density: Density, perf: PerformanceFunction,
             scale: float | None = None) -> np.ndarray:
    """Point minimizing the one-center cost of the region.

    Quadratic cost has the closed-form mass centroid; other costs run
    gradient descent with backtracking from that start, every iterate
    evaluated on one quadrature point set built up front; an accepted
    iterate's offsets to those points serve its next gradient. scale
    sets the first step and the stopping length; it defaults to the
    region's diameter. The minimizer of a convex increasing cost lies in the
    region's convex hull, so no iterate needs projecting.
    """
    x = _mass_centroid(region, density, perf.refine)
    if perf.kind == "quadratic":
        return x
    quad = _quadrature(region, density, perf.refine)
    if scale is None:
        scale = diameter(region)
    tol = _DESCENT_TOL * max(scale, 1e-12)
    d, r = _offsets(quad, x)
    fx = _quad_sum(quad, perf.fn(r))
    step = max(scale, 1e-12)
    for _ in range(_DESCENT_MAX_ITER):
        g = _cost_gradient(quad, d, r, perf)
        gnorm = float(np.hypot(g[0], g[1]))
        if gnorm * step < tol * 1e-3:
            break
        moved = False
        alpha = step
        for _bt in range(60):
            cand = x - alpha * g
            move = cand - x
            if float(np.hypot(move[0], move[1])) < tol:
                break
            dc, rc = _offsets(quad, cand)
            fc = _quad_sum(quad, perf.fn(rc))
            if fc <= fx + 1e-4 * float(g @ move):
                x, fx, d, r = cand, fc, dc, rc
                moved = True
                step = alpha * 2.0
                break
            alpha *= 0.5
        if not moved:
            break
    return x
