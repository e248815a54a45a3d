"""Brute-force reference implementations used to cross-check the exact
geometry. Everything here trades speed for obvious correctness."""
from __future__ import annotations

import numpy as np

from gossipcover.geometry import ConvexPolygon, Region


def jittered_grid(bbox, n_target: int, rng) -> tuple[np.ndarray, float]:
    """Stratified sample: one uniform point per cell of a regular grid.

    Returns the points and the area weight per point. Stratification
    keeps the membership-counting error near h^1.5 instead of h.
    """
    (x0, y0), (x1, y1) = bbox
    w, h = x1 - x0, y1 - y0
    nx = max(1, int(round(np.sqrt(n_target * w / h))))
    ny = max(1, int(round(n_target / nx)))
    gx = x0 + (np.arange(nx) + rng.random((ny, nx))) * (w / nx)
    gy = y0 + (np.arange(ny)[:, None] + rng.random((ny, nx))) * (h / ny)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts, (w / nx) * (h / ny)


def region_bbox(*regions) -> tuple:
    v = np.vstack([r.vertices for r in regions])
    return (v.min(axis=0), v.max(axis=0))


def area_by_grid(region: Region, n_pts: int, rng, bbox=None) -> float:
    if bbox is None:
        bbox = region_bbox(region)
    pts, w = jittered_grid(bbox, n_pts, rng)
    return float(np.count_nonzero(region.contains(pts)) * w)


def symdiff_by_grid(a: Region, b: Region, n_pts: int, rng) -> float:
    pts, w = jittered_grid(region_bbox(a, b), n_pts, rng)
    ina = a.contains(pts)
    inb = b.contains(pts)
    return float(np.count_nonzero(ina ^ inb) * w)


def intersection_by_grid(a: Region, b: Region, n_pts: int, rng) -> float:
    pts, w = jittered_grid(region_bbox(a, b), n_pts, rng)
    return float(np.count_nonzero(a.contains(pts) & b.contains(pts)) * w)


def nearest_labels(pts: np.ndarray, generators: np.ndarray) -> np.ndarray:
    d2 = ((pts[:, None, :] - generators[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def voronoi_areas_by_grid(env_polygon: ConvexPolygon, generators: np.ndarray,
                          n_pts: int, rng) -> np.ndarray:
    v = env_polygon.vertices
    pts, w = jittered_grid((v.min(axis=0), v.max(axis=0)), n_pts, rng)
    pts = pts[env_polygon.contains(pts)]
    labels = nearest_labels(pts, generators)
    return np.bincount(labels, minlength=len(generators)) * w


def boundary_samples(region: Region, per_edge: int) -> np.ndarray:
    out = []
    ts = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    for piece in region.pieces:
        v = piece.vertices
        nxt = np.roll(v, -1, axis=0)
        for a, b in zip(v, nxt):
            out.append(a + ts[:, None] * (b - a))
    return np.vstack(out)


def point_region_distance(q: np.ndarray, region: Region) -> float:
    if bool(region.contains(q)[0]):
        return 0.0
    best = np.inf
    for piece in region.pieces:
        v = piece.vertices
        nxt = np.roll(v, -1, axis=0)
        for a, b in zip(v, nxt):
            ab = b - a
            t = np.clip(np.dot(q - a, ab) / np.dot(ab, ab), 0.0, 1.0)
            best = min(best, float(np.hypot(*(a + t * ab - q))))
    return best


def hausdorff_by_sampling(a: Region, b: Region, per_edge: int = 16) -> float:
    worst = 0.0
    for src, dst in ((a, b), (b, a)):
        for q in boundary_samples(src, per_edge):
            worst = max(worst, point_region_distance(q, dst))
    return worst


def share_seam_vertex_by_pieces(a: Region, b: Region) -> bool:
    """Piece-by-piece form of the seam-vertex test: any vertex of a and
    any vertex of b on the same 1e-12 * (max |coordinate| + 1) grid key."""
    scale = max(float(np.abs(p.vertices).max())
                for r in (a, b) for p in r.pieces) + 1.0
    inv_eps = 1.0 / (1e-12 * scale)

    def keys(p):
        v = np.rint(p.vertices * inv_eps).astype(np.int64)
        return set(map(tuple, v.tolist()))

    keys_a = set()
    for p in a.pieces:
        keys_a |= keys(p)
    return any(keys_a & keys(q) for q in b.pieces)


def interior_distance_by_sampling(a: Region, b: Region,
                                  per_edge: int = 24) -> float:
    pa = boundary_samples(a, per_edge)
    pb = boundary_samples(b, per_edge)
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)).min()
    for q in pa[:: max(1, len(pa) // 50)]:
        if bool(b.contains(q)[0]):
            return 0.0
    return float(d)


def cost_by_grid(p, region: Region, density, perf, n_pts: int, rng) -> float:
    pts, w = jittered_grid(region_bbox(region), n_pts, rng)
    pts = pts[region.contains(pts)]
    r = np.hypot(*(pts - np.asarray(p, dtype=float)).T)
    return float(np.sum(perf.fn(r) * density(pts)) * w)


def random_convex_polygon(rng, n_pts: int = 8, center=(0.0, 0.0),
                          scale: float = 1.0) -> ConvexPolygon:
    """Hull of random points; retries until it has positive area."""
    while True:
        pts = np.asarray(center) + scale * (rng.random((n_pts, 2)) - 0.5)
        try:
            hull = _hull(pts)
            return ConvexPolygon(hull)
        except ValueError:
            continue


def _hull(points: np.ndarray) -> np.ndarray:
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                u = out[-1] - out[-2]
                w = p - out[-2]
                if u[0] * w[1] - u[1] * w[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])
