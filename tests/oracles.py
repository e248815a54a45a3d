"""Brute-force reference implementations used to cross-check the exact
geometry. Everything here trades speed for obvious correctness."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gossipcover import dyadic as dy
from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import netsim as ns
from gossipcover import partition as pt
from gossipcover import quadrature
from gossipcover import switching as sw
from gossipcover.geometry import ConvexPolygon, HalfPlane, Region


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
    """Piece-by-piece form of the seam-vertex test: some vertex of a
    equal to some vertex of b, coordinate for coordinate."""
    def points(p):
        return set(map(tuple, p.vertices.tolist()))

    points_a = set().union(*map(points, a.pieces))
    return any(points_a & points(q) for q in b.pieces)


def share_seam_cell_ref(a: Region, b: Region) -> bool:
    """The seam-vertex test as it was before it compared vertices
    exactly: any vertex of a and any vertex of b on the same
    1e-12 * (max |coordinate| + 1) grid key."""
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


def convex_distance_ref(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Distance between two convex polygons (0 when they meet): 0 when
    one holds the other's first vertex, else the smallest vertex-to-edge
    distance either way, unless their edges cross."""
    va, vb = a.vertices, b.vertices
    if contains_point_ref(vb, va[0]) or contains_point_ref(va, vb[0]):
        return 0.0
    ea1, ea2 = va, geo._cyclic_next(va)
    eb1, eb2 = vb, geo._cyclic_next(vb)
    best = min(float(geo._points_segments_distance(va, eb1, eb2).min()),
               float(geo._points_segments_distance(vb, ea1, ea2).min()))
    if best > 0.0 and geo._any_segments_cross(ea1, ea2, eb1, eb2):
        return 0.0
    return best


def interior_distance_ref(a: Region, b: Region) -> float:
    """interior_distance as the minimum piece distance over every piece
    pair, with no shortcut and no early stop."""
    return min(convex_distance_ref(p, q) for p in a.pieces
               for q in b.pieces)


def any_segments_cross_ref(a1, a2, b1, b2) -> bool:
    """geometry._any_segments_cross with no segment-box test: the two
    orientation tests on every pair of segments."""
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


def pieces_meet_ref(a: Region, b: Region) -> bool:
    """geometry._pieces_meet as a loop over piece pairs: a pair meets
    when one holds the other's first vertex or their edges cross, and
    pairs whose boxes are apart are skipped."""
    for p in a.pieces:
        for q in b.pieces:
            if geo._bbox_gap(p.bbox, q.bbox) > 0.0:
                continue
            vp, vq = p.vertices, q.vertices
            if (q.contains(vp[:1])[0] or p.contains(vq[:1])[0]
                    or any_segments_cross_ref(vp, geo._cyclic_next(vp),
                                              vq, geo._cyclic_next(vq))):
                return True
    return False


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


def voronoi_cost(env, points, density, perf) -> float:
    """Multicenter cost of the nearest-point partition of the given points."""
    return pt.multicenter_cost(pt.voronoi(env, points), points, density, perf)


def full_interval_cost() -> Fraction:
    """Cost of serving all of [-1, 1] from zero (f(s) = s, unit density)."""
    return dy.abs_moment([(Fraction(-1), Fraction(1))])


def flipped(hp: HalfPlane) -> HalfPlane:
    """The closure of the half-plane's complement."""
    return HalfPlane(-hp.normal, -hp.offset)


def sup_norm(density) -> float:
    """The density's largest value: a uniform one's value, or a grid's
    largest sample, which bilinear interpolation never exceeds."""
    if isinstance(density, geo.UniformDensity):
        return density.value
    return max(map(max, density.values))


def lipschitz_on(perf, upper: float) -> float:
    """A Lipschitz constant of the cost's f on [0, upper]."""
    return 2.0 * upper if perf.kind == "quadratic" else 1.0


def phase_frequencies(start: str, n_transitions: int, trials: int,
                      rng) -> dict:
    """Empirical end-phase distribution after a fixed number of
    transitions from a common start phase."""
    counts = dict.fromkeys((ns.TRAVEL, ns.WAIT_1, ns.WAIT_2), 0)
    for _ in range(trials):
        phase = start
        for _ in range(n_transitions):
            phase = ns.epoch_transition(phase, rng)
        counts[phase] += 1
    return {k: v / trials for k, v in counts.items()}


def check_uniform_persistency(pair_sequence, pairs, window: int) -> bool:
    """True when every pair occurs in every window of the given length."""
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    seq = [tuple(sorted(p)) for p in pair_sequence]
    if len(seq) < 2 * window:
        raise ValueError("sequence too short to judge the window")
    for pair in pairs:
        pair = tuple(sorted(pair))
        hits = [t for t, p in enumerate(seq) if p == pair]
        if not hits:
            return False
        if hits[0] >= window or (len(seq) - 1 - hits[-1]) >= window:
            return False
        if any(b - a > window for a, b in zip(hits, hits[1:])):
            return False
    return True


def empirical_persistency(scheduler, partition, pairs, n_steps: int,
                          window: int) -> dict:
    """Per-pair window_statistics of the scheduler's selections, step t
    at time t, over n_steps steps and windows of window steps.

    The scheduler runs against the fixed partition; selections that
    return None count as idle steps.
    """
    if not 1 <= window <= n_steps:
        raise ValueError(f"window must be 1 to n_steps {n_steps}, got {window}")
    seq = []
    for t in range(n_steps):
        choice = scheduler.select(t, partition)
        seq.append(tuple(sorted(choice)) if choice is not None else None)
    return {pair: sw.window_statistics(
        [t for t, chosen in enumerate(seq) if chosen == pair], n_steps, window)
        for pair in (tuple(sorted(p)) for p in pairs)}


def spiral_radius_offsets(rho0: float, n: int) -> np.ndarray:
    """rho - 1 along pure spiral iterations from rho0 > 1.

    Iterates the offset x -> x / (1 + x), which is the spiral map in
    shifted coordinates and numerically stable near the unit circle.
    """
    if rho0 <= 1.0:
        raise ValueError("needs a start outside the unit circle")
    x = rho0 - 1.0
    out = np.empty(n)
    for i in range(n):
        x = x / (1.0 + x)
        out[i] = x
    return out


def random_convex_polygon(rng, n_pts: int = 8, center=(0.0, 0.0),
                          scale: float = 1.0) -> ConvexPolygon:
    """Hull of random points; retries until it has positive area."""
    while True:
        pts = np.asarray(center) + scale * (rng.random((n_pts, 2)) - 0.5)
        try:
            hull = convex_hull_ref(pts)
            return ConvexPolygon(hull)
        except ValueError:
            continue


def split_piece(poly: ConvexPolygon, hp, snap: float = 0.0,
                min_area: float = 0.0) -> tuple:
    """(inside, outside) of one convex polygon as a one-piece
    region_split cuts it; None for an absent side."""
    ins, outs = geo.region_split(Region((poly,)), hp, snap, min_area)
    return ins[0] if ins else None, outs[0] if outs else None


def seeded_multi_piece_regions(seed, count):
    """Some of the cells three random cuts make of a random convex
    polygon: unions that may be nonconvex or disconnected."""
    rng = np.random.default_rng(seed)
    while count:
        cells = [random_convex_polygon(rng, 8, scale=1.5)]
        for _ in range(3):
            hp = geo.HalfPlane(rng.normal(size=2), 0.3 * rng.normal())
            cells = [c for cell in cells for c in split_piece(cell, hp)
                     if c is not None]
        if len(cells) < 3:
            continue
        keep = rng.choice(len(cells), size=len(cells) - 1, replace=False)
        yield Region(tuple(cells[k] for k in sorted(keep)))
        count -= 1


# ---------------------------------------------------------------------------
# Array forms of the per-vertex geometry kernels, as they were before the
# kernels moved to Python floats. The kernels must answer exactly as these
# do, to the bit (tests/test_kernels.py).

DEDUPE_REL = 1e-12


def dedupe_ring_ref(v: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(v))) + 1.0
    eps = DEDUPE_REL * scale
    keep = []
    for p in v:
        if not keep or np.hypot(*(p - keep[-1])) > eps:
            keep.append(p)
    while len(keep) > 1 and np.hypot(*(keep[-1] - keep[0])) <= eps:
        keep.pop()
    return np.array(keep) if keep else v[:0]


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def convex_hull_ref(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    if len(pts) < 3:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-1] - out[-2], p - out[-2]) <= 0.0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return np.array(hull).reshape(-1, 2)
    return np.array(hull)


def _ring_vertices_ref(points: list, min_area: float):
    """Vertices of the polygon a split built from its point
    list: deduplicated, then deduplicated again by the polygon's
    constructor; None when it has too few vertices or too little area."""
    if len(points) < 3:
        return None
    arr = dedupe_ring_ref(np.array(points))
    if len(arr) < 3 or geo._ring_area(arr) <= min_area:
        return None
    return dedupe_ring_ref(np.array(arr, dtype=float))


def signed_offsets_ref(v, normal, offset, snap):
    """Each vertex's signed offset past the line, zero within snap of it."""
    d = v @ normal - offset
    if snap > 0.0:
        d = np.where(np.abs(d) <= snap, 0.0, d)
    return d


def split_convex_ref(v: np.ndarray, normal, offset, snap=0.0, min_area=0.0):
    """(inside, outside) vertex arrays of a one-piece region_split; None
    for an absent side, and v itself for a side that is the whole
    polygon."""
    d = signed_offsets_ref(v, normal, offset, snap)
    if np.all(d <= 0.0):
        if np.all(d == 0.0):
            return None, None
        return v, None
    if np.all(d >= 0.0):
        return None, v
    ins, outs = [], []
    n = len(v)
    for k in range(n):
        a, da = v[k], d[k]
        b, db = v[(k + 1) % n], d[(k + 1) % n]
        if da <= 0.0:
            ins.append(a)
        if da >= 0.0:
            outs.append(a)
        if (da < 0.0 and db > 0.0) or (da > 0.0 and db < 0.0):
            x = a + (da / (da - db)) * (b - a)
            ins.append(x)
            outs.append(x)
    return _ring_vertices_ref(ins, min_area), _ring_vertices_ref(outs, min_area)


def _shoelace_exact(points) -> Fraction:
    n = len(points)
    return abs(sum(points[k][0] * points[(k + 1) % n][1]
                   - points[(k + 1) % n][0] * points[k][1]
                   for k in range(n))) / 2


def area_exact(v: np.ndarray) -> Fraction:
    """Area of the polygon on these float vertices, in rationals."""
    return _shoelace_exact([(Fraction(x), Fraction(y)) for x, y in v.tolist()])


def cut_areas_exact(v: np.ndarray, normal, offset) -> tuple[Fraction, Fraction]:
    """Areas of the polygon's parts with <normal, q> <= offset and >= offset,
    in rational arithmetic on the given floats: no rounding anywhere, so
    no crossing is ever lost or moved."""
    pts = [(Fraction(x), Fraction(y)) for x, y in v.tolist()]
    nx, ny = (Fraction(c) for c in np.asarray(normal).tolist())
    d = [nx * x + ny * y - Fraction(offset) for x, y in pts]
    ins = []
    n = len(pts)
    for k in range(n):
        a, da = pts[k], d[k]
        b, db = pts[(k + 1) % n], d[(k + 1) % n]
        if da <= 0:
            ins.append(a)
        if da < 0 < db or da > 0 > db:
            t = da / (da - db)
            ins.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    inside = _shoelace_exact(ins) if len(ins) >= 3 else Fraction(0)
    return inside, _shoelace_exact(pts) - inside


def moments_exact(region: Region) -> tuple:
    """Area A, first moment (Mx, My) and polar second moment J of the
    region about the origin, in rationals on its float vertices, for
    uniform unit density."""
    a = mx = my = j = Fraction(0)
    for piece in region.pieces:
        pts = [(Fraction(x), Fraction(y)) for x, y in piece.vertices.tolist()]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            cr = x0 * y1 - x1 * y0
            a += cr
            mx += (x0 + x1) * cr
            my += (y0 + y1) * cr
            j += (x0 * (x0 + x1) + x1 * x1 + y0 * (y0 + y1) + y1 * y1) * cr
    return a / 2, mx / 6, my / 6, j / 12


def cost_exact(p, region: Region, value=1) -> Fraction:
    """value times the integral of |q - p|^2 over the region, in
    rationals: J - 2 M.p + A |p|^2."""
    a, mx, my, j = moments_exact(region)
    px, py = (Fraction(c) for c in np.asarray(p, dtype=float).tolist())
    return Fraction(value) * (j - 2 * (mx * px + my * py)
                              + a * (px * px + py * py))


def h_exact(partition, value=1) -> Fraction:
    """The multicenter cost under quadratic cost and uniform density
    value, each region served from its exact mass centroid M/A:
    the sum of value * (J - M.M / A), in rationals."""
    total = Fraction(0)
    for region in partition.regions:
        a, mx, my, j = moments_exact(region)
        total += j - (mx * mx + my * my) / a
    return Fraction(value) * total


def region_split_ref(region: Region, hp, snap: float = 0.0,
                     min_area: float = 0.0) -> tuple[list, list]:
    """Two-sided split of a region as one split_convex_ref call per piece;
    returns (inside, outside) piece lists: a piece itself on the side it
    lies wholly on, and a polygon on the vertices of each cut side."""
    ins: list = []
    outs: list = []
    for p in region.pieces:
        cut = split_convex_ref(p.vertices, hp.normal, hp.offset, snap,
                               min_area)
        for side, v in zip((ins, outs), cut):
            if v is not None:
                side.append(p if v is p.vertices else ConvexPolygon(v))
    return ins, outs


def merge_pieces_ref(pieces, tol: float) -> list:
    """merge_pieces as the loop that builds the hull of every piece pair
    sharing two vertex keys, and of the whole set first, with no memory
    of rejected pairs."""
    work = list(pieces)
    if len(work) < 2:
        return work
    if len(work) > 2:
        hull = geo._convex_hull(np.vstack([p.vertices for p in work]))
        if geo._ring_area(hull) <= sum(p.area for p in work) + tol:
            return [geo._ring_polygon(geo._dedupe_ring(hull), 0.0)]
    inv_eps = 1.0 / geo._vertex_cell(max(float(np.abs(p.vertices).max())
                                         for p in work))
    keys = [set(geo._vertex_keys(p.vertices, inv_eps)) for p in work]
    changed = True
    while changed and len(work) > 1:
        changed = False
        i = 0
        while i < len(work):
            j = i + 1
            while j < len(work):
                a, b = work[i], work[j]
                if len(keys[i] & keys[j]) < 2:
                    j += 1
                    continue
                hull = geo._convex_hull(np.vstack([a.vertices, b.vertices]))
                s = a.area + b.area
                if geo._ring_area(hull) <= s + max(tol, 1e-12 * s):
                    work[i] = geo._ring_polygon(geo._dedupe_ring(hull),
                                                0.0)
                    keys[i] = set(geo._vertex_keys(work[i].vertices,
                                                   inv_eps))
                    del work[j]
                    del keys[j]
                    changed = True
                else:
                    j += 1
            i += 1
    return work


def fixed_point_residual_ref(partition, density, perf, mode: str = "full",
                             delta=None) -> float:
    """The fixed-point residual as its own all-pairs loop: twice the
    largest area a bisector split of a pair trades, over every pair
    (mode "full") or every pair whose interiors come within delta
    ("adjacent"), skipping pairs whose centroids coincide."""
    env = partition.env
    cs = pt.centroids(partition, density, perf)
    regions = partition.regions
    worst = 0.0
    for i in range(partition.n):
        for j in range(i + 1, partition.n):
            if mode == "adjacent" and not geo.regions_within(
                    regions[i], regions[j], delta):
                continue
            if float(np.hypot(*(cs[i] - cs[j]))) <= env.tol_point:
                continue
            hp = geo.bisector_halfplane(cs[i], cs[j])
            give_i = region_split_ref(regions[i], hp, env.snap,
                                      env.sliver_area)[1]
            give_j = region_split_ref(regions[j], hp, env.snap,
                                      env.sliver_area)[0]
            traded = sum(p.area for p in give_i) + sum(p.area for p in give_j)
            worst = max(worst, 2.0 * traded)
    return worst


def trade_fraction(partition, i: int, j: int, delta, density,
                   perf) -> float:
    """The distance-limited exchange's beta for the pair, with the pair
    and delta checked as the exchange checks them."""
    gp._check_pair(partition, i, j)
    delta = gp.check_delta(partition.env, delta)
    return gp._fraction(partition, i, j, delta,
                        pt.centroids(partition, density, perf))


def bisector_trade(partition, i: int, j: int, ci, cj) -> float:
    """Area that splitting regions i and j along the bisector of ci and
    cj trades: the full exchange's split at those points."""
    hp = geo.bisector_halfplane(ci, cj)
    return pt.pair_split(partition, i, j, hp, hp)[2]


def slab_split_ref(partition, i: int, j: int, ci, cj,
                   beta: float) -> tuple[list, list, float]:
    """The distance-limited exchange's split as its own slab code.

    Region i hands j its part beyond the line parallel to the bisector
    of ci and cj at (1 - beta) of its far reach, its largest distance
    past the bisector; likewise for region j. Returns the pieces of the
    new regions i and j and the traded area.
    """
    env = partition.env
    u = (cj - ci)
    u = u / float(np.hypot(u[0], u[1]))
    m = float(u @ (ci + cj)) / 2.0
    vi, vj = partition.regions[i], partition.regions[j]

    def far_reach(region: Region, sign: float) -> float:
        # max signed distance past the bisector on the far side; 0 if none
        s = sign * (region.vertices @ u - m)
        return max(float(s.max()) if len(s) else 0.0, 0.0)

    keep_i = geo.HalfPlane(u, m + (1.0 - beta) * far_reach(vi, +1.0))
    keep_j = geo.HalfPlane(-u, -(m - (1.0 - beta) * far_reach(vj, -1.0)))
    kept_i, give_i = region_split_ref(vi, keep_i, env.snap, env.sliver_area)
    kept_j, give_j = region_split_ref(vj, keep_j, env.snap, env.sliver_area)
    traded = sum(p.area for p in give_i) + sum(p.area for p in give_j)
    return kept_i + give_j, kept_j + give_i, traded


def on_own_sides(partition, i: int, j: int, ci, cj) -> bool:
    """Region i's vertices at most snap past the bisector of ci and cj,
    and region j's at most snap short of it."""
    hp = geo.bisector_halfplane(ci, cj)
    di = partition.regions[i].vertices @ hp.normal - hp.offset
    dj = partition.regions[j].vertices @ hp.normal - hp.offset
    snap = partition.env.snap
    return float(di.max()) <= snap and float(dj.min()) >= -snap


def _rectangle_bound(partition, i: int, j: int, hp) -> float:
    """Upper bound on the area the pair's split at hp can trade: region
    i's part past the line lies in a rectangle as deep as its farthest
    vertex past it plus snap, and as long as its vertex span along it;
    likewise region j's on the other side. The two rectangles' area."""
    line = np.array([-hp.normal[1], hp.normal[0]])
    bound = 0.0
    for k, sign in ((i, 1.0), (j, -1.0)):
        v = partition.regions[k].vertices
        over = float((sign * (v @ hp.normal - hp.offset)).max())
        along = v @ line
        bound += ((max(over, 0.0) + partition.env.snap)
                  * float(along.max() - along.min()))
    return bound


def exchange_ref(partition, i: int, j: int, delta, density,
                 perf) -> tuple[gp.StepOutcome, str]:
    """The pairwise exchange as it was before the split alone decided a
    no-op, with no memo: it came back unchanged at trade fraction 0
    ("fraction"), with each region on its own side of the bisector
    within snap ("own sides"), when the rectangles past the bisector
    bound the trade by tol_area ("bound"), or when the split traded at
    most tol_area ("split"). Returns the outcome and the exit taken,
    "changed" when the partition changed."""
    env = partition.env
    cs = pt.centroids(partition, density, perf)
    h_before = pt.centroid_cost(partition, density, perf)

    def unchanged(exit_):
        return gp.StepOutcome(partition, False, (i, j), h_before, h_before,
                              0.0), exit_

    beta = gp._fraction(partition, i, j, delta, cs)
    if beta <= 0.0:
        return unchanged("fraction")
    if on_own_sides(partition, i, j, cs[i], cs[j]):
        return unchanged("own sides")
    hp = geo.bisector_halfplane(cs[i], cs[j])
    if _rectangle_bound(partition, i, j, hp) <= env.tol_area:
        return unchanged("bound")
    hp_i = hp_j = hp
    if beta < 1.0:
        di = partition.regions[i].vertices @ hp.normal - hp.offset
        dj = partition.regions[j].vertices @ hp.normal - hp.offset
        hp_i = geo.HalfPlane(hp.normal, hp.offset
                             + (1.0 - beta) * max(float(di.max()), 0.0))
        hp_j = geo.HalfPlane(hp.normal, hp.offset
                             - (1.0 - beta) * max(float((-dj).max()), 0.0))
    pieces_i, pieces_j, traded = pt.pair_split(partition, i, j, hp_i, hp_j)
    if traded <= env.tol_area:
        return unchanged("split")
    new = partition.replace(i, j, env.region(pieces_i), env.region(pieces_j))
    return gp.StepOutcome(new, True, (i, j), h_before,
                          pt.centroid_cost(new, density, perf),
                          traded), "changed"


def is_mixed_centroidal_ref(partition, density, perf, tol=None) -> bool:
    """The pairwise-balance test as its own pair loop: every pair whose
    centroids lie more than tol_point apart moves at most tol (twice its
    traded area) when split by their bisector."""
    env = partition.env
    if tol is None:
        tol = 1e-5 * env.area
    cs = pt.centroids(partition, density, perf)
    for i in range(partition.n):
        for j in range(i + 1, partition.n):
            gap = float(np.hypot(*(cs[i] - cs[j])))
            if gap <= env.tol_point:
                continue
            traded = bisector_trade(partition, i, j, cs[i], cs[j])
            if 2.0 * traded > tol:
                return False
    return True


def random_generators_ref(env, n: int, seed: int) -> np.ndarray:
    """Rejection sampling with no cap on the draws: uniform points in the
    bounding box, kept when 1e-3 of the diameter inside the environment."""
    rng = np.random.default_rng(seed)
    v = env.polygon.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    margin = -1e-3 * env.diameter
    out = []
    while len(out) < n:
        cand = rng.uniform(lo, hi, size=2)
        if bool(env.polygon.contains(cand, tol=margin)[0]):
            out.append(cand)
    return np.array(out)


def bbox_gap_ref(a, b) -> float:
    dx = max(0.0, a[0] - b[2], b[0] - a[2])
    dy = max(0.0, a[1] - b[3], b[1] - a[3])
    return float(np.hypot(dx, dy))


def contains_point_ref(v: np.ndarray, point, tol: float = 0.0) -> bool:
    """The broadcast inside test of one point against a CCW ring."""
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    e = np.roll(v, -1, axis=0) - v
    length = np.hypot(e[:, 0], e[:, 1])
    rel = pts[:, None, :] - v[None, :, :]
    cr = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
    lim = -tol * length[None, :]
    return bool(np.all(cr >= lim, axis=1)[0])


def in_convex_hull(point, region: Region, tol: float) -> bool:
    """True when point lies within tol of the convex hull of the region."""
    return contains_point_ref(convex_hull_ref(region.vertices), point, tol)


def min_gap_ref(points) -> tuple:
    """partition._min_gap's array form: np.argmin over the matrix of
    squared gaps, its diagonal infinite."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        return np.inf, 0, 0
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, silently
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    k = int(np.argmin(d2))
    return float(np.sqrt(d2.flat[k])), *divmod(k, len(pts))


def ring_moment_ref(v: np.ndarray) -> np.ndarray:
    """geometry._ring_moment's array form: elementwise products, and a
    reduce in numpy's pairwise order."""
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cr = x * yn - xn * y
    mx = float(np.sum((x + xn) * cr)) / 6.0
    my = float(np.sum((y + yn) * cr)) / 6.0
    return np.array([mx, my])


# ---------------------------------------------------------------------------
# The one-center integrals as they were when each quadrature sum took an
# integrand callable and the descent measured an accepted point's
# distances again for its gradient. integrate, mass_centroid,
# one_center_cost and centroid must answer exactly as these do, to the
# bit (tests/test_kernels.py). The closed-form quadratic cost under
# uniform density never reaches the quadrature, so it has no form here.

def subdivide_ref(a, b, c, level: int) -> np.ndarray:
    """One triangle's level**2 children, one child at a time, in the order
    and with the float operations quadrature.subdivide_triangle uses."""
    if level <= 1:
        return np.array([[a, b, c]], dtype=float)
    a = np.asarray(a, dtype=float)
    e1 = (np.asarray(b, dtype=float) - a) / level
    e2 = (np.asarray(c, dtype=float) - a) / level
    tris = []
    for i in range(level):
        for j in range(level - i):
            p = a + i * e1 + j * e2
            tris.append([p, p + e1, p + e2])
            if j < level - i - 1:
                tris.append([p + e1, p + e1 + e2, p + e2])
    return np.array(tris)


def quadrature_ref(region: Region, density, refine: int):
    """geo._quadrature built piece by piece and fan triangle by fan
    triangle: points, weights and density values, in the same order."""
    bary, wts = quadrature.triangle_rule()
    pts_all, w_all = [], []
    for piece in region.pieces:
        v = piece.vertices
        tris = np.concatenate([subdivide_ref(v[0], v[k], v[k + 1], refine)
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


def _quad_sum_ref(quad, fn) -> float:
    pts, w, dens = quad
    if len(pts) == 0:
        return 0.0
    return float(np.sum(w * np.asarray(fn(pts), dtype=float) * dens))


def _quad_sum_vec_ref(quad, fn) -> np.ndarray:
    pts, w, dens = quad
    if len(pts) == 0:
        return np.zeros(2)
    vals = np.asarray(fn(pts), dtype=float)
    return np.sum((w * dens)[:, None] * vals, axis=0)


def _cost_integrand_ref(p, perf):
    p = np.asarray(p, dtype=float)
    return lambda q: np.asarray(perf.fn(np.hypot(q[:, 0] - p[0],
                                                 q[:, 1] - p[1])))


def _gradient_integrand_ref(p, perf):
    p = np.asarray(p, dtype=float)

    def g(q):
        d = p[None, :] - q
        r = np.hypot(d[:, 0], d[:, 1])
        safe = np.maximum(r, 1e-300)
        dfn = 2.0 * r if perf.kind == "quadratic" else np.ones_like(r)
        scale = dfn / safe
        scale[r < 1e-14] = 0.0
        return d * scale[:, None]

    return g


def integrate_ref(region: Region, density, fn) -> float:
    return _quad_sum_ref(quadrature_ref(region, density, 1), fn)


def mass_centroid_ref(region: Region, density, refine: int = 1) -> np.ndarray:
    if isinstance(density, geo.UniformDensity):
        m1 = sum((p.moment for p in region.pieces), np.zeros(2))
        return m1 / region.area
    quad = quadrature_ref(region, density, refine)
    m0 = _quad_sum_ref(quad, lambda q: np.ones(len(q)))
    return _quad_sum_vec_ref(quad, lambda q: q) / m0


def one_center_cost_ref(p, region: Region, density, perf) -> float:
    return _quad_sum_ref(quadrature_ref(region, density, perf.refine),
                         _cost_integrand_ref(p, perf))


def centroid_ref(region: Region, density, perf, scale=None) -> np.ndarray:
    return centroid_path_ref(region, density, perf, scale)[-1]


def centroid_path_ref(region: Region, density, perf, scale=None) -> list:
    """The descent's start and every iterate it accepts, in order."""
    start = mass_centroid_ref(region, density, perf.refine)
    if perf.kind == "quadratic":
        return [start]
    quad = quadrature_ref(region, density, perf.refine)
    if scale is None:
        scale = geo.diameter(region)
    tol = 1e-10 * max(scale, 1e-12)
    path = [start]
    x = start
    fx = _quad_sum_ref(quad, _cost_integrand_ref(x, perf))
    step = max(scale, 1e-12)
    for _ in range(500):
        g = _quad_sum_vec_ref(quad, _gradient_integrand_ref(x, perf))
        if math.hypot(g[0], g[1]) * step < tol * 1e-3:
            break
        moved = False
        alpha = step
        for _bt in range(60):
            cand = x - alpha * g
            d = cand - x
            if math.hypot(d[0], d[1]) < tol:
                break
            fc = _quad_sum_ref(quad, _cost_integrand_ref(cand, perf))
            if fc <= fx + 1e-4 * (g[0] * d[0] + g[1] * d[1]):
                x, fx = cand, fc
                path.append(x)
                moved = True
                step = alpha * 2.0
                break
            alpha *= 0.5
        if not moved:
            break
    return path


# ---------------------------------------------------------------------------
# The waypoint draw in array form, as it was before it went to Python
# floats: every attempt runs the distance test. netsim.random_destination
# must give the same point and leave the generator in the same state.

class ScriptedDraws:
    """A stand-in generator for the waypoint draw: the n-th random()
    hands out script[n] where the script gives a value, and a seeded
    generator's n-th draw where it gives None or has run out. state()
    is all that a draw can have moved."""

    def __init__(self, script, seed: int):
        self.script = list(script)
        self.rng = np.random.default_rng(seed)
        self.drawn = 0

    def random(self) -> float:
        u = self.rng.random()
        v = self.script[self.drawn] if self.drawn < len(self.script) else None
        self.drawn += 1
        return u if v is None else v

    def state(self):
        return self.drawn, self.rng.bit_generator.state


def waypoint_accepted_ref(q, table, margin: float) -> bool:
    return float(geo._points_segments_distance(
        np.asarray(q, dtype=float)[None, :], table.starts,
        table.ends)[0]) <= margin


def random_destination_ref(table, margin: float, rng) -> np.ndarray:
    starts, ends, cum = table.starts, table.ends, np.asarray(table.cum)
    total = cum[-1]
    for _ in range(ns._MAX_WAYPOINT_DRAWS):
        k = int(np.searchsorted(cum, rng.random() * total))
        base = starts[k] + rng.random() * (ends[k] - starts[k])
        r = margin * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        q = base + r * np.array([math.cos(ang), math.sin(ang)])
        if waypoint_accepted_ref(q, table, margin):
            return q
    raise ns.SamplingExhausted("no valid waypoint")


# ---------------------------------------------------------------------------
# The network simulation loop one step at a time, as it was before it
# went a quiet window at a time. netsim.simulate must give the same
# events, transitions, snapshots and final partition, to the bit
# (tests/test_netsim.py).

@dataclass
class _AgentRef:
    region_index: int
    position: np.ndarray
    clock_offset: float
    phase: str
    steps_left: int
    leg_start: np.ndarray
    destination: np.ndarray


def simulate_ref(config, initial, density, perf, duration, *,
                 snapshot_times=()):
    """netsim.simulate one step at a time: motion, then one np.hypot
    range test and one rng.random() coin per in-range pair. Every
    waypoint draw builds its region's table afresh, past the memo of
    netsim.waypoint_table, and draws in array form
    (random_destination_ref). A geometry failure in a draw or a
    trade at step k, time t, aborts as simulate's does."""
    env = initial.env
    n = initial.n
    if n < 2:
        raise ValueError(f"netsim needs at least two regions, got n = {n}")
    if len(config.speeds) != n:
        raise ValueError(f"{len(config.speeds)} speeds for {n} regions")
    leg = ns.leg_time(env, config)
    per_leg = ns._steps_per_leg(env, config)
    dt = leg / per_leg
    p_comm = 1.0 - math.exp(-config.comm_rate * dt)
    rng = np.random.default_rng(config.seed)
    current = initial
    trace = ns.NetTrace(config=config, leg=leg, dt=dt)
    counts = trace.transitions

    def abort(exc, k, t):
        trace.final = current
        trace.termination = "degenerate"
        trace.elapsed = t
        return pt.DegenerateEvolution(str(exc), step=k, trace=trace)

    def draw(a, k, t):
        try:
            region = current.regions[a.region_index]
            return random_destination_ref(
                ns._segment_table(*ns.internal_boundary_segments(region,
                                                                 env)),
                config.waypoint_margin, rng)
        except geo.GeometryError as exc:
            raise abort(exc, k, t) from exc

    agents = []
    for i in range(n):
        pos = ns._start_position(current.regions[i])
        hold = int(rng.integers(per_leg))
        agents.append(_AgentRef(
            region_index=i, position=pos, clock_offset=hold * dt,
            phase=ns.WAIT_1 if hold > 0 else ns.TRAVEL,
            steps_left=hold if hold > 0 else per_leg,
            leg_start=pos, destination=pos))
    for a in agents:
        if a.phase == ns.TRAVEL:
            a.destination = draw(a, 0, 0.0)
    # the initial hold is not an epoch phase: it only desynchronizes
    # clocks, so it is excluded from the transition counts
    held = [a.phase == ns.WAIT_1 for a in agents]

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    snap_times = sorted(float(t) for t in snapshot_times)
    snap_idx = 0
    total_steps = max(0, round(duration / dt))
    t = 0.0
    for k in range(total_steps):
        while snap_idx < len(snap_times) and snap_times[snap_idx] <= t + 0.5 * dt:
            trace.snapshots.append((snap_times[snap_idx], current))
            snap_idx += 1
        for idx, a in enumerate(agents):
            a.steps_left -= 1
            if a.phase == ns.TRAVEL:
                frac = (per_leg - a.steps_left) / per_leg
                a.position = a.leg_start + frac * (a.destination - a.leg_start)
            if a.steps_left == 0:
                if held[idx]:
                    held[idx] = False
                    nxt = ns.TRAVEL
                else:
                    nxt = ns.epoch_transition(a.phase, rng)
                    key = (a.phase, nxt)
                    counts[key] = counts.get(key, 0) + 1
                if nxt == ns.TRAVEL:
                    a.leg_start = a.position.copy()
                    a.destination = draw(a, k, (k + 1) * dt)
                a.phase = nxt
                a.steps_left = per_leg
        t = (k + 1) * dt
        for (i, j) in pairs:
            dx = agents[i].position[0] - agents[j].position[0]
            dy = agents[i].position[1] - agents[j].position[1]
            if np.hypot(dx, dy) > config.comm_radius:
                continue
            if rng.random() >= p_comm:
                continue
            try:
                out = gp.partial_gossip_step(current, i, j, config.delta,
                                             density, perf)
            except geo.GeometryError as exc:
                raise abort(exc, k, t) from exc
            current = out.partition
            trace.events.append(ns.CommEvent(
                time=t, pair=(i, j), changed=out.changed,
                traded_area=out.traded_area, h=out.h_after))
    while snap_idx < len(snap_times):
        trace.snapshots.append((snap_times[snap_idx], current))
        snap_idx += 1
    trace.final = current
    trace.elapsed = total_steps * dt
    return trace
