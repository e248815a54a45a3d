"""The per-vertex geometry kernels run on Python floats. Each must give
the same bits as the array form it replaced (kept in tests/oracles.py),
on seeded and hypothesis inputs that reach their edge cases:
near-duplicate vertices at the dedupe threshold, collinear runs,
vertices within snap of a cut, points exactly on an edge, nonzero
tolerances, and boxes that touch at a corner. The split's pieces are
also measured against its cut done in exact rational arithmetic. The
merge must fuse exactly as the loop that retests every rejected pair,
and the cached piece moments must sum to the moments computed afresh.
The one-center integrals over plain arrays must give the same bits as
the integrand callables they replaced, the linear descent on Python
floats the same bits as the loop on numpy 2-vectors, and the descent's
filters the same answers as the numpy calls they stand in for. The
exchange's small kernels on Python floats (the ring moment and its
pairwise sum, the hull's sort, the least gap between points) must give
numpy's bits too, and a few of their answers are pinned by hex.
"""
import dataclasses
import hashlib
import itertools
import math
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import partition as pt
from gossipcover import switching as sw
from gossipcover.geometry import ConvexPolygon, HalfPlane, Region

# small integers make collinear runs, repeated points and edges that
# points lie on exactly; the floats make everything else
COORD = st.one_of(st.integers(-4, 4).map(float),
                  st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
POINTS = st.lists(st.tuples(COORD, COORD), min_size=1, max_size=14)
ANGLE = st.floats(0.0, 2.0 * math.pi)
TOLS = [0.0, 1e-12, 1e-3, -1e-3, -0.1]


def bits(x) -> bytes:
    return struct.pack("<d", x)


def same(got, want) -> bool:
    """Both absent, or arrays equal to the bit (shape, dtype and bytes)."""
    if got is None or want is None:
        return got is None and want is None
    got = got.vertices if isinstance(got, ConvexPolygon) else got
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def polygon(points):
    hull = oracles.convex_hull_ref(np.array(points, dtype=float))
    try:
        return ConvexPolygon(hull)
    except ValueError:
        return None


def seeded_polygons(seed, count):
    rng = np.random.default_rng(seed)
    for k in range(count):
        yield oracles.random_convex_polygon(
            rng, 3 + k % 9, center=rng.uniform(-5, 5, 2),
            scale=10.0 ** rng.uniform(-3, 3))


# ---------------------------------------------------------------------------
# hull

def check_hull(pts):
    pts = np.array(pts, dtype=float).reshape(-1, 2)
    assert same(geo._convex_hull(pts), oracles.convex_hull_ref(pts))


@settings(max_examples=300, deadline=None)
@given(POINTS)
def test_hull_matches_array_form(points):
    check_hull(points)


def test_hull_matches_array_form_on_collinear_runs_and_seeds():
    rng = np.random.default_rng(11)
    check_hull([[k, 2 * k] for k in range(6)])          # one line
    check_hull([[x, y] for x in range(4) for y in range(3)])  # grid
    check_hull([[0, 0], [1, 0], [2, 0], [2, 1], [0, 0], [1, 0]])
    for _ in range(200):
        n = int(rng.integers(1, 40))
        check_hull(rng.integers(-3, 4, size=(n, 2)))
        check_hull(rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-6, 6))


# ---------------------------------------------------------------------------
# split

def check_cut(poly, hp, snap, min_area=0.0):
    v, n, c = poly.vertices, hp.normal, hp.offset
    ins, outs = oracles.split_piece(poly, hp, snap, min_area)
    want_ins, want_outs = oracles.split_convex_ref(v, n, c, snap, min_area)
    assert same(ins, want_ins) and same(outs, want_outs)
    # a side that is the whole polygon is handed over as the polygon
    assert (ins is poly, outs is poly) == (want_ins is v, want_outs is v)


def exact_area(piece) -> Fraction:
    return Fraction(0) if piece is None else oracles.area_exact(piece.vertices)


def check_exact_areas(poly, hp, snap):
    """The split's pieces, measured exactly, hold the polygon's exact parts
    on either side of the line: to 1e-9 of its area, plus the band within
    snap of the line, which the split may hand either way."""
    ins, outs = oracles.split_piece(poly, hp, snap)
    want_ins, want_outs = oracles.cut_areas_exact(poly.vertices, hp.normal,
                                                  hp.offset)
    along = poly.vertices @ np.array([-hp.normal[1], hp.normal[0]])
    tol = 1e-9 * poly.area + snap * float(along.max() - along.min())
    assert abs(float(exact_area(ins) - want_ins)) <= tol
    assert abs(float(exact_area(outs) - want_outs)) <= tol


def rounds_a_crossing(poly, hp, snap) -> bool:
    """True when some edge crossing's parameter rounds to 0 or 1: the
    crossing lands on an edge end, the case a cut must not drop."""
    d = oracles.signed_offsets_ref(poly.vertices, hp.normal, hp.offset,
                                   snap).tolist()
    return any((da < 0.0 < db or da > 0.0 > db)
               and not 0.0 < da / (da - db) < 1.0
               for da, db in zip(d, d[1:] + d[:1]))


def cuts_through(poly, angle, snap):
    """Half-planes at angle through every vertex, and moved off it by
    fractions and multiples of snap."""
    normal = np.array([math.cos(angle), math.sin(angle)])
    for p in poly.vertices:
        for shift in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
            yield HalfPlane(normal, float(normal @ p) + shift * snap)


@settings(max_examples=100, deadline=None)
@given(POINTS, ANGLE, st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
       st.floats(-1.0, 1.0), st.sampled_from([0.0, 1e-6]))
def test_split_matches_array_form(points, angle, snap_rel, where, min_area):
    poly = polygon(points)
    assume(poly is not None)
    snap = snap_rel * (float(np.abs(poly.vertices).max()) + 1.0)
    for hp in cuts_through(poly, angle, snap):
        check_cut(poly, hp, snap, min_area)
    # and a cut anywhere across the polygon
    normal = np.array([math.cos(angle), math.sin(angle)])
    d = poly.vertices @ normal
    offset = float(d.min() + (where + 1.0) / 2.0 * (d.max() - d.min()))
    check_cut(poly, HalfPlane(normal, offset), snap, min_area)


def test_split_matches_array_form_and_exact_areas_on_seeded_polygons():
    rng = np.random.default_rng(12)
    cuts = []
    for poly in seeded_polygons(13, 60):
        scale = float(np.abs(poly.vertices).max()) + 1.0
        for snap in (0.0, 1e-12 * scale):
            for hp in cuts_through(poly, rng.uniform(0, 2 * math.pi), snap):
                cuts.append((poly, hp, snap))
    # a cut along an edge, and one through two opposite corners
    square = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    for hp in (HalfPlane((1.0, 0.0), 1.0), HalfPlane((1.0, -1.0), 0.0),
               HalfPlane((0.0, 1.0), 0.5)):
        for snap in (0.0, 1e-12):
            cuts += [(square, hp, snap), (square, oracles.flipped(hp), snap)]
    for poly, hp, snap in cuts:
        check_cut(poly, hp, snap)
        check_exact_areas(poly, hp, snap)
    # the sweep reaches crossings that land on an edge end; a clip that
    # dropped them lost real area on 56 of these cuts
    assert sum(rounds_a_crossing(*cut) for cut in cuts) >= 50


def test_voronoi_cells_are_pinned():
    # every cell is the environment clipped by its bisectors in turn: the
    # clip's vertex bytes on criterion 01's starts of seeds 0 to 31
    digest = hashlib.sha256()
    for seed in range(32):
        for region in rect6_start(seed).regions:
            for piece in region.pieces:
                digest.update(piece.vertices.tobytes())
    assert digest.hexdigest() == \
        "b218ccaf983374a6b061481d2f218254c73ada23b06c2470cf71a040fb2aa7f8"


# ---------------------------------------------------------------------------
# whole-piece region split

def check_stacked_projection(region, hp):
    """The region's stacked projection holds each piece's own projection
    row for row, to the bit."""
    d = region.vertices @ hp.normal - hp.offset
    ends = region.piece_starts.tolist() + [len(d)]
    for p, a, b in zip(region.pieces, ends, ends[1:]):
        assert same(d[a:b], p.vertices @ hp.normal - hp.offset)


def check_region_split(region, hp, snap, min_area=0.0) -> Counter:
    """region_split against the per-piece loop: whole pieces come back as
    the same objects, cut ones with identical vertex arrays. Counts the
    pieces handed over whole, cut, and dropped as hairlines."""
    got = geo.region_split(region, hp, snap, min_area)
    want = oracles.region_split_ref(region, hp, snap, min_area)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            if any(b is p for p in region.pieces):
                assert a is b
            else:
                assert same(a, b.vertices)
    kinds = Counter()
    for p in region.pieces:
        d = oracles.signed_offsets_ref(p.vertices, hp.normal, hp.offset, snap)
        kinds["hairline" if (d == 0.0).all() else
              "whole" if (d <= 0.0).all() or (d >= 0.0).all() else "cut"] += 1
    return kinds


def hairline(hp, at, length, lift) -> ConvexPolygon:
    """A thin triangle: its base on hp's line near the point at, its apex
    lift past the line."""
    n = hp.normal
    t = np.array([-n[1], n[0]])
    base = at + (hp.offset - float(at @ n)) * n
    return ConvexPolygon([base - length * t, base + length * t,
                          base + lift * n])


def seeded_regions(seed, count):
    """Regions of 1 to 12 seeded pieces; a split never reads whether the
    pieces overlap, so they need not tile anything."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        yield Region(tuple(seeded_polygons(int(rng.integers(1 << 30)),
                                           1 + k % 12)))


def test_region_split_hands_over_the_per_piece_loops_pieces():
    rng = np.random.default_rng(20)
    kinds = Counter()
    for k, region in enumerate(seeded_regions(21, 12)):
        scale = float(np.abs(region.vertices).max()) + 1.0
        piece = region.pieces[k % len(region.pieces)]
        angle = rng.uniform(0, 2 * math.pi)
        for snap in (0.0, 1e-12 * scale, 1e-3 * scale):
            for hp in cuts_through(piece, angle, snap):
                check_stacked_projection(region, hp)
                kinds += check_region_split(region, hp, snap)
                if snap == 0.0:
                    continue
                at = piece.vertices[0]
                thin = Region(region.pieces + (
                    hairline(hp, at, 0.1 * scale, 0.5 * snap),
                    hairline(hp, at, 0.1 * scale, -0.5 * snap)))
                check_stacked_projection(thin, hp)
                kinds += check_region_split(thin, hp, snap, 1e-6 * scale)
    assert min(kinds[k] for k in ("whole", "cut", "hairline")) > 100


def test_region_split_matches_per_piece_loop_on_fragmented_regions():
    # the exchange's own cuts: every pair's centroid bisector, whose line
    # often runs through seam vertices an earlier cut left on it
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(22)
    part = pt.voronoi(env, rng.uniform([0.05, 0.05], [1.95, 0.95], (6, 2)))
    sched = sw.AdjacentRandom(22, 1e-9)
    dens, quad = geo.UniformDensity(), geo.quadratic_performance()
    kinds = Counter()
    for t in range(150):
        i, j = sched.select(t, part)
        part = gp.gossip_step(part, i, j, dens, quad).partition
        if t % 30:
            continue
        cs = pt.centroids(part, dens, quad)
        for i, j in sw.all_pairs(part.n):
            hp = geo.bisector_halfplane(cs[i], cs[j])
            for r in (part.regions[i], part.regions[j]):
                check_stacked_projection(r, hp)
                kinds += check_region_split(r, hp, env.snap, env.sliver_area)
    assert max(len(r.pieces) for r in part.regions) > 5
    assert kinds["whole"] > kinds["cut"] > 0


# ---------------------------------------------------------------------------
# dedupe

def check_dedupe(ring):
    """The dedupe on the ring as an array, the form a polygon and a fused
    hull hand over, and as Python floats, a cut's form, against the
    loop it replaced."""
    ring = np.array(ring, dtype=float)
    want = oracles.dedupe_ring_ref(ring)
    assert same(geo._dedupe_ring(ring), want)
    assert same(geo._dedupe_ring(ring.tolist()), want)


def near_copies(v, index, factors, angle):
    """v with copies of v[index] moved by factor * eps after it."""
    eps = oracles.DEDUPE_REL * (float(np.abs(v).max()) + 1.0)
    step = np.array([math.cos(angle), math.sin(angle)])
    extra = [v[index] + f * eps * step for f in factors]
    return np.vstack([v[:index + 1], extra, v[index + 1:]])


EPS_FACTORS = st.lists(st.sampled_from(
    [0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-6, 2.0, -1.0]),
    min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(POINTS, st.integers(0, 20), EPS_FACTORS, ANGLE)
def test_dedupe_matches_array_form(points, index, factors, angle):
    poly = polygon(points)
    assume(poly is not None)
    v = poly.vertices
    check_dedupe(v)
    check_dedupe(near_copies(v, index % len(v), factors, angle))
    # the closing pair: a last vertex near the first
    check_dedupe(near_copies(v, len(v) - 1, [0.0], angle)[:-1])
    check_dedupe(np.vstack([v, near_copies(v, 0, factors, angle)[1:2]]))


def test_dedupe_matches_array_form_at_the_wrap_around():
    # only the closing gap is below eps
    check_dedupe([[0, 0], [1, 0], [1, 1], [0, 1], [0, 1e-13]])
    check_dedupe([[0, 0], [1, 0], [1, 1], [0, 1], [1e-13, -1e-13]])
    # every gap below eps, and a single vertex
    check_dedupe([[0, 0], [1e-13, 0], [1e-13, 1e-13]])
    check_dedupe([[2.0, 3.0]])
    for poly in seeded_polygons(14, 40):
        v = poly.vertices
        for k in range(len(v)):
            check_dedupe(near_copies(v, k, [1.0, 1.0 - 1e-9], 0.3))


def test_cut_rings_fall_back_to_the_dedupe_only_where_floats_cannot_decide(
        monkeypatch):
    # the loop takes the cell a second time, from numpy's max: a ring
    # that reaches it asks _vertex_cell twice, one the legs decide once
    calls = Counter()
    cell = geo._vertex_cell

    def counted(max_abs):
        calls["cell"] += 1
        return cell(max_abs)

    monkeypatch.setattr(geo, "_vertex_cell", counted)
    eps = cell(1.0)
    above = math.nextafter(eps, math.inf)
    below = math.nextafter(eps, 0.0)
    # a gap of exactly one cell, whose hypot is not above it, and one ulp
    # less; one ulp more, where the leg alone decides; a NaN coordinate,
    # whose two gaps each have a finite leg above the cell, and whose
    # ring the loop cuts to one vertex; an infinite coordinate, whose
    # cell is infinite; and a closing gap of one cell
    for ring, falls_back in (
            ([[0.0, 0.0], [eps, 0.0], [1.0, 1.0]], True),
            ([[0.0, 0.0], [0.0, eps], [-1.0, 1.0]], True),
            ([[0.0, 0.0], [below, 0.0], [1.0, 1.0]], True),
            ([[0.0, 0.0], [above, 0.0], [1.0, 1.0]], False),
            ([[0.0, 0.0], [0.0, above], [-1.0, 1.0]], False),
            ([[0.0, 0.0], [1.0, 0.0], [math.nan, 1.0], [0.0, 2.0]], True),
            ([[0.0, 0.0], [1.0, 0.0], [math.inf, 1.0]], True),
            ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, eps]], True),
            ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, above]], False)):
        want = oracles.dedupe_ring_ref(np.array(ring))
        for form in (ring, np.array(ring)):
            before = calls["cell"]
            got = geo._dedupe_ring(form)
            assert calls["cell"] - before == 1 + falls_back
            assert same(got, want)
    # the one-cell gap and the one below it are deduplicated, the
    # one-ulp gap above it is kept
    assert len(geo._dedupe_ring([[0.0, 0.0], [eps, 0.0], [1.0, 1.0]])) == 2
    assert len(geo._dedupe_ring([[0.0, 0.0], [below, 0.0], [1.0, 1.0]])) == 2
    assert len(geo._dedupe_ring([[0.0, 0.0], [above, 0.0], [1.0, 1.0]])) == 3


# ---------------------------------------------------------------------------
# bounding-box gap

def check_gap(a, b):
    assert bits(geo._bbox_gap(a, b)) == bits(oracles.bbox_gap_ref(a, b))
    assert bits(geo._bbox_gap(b, a)) == bits(oracles.bbox_gap_ref(b, a))


SIZE = st.floats(0.0, 5.0, allow_nan=False)
SHIFT = st.one_of(st.just(0.0), st.floats(-5.0, 5.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(COORD, COORD, SIZE, SIZE, SHIFT, SHIFT, SIZE, SIZE)
def test_bbox_gap_matches_array_form(x0, y0, w, h, gx, gy, w2, h2):
    a = (x0, y0, x0 + w, y0 + h)
    # gx = 0 puts b flush against a's right side, gy = 0 on its top
    b = (a[2] + gx, a[3] + gy, a[2] + gx + w2, a[3] + gy + h2)
    check_gap(a, b)


ULP_PAST_1 = math.nextafter(1.0, 2.0)


def test_bbox_gap_matches_array_form_on_touching_boxes():
    unit = (0.0, 0.0, 1.0, 1.0)
    for other in [(1.0, 1.0, 2.0, 2.0),      # corner to corner
                  (1.0, -1.0, 2.0, 0.0),     # the other corner
                  (1.0, 0.5, 2.0, 3.0),      # along a side
                  (0.5, 0.5, 2.0, 2.0),      # overlapping
                  (1.5, 0.2, 2.0, 0.4),      # apart along x only
                  (1.5, 1.5, 2.0, 2.0),      # apart on both axes
                  (ULP_PAST_1, ULP_PAST_1, 2.0, 2.0)]:     # one ulp apart
        check_gap(unit, other)
    rng = np.random.default_rng(15)
    lo = rng.normal(size=(500, 2, 2))
    hi = lo + rng.exponential(size=(500, 2, 2))
    for (a0, b0), (a1, b1) in zip(lo.tolist(), hi.tolist()):
        check_gap((*a0, *a1), (*b0, *b1))


# ---------------------------------------------------------------------------
# one-point inside test

def check_inside(poly, point, tol):
    got = bool(poly.contains(point, tol)[0])
    assert got == oracles.contains_point_ref(poly.vertices, point, tol)


def edge_points(poly):
    """Vertices, points exactly on the edges, and points just off them."""
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    for a, b in zip(v, nxt):
        for t in (0.0, 0.25, 0.5, 1.0 / 3.0, 1.0):
            yield a + t * (b - a)
        mid = 0.5 * (a + b)
        normal = np.array([b[1] - a[1], a[0] - b[0]])
        for s in (1e-15, 1e-12, 1e-6):
            yield mid + s * normal
            yield mid - s * normal


@settings(max_examples=100, deadline=None)
@given(POINTS, st.tuples(COORD, COORD), st.sampled_from(TOLS))
def test_inside_test_matches_array_form(points, point, tol):
    poly = polygon(points)
    assume(poly is not None)
    check_inside(poly, np.array(point), tol)
    for q in edge_points(poly):
        check_inside(poly, q, tol)


def test_inside_test_matches_array_form_on_seeded_polygons():
    rng = np.random.default_rng(16)
    square = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    for poly in [square, *seeded_polygons(17, 40)]:
        v = poly.vertices
        box = (v.min(axis=0) - 0.1, v.max(axis=0) + 0.1)
        for tol in TOLS:
            for q in [*edge_points(poly), *rng.uniform(*box, size=(20, 2))]:
                check_inside(poly, q, tol)


# ---------------------------------------------------------------------------
# first moment

def test_ring_moment_matches_array_form():
    for poly in seeded_polygons(18, 60):
        v = poly.vertices
        assert same(geo._ring_moment(v), oracles.ring_moment_ref(v))


def test_ring_moment_matches_array_form_on_seeded_rings():
    # any ring, convex or not: one running sum below 8 edges, eight
    # interleaved ones from 8 to 40; small integers give exact zeros,
    # negated ones -0.0
    rng = np.random.default_rng(52)
    for n in range(3, 41):
        for k in range(6):
            if k % 3 == 2:
                v = rng.integers(-2, 3, (n, 2)) * rng.choice([-1.0, 1.0])
            else:
                v = (rng.uniform(-1.0, 1.0, (n, 2)) * 10.0 ** rng.uniform(-3, 3)
                     + rng.uniform(-5.0, 5.0, 2))
            assert same(geo._ring_moment(v), oracles.ring_moment_ref(v))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 127, 128, 129, 300])
def test_pairwise_sum_matches_add_reduce(n):
    # magnitudes 1e-8 to 1e8, so the order shows in the last bits; with
    # -0.0 among the terms, and as every term
    rng = np.random.default_rng(n)
    for k in range(24):
        t = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        if k % 3 == 1:
            t[rng.random(n) < 0.5] = -0.0
        elif k % 3 == 2:
            t[:] = -0.0
        assert bits(geo._pairwise_sum(t.tolist())) == \
            bits(float(np.add.reduce(t)))


def min_gap_cases():
    rng = np.random.default_rng(53)
    for n in range(0, 13):
        yield rng.uniform(0.0, 2.0, (n, 2))
    # tied gaps: lattices, with and without a repeated point
    lattice = np.array([[x, y] for y in range(3) for x in range(4)], float)
    yield lattice
    yield lattice[::-1]
    yield np.concatenate((lattice, lattice[5:6]))
    yield np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    # a NaN point, which every gap it is in makes NaN, wherever it stands
    for k in range(5):
        pts = rng.uniform(0.0, 2.0, (5, 2))
        pts[k, k % 2] = np.nan
        yield pts
    # every gap infinite: argmin's first entry, the diagonal
    yield np.array([[np.inf, 0.0], [0.0, np.inf], [-np.inf, 1.0]])


def test_min_gap_matches_argmin_form():
    for pts in min_gap_cases():
        gap, i, j = pt._min_gap(pts.tolist())
        want = oracles.min_gap_ref(pts)
        assert (bits(gap), i, j) == (bits(want[0]), *want[1:])


def test_small_kernels_are_pinned():
    # float.hex of _ring_moment and _min_gap on seeded inputs. Neither
    # calls BLAS, so these hold on every OpenBLAS core (CI runs this test
    # again under OPENBLAS_CORETYPE=Prescott)
    rng = np.random.default_rng(51)
    moments = [[m.hex() for m in geo._ring_moment(
        rng.uniform(-2.0, 2.0, (n, 2))).tolist()] for n in (3, 9, 40)]
    assert moments == [["0x1.02a33dbf3dd88p-2", "-0x1.930b27c668999p-2"],
                       ["0x1.d77faf736ba0fp-2", "0x1.9b075b0aa5bebp-1"],
                       ["-0x1.316ec5226712dp+1", "0x1.67ae503062195p+1"]]
    gap, i, j = pt._min_gap(rng.uniform(0.0, 2.0, (6, 2)).tolist())
    assert (gap.hex(), i, j) == ("0x1.fb3bbf32c6113p-3", 1, 3)


def test_mass_centroid_sums_the_cached_piece_moments():
    # pieces cut by region_split come from _ring_polygon; the same rings
    # rebuilt through ConvexPolygon take the constructor's path
    dens = geo.UniformDensity()
    for region in oracles.seeded_multi_piece_regions(27, 20):
        rebuilt = Region(tuple(ConvexPolygon(p.vertices)
                               for p in region.pieces))
        for r in (region, rebuilt):
            want = sum((oracles.ring_moment_ref(p.vertices)
                        for p in r.pieces), np.zeros(2)) / r.area
            # the first call fills each piece's moment, the second reads it
            assert same(geo._mass_centroid(r, dens, 1), want)
            assert same(geo.mass_centroid(r, dens), want)
            for p in r.pieces:
                assert same(p.moment, oracles.ring_moment_ref(p.vertices))
                with pytest.raises(ValueError):
                    p.moment[0] = 0.0


# ---------------------------------------------------------------------------
# one-center integrals over plain arrays

# a bilinear density with four cells under the seeded regions, so its
# slope changes inside them
GRID = geo.GridDensity(-1.0, -1.0, 1.0, 1.0,
                       [[1.0, 5.0, 0.5], [0.2, 2.0, 3.0], [1.5, 0.7, 4.0]])
DENSITIES = pytest.mark.parametrize("dens", [geo.UniformDensity(2.5), GRID],
                                    ids=["uniform", "grid"])


def capped_regions() -> list:
    """Regions of seeded rect6 runs whose linear descent runs to
    _DESCENT_MAX_ITER under DENSITIES: criterion 01's seed-0 start, cell
    1 (uniform, refine 1), and seed 2's cell 2 after two round-robin
    linear-cost exchanges at density 1 (the other three)."""
    out = []
    for seed, steps, k in ((0, 0, 1), (2, 2, 2)):
        rng = np.random.default_rng(seed)
        part = pt.voronoi(pt.rectangle(2.0, 1.0),
                          rng.uniform([0.1, 0.1], [1.9, 0.9], (6, 2)))
        for i, j in sw.all_pairs(6)[:steps]:
            part = gp.gossip_step(part, i, j, geo.UniformDensity(),
                                  geo.linear_performance()).partition
        out.append(Region(part.regions[k].pieces))
    return out


@pytest.mark.parametrize("refine", [1, 3])
@DENSITIES
def test_one_center_integrals_match_the_integrand_forms(dens, refine,
                                                        monkeypatch):
    # the descent on fragmented regions at the default and a wide scale,
    # and on regions where it stops at its iteration cap; the cost handed
    # back with each centroid; the cost at, near and far from the
    # centroid; and the quadrature mass centroid that starts the descent
    lin = dataclasses.replace(geo.linear_performance(), refine=refine)
    quad = dataclasses.replace(geo.quadratic_performance(), refine=refine)
    rng = np.random.default_rng(37)
    capped = 0
    for region in [*oracles.seeded_multi_piece_regions(37, 8),
                   *capped_regions()]:
        diam = geo.diameter(region)
        for scale in (None, 4.0 * diam):
            c, cost = geo._centroid_and_cost(region, dens, lin, scale)
            assert same(c, oracles.centroid_ref(region, dens, lin, scale))
            assert same(geo.centroid(region, dens, lin, scale), c)
            assert bits(cost) == bits(oracles.one_center_cost_ref(
                c, region, dens, lin))
            with monkeypatch.context() as m:
                # a descent that stopped by itself ends where it did
                m.setattr(geo, "_DESCENT_MAX_ITER",
                          2 * geo._DESCENT_MAX_ITER)
                capped += not same(geo.centroid(region, dens, lin, scale), c)
        start = oracles.mass_centroid_ref(region, dens, refine)
        assert not same(c, start)  # the descent moved
        assert same(geo._mass_centroid(region, dens, refine), start)
        cq, cost = geo._centroid_and_cost(region, dens, quad, None)
        assert same(cq, start) and same(geo.centroid(region, dens, quad), cq)
        assert bits(cost) == bits(geo.one_center_cost(cq, region, dens, quad))
        for p in (c, c + 0.1 * diam * rng.normal(size=2),
                  c + 10.0 * diam * rng.normal(size=2)):
            got = geo.one_center_cost(p, region, dens, lin)
            assert bits(got) == bits(oracles.one_center_cost_ref(
                p, region, dens, lin))
            if dens is GRID:  # quadratic cost integrates only off uniform
                got = geo.one_center_cost(p, region, dens, quad)
                assert bits(got) == bits(oracles.one_center_cost_ref(
                    p, region, dens, quad))
    assert capped  # one of capped_regions() at both scales


@DENSITIES
def test_integrate_and_mass_centroid_match_the_integrand_forms(dens):
    # fn may return a list; an empty region integrates to 0.0
    fns = [lambda q: q[:, 0] ** 2 * q[:, 1], lambda q: np.ones(len(q)),
           lambda q: np.hypot(q[:, 0], q[:, 1]).tolist()]
    for region in [*oracles.seeded_multi_piece_regions(41, 8), Region(())]:
        for fn in fns:
            got = geo.integrate(region, dens, fn)
            assert type(got) is float
            assert bits(got) == bits(oracles.integrate_ref(region, dens, fn))
        if not region.is_empty:
            assert same(geo.mass_centroid(region, dens),
                        oracles.mass_centroid_ref(region, dens))


@pytest.mark.parametrize("refine", [1, 3])
@pytest.mark.parametrize("dens", [geo.UniformDensity(), geo.UniformDensity(2.5),
                                  GRID], ids=["unit", "uniform", "grid"])
def test_stacked_quadrature_matches_the_per_triangle_build(dens, refine):
    # one stack of every piece's fan triangles gives the points, weights
    # and density values of the piece-by-piece build, byte for byte
    for region in [*oracles.seeded_multi_piece_regions(53, 12), Region(())]:
        got = geo._quadrature(region, dens, refine)
        want = oracles.quadrature_ref(region, dens, refine)
        assert all(same(g, w) for g, w in zip(got, want, strict=True))


def test_descent_from_a_quadrature_point_matches_the_loop(monkeypatch):
    # an iterate within 1e-14 of a quadrature point takes the masked unit
    # offsets: one more point sits at (or 5e-15 from) the descent's start
    # in the build under test and in the oracles' own build alike; a
    # density of 1.0 takes the descent's cost without the density product
    lin = geo.linear_performance()
    builds = [(geo, "_quadrature"), (oracles, "quadrature_ref")]
    builds = [(owner, name, getattr(owner, name)) for owner, name in builds]
    for dens, region in itertools.product(
            (geo.UniformDensity(2.5), geo.UniformDensity()),
            oracles.seeded_multi_piece_regions(47, 4)):
        start = geo._mass_centroid(region, dens, 1)
        for offset in (0.0, 5e-15):
            extra = start + offset
            for owner, name, quadrature in builds:

                def with_extra(region, density, refine, quadrature=quadrature):
                    pts, w, vals = quadrature(region, density, refine)
                    return (np.vstack([pts, extra]), np.append(w, w.mean()),
                            np.append(vals, density(extra[None])))

                monkeypatch.setattr(owner, name, with_extra)
            c, cost = geo._centroid_and_cost(region, dens, lin, None)
            assert same(c, oracles.centroid_ref(region, dens, lin))
            assert bits(cost) == bits(oracles.one_center_cost_ref(
                c, region, dens, lin))
            assert not same(c, start)


@pytest.mark.parametrize("dens", [geo.UniformDensity(), geo.UniformDensity(2.5)],
                         ids=["unit", "uniform"])
def test_descent_onto_a_quadrature_point_takes_the_masked_offsets(
        monkeypatch, dens):
    # zero-weight points sit exactly at three iterates of a descent, so
    # a later iterate lands at length 0 from one: the descent must see
    # it there (a unit offset of 1 / 0 would fail), and the points must
    # change neither its path nor its bits
    lin = geo.linear_performance()
    builds = [(owner, name, getattr(owner, name)) for owner, name in
              [(geo, "_quadrature"), (oracles, "quadrature_ref")]]
    for region in oracles.seeded_multi_piece_regions(47, 4):
        path = oracles.centroid_path_ref(region, dens, lin)
        c, cost = geo._centroid_and_cost(region, dens, lin, None)
        assert same(path[-1], c)  # the reference ends where the descent does
        stops = np.array([path[1], path[len(path) // 2], path[-1]])
        for owner, name, quadrature in builds:

            def with_stops(region, density, refine, quadrature=quadrature):
                pts, w, vals = quadrature(region, density, refine)
                return (np.vstack([pts, stops]), np.append(w, [0.0] * 3),
                        np.append(vals, density(stops)))

            monkeypatch.setattr(owner, name, with_stops)
        got, got_cost = geo._centroid_and_cost(region, dens, lin, None)
        assert same(got, c) and bits(got_cost) == bits(cost)
        stopped = oracles.centroid_path_ref(region, dens, lin)
        assert all(same(a, b) for a, b in zip(stopped, path, strict=True))
        for owner, name, quadrature in builds:
            monkeypatch.setattr(owner, name, quadrature)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([geo.UniformDensity(2.5), geo.UniformDensity(), GRID]),
       st.sampled_from([1, 3]), st.sampled_from([None, 4.0]))
def test_descent_matches_the_loop_on_seeded_regions(seed, dens, refine,
                                                    wide):
    lin = dataclasses.replace(geo.linear_performance(), refine=refine)
    region = next(oracles.seeded_multi_piece_regions(seed, 1))
    scale = None if wide is None else wide * geo.diameter(region)
    c, cost = geo._centroid_and_cost(region, dens, lin, scale)
    assert same(c, oracles.centroid_ref(region, dens, lin, scale))
    assert bits(cost) == bits(oracles.one_center_cost_ref(c, region, dens,
                                                          lin))


def test_linear_centroids_along_round_robin_runs_are_pinned(monkeypatch):
    # every (centroid, cost) entry the linear descent hands the memo
    # along 60 RoundRobin steps from three rect6 starts; the digest was
    # taken on the descent that oracles.centroid_ref keeps
    entries = []
    descend = geo._centroid_and_cost

    def recorded(*args):
        c, cost = descend(*args)
        entries.append(c.tobytes() + bits(cost))
        return c, cost

    monkeypatch.setattr(geo, "_centroid_and_cost", recorded)
    for seed in range(3):
        sw.run_evolution(rect6_start(seed), geo.UniformDensity(),
                         geo.linear_performance(), sw.RoundRobin(6),
                         budget=60, check_every=5)
    assert len(entries) == 238
    assert hashlib.sha256(b"".join(entries)).hexdigest() == (
        "a3bcb28b0ffff2896cf02031766ffe25079ad73ef38764e418caeb221540a2f9")


# ---------------------------------------------------------------------------
# cached piece properties

def test_piece_properties_are_the_kernels_computed_once():
    # pieces from each constructor path: ConvexPolygon on counterclockwise
    # and on clockwise rings, and _ring_polygon
    rings = [p.vertices for p in seeded_polygons(31, 40)]
    pieces = [make(r) for r in rings for make in (
        ConvexPolygon, lambda r: ConvexPolygon(r[::-1]),
        lambda r: geo._ring_polygon(r, 0.0))]
    flipped = 0
    for p in pieces:
        v = p.vertices
        assert bits(p.area) == bits(geo._ring_area(v))
        flipped += bits(p.area) != bits(-geo._ring_area(v[::-1]))
        e = np.roll(v, -1, axis=0) - v
        rows = [tuple(map(float, (*a, *b, c)))
                for a, b, c in zip(v, e, np.hypot(e[:, 0], e[:, 1]))]
        got = p.moment
        assert same(got, geo._ring_moment(v))
        assert p.moment is got
        assert not got.flags.writeable
        for name, w in (("bbox", geo._bbox(v)), ("edges", rows)):
            got = getattr(p, name)
            assert same(np.array(got), np.array(w))
            assert getattr(p, name) is got
    assert flipped > 0  # some clockwise ring's area rounds apart from -a


# ---------------------------------------------------------------------------
# merge against the loop that retests every pair

def check_merge(pieces, tol, hulls: Counter, carried=frozenset()):
    """merge_pieces against the loop that builds every candidate hull:
    the same pieces in the same order, a piece left as it was being the
    same object and a fused one having identical vertex bytes. The merge
    runs once with no known refused pairs and once seeded with the
    carried ones, which the loop ignores. Adds each side's _convex_hull
    calls to hulls; returns the merged piece count."""
    before = hulls["calls"]
    got = geo.merge_pieces(pieces, tol)
    hulls["guarded"] += hulls["calls"] - before
    before = hulls["calls"]
    seeded = geo.merge_pieces(pieces, tol, set(carried))
    hulls["carried"] += hulls["calls"] - before
    before = hulls["calls"]
    want = oracles.merge_pieces_ref(pieces, tol)
    hulls["ref"] += hulls["calls"] - before
    for out in (got, seeded):
        assert len(out) == len(want)
        for g, w in zip(out, want):
            if any(w is p for p in pieces):
                assert g is w
            else:
                assert same(g, w.vertices)
    return len(want)


def count_hulls(monkeypatch) -> Counter:
    hulls = Counter()
    hull = geo._convex_hull

    def counted(points):
        hulls["calls"] += 1
        return hull(points)

    monkeypatch.setattr(geo, "_convex_hull", counted)
    return hulls


def rect6_start(seed):
    """Criterion 01's start: six uniform points' Voronoi partition of
    the 2x1 rectangle."""
    rng = np.random.default_rng(seed)
    return pt.voronoi(pt.rectangle(2.0, 1.0),
                      rng.uniform([0.1, 0.1], [1.9, 0.9], (6, 2)))


def exchange_runs():
    """The partitions along seeded rect6 AdjacentRandom runs of the full
    exchange, where most candidate hulls fuse nothing, then along a
    UniformRandom run of the distance-limited exchange at delta 0.2,
    whose moved cut lines leave slabs as netsim-strip's do: yields
    (full, partition) after each step."""
    dens, quad = geo.UniformDensity(), geo.quadratic_performance()
    for seed in (0, 1):
        part = rect6_start(seed)
        sched = sw.AdjacentRandom(seed, 1e-9)
        for t in range(150):
            i, j = sched.select(t, part)
            part = gp.gossip_step(part, i, j, dens, quad).partition
            yield True, part
    part = rect6_start(0)
    sched = sw.UniformRandom(part.n, 0)
    for t in range(150):
        i, j = sched.select(t, part)
        part = gp.partial_gossip_step(part, i, j, 0.2, dens, quad).partition
        yield False, part


def test_merge_fuses_as_the_unguarded_loop_along_exchanges(monkeypatch):
    # every piece list Environment.region hands the merge along
    # exchange_runs, with the refused pairs it carries over from the
    # regions the pieces were cut from
    inputs = []
    merge = geo.merge_pieces

    def recorded(pieces, tol, rejected=None):
        inputs.append((list(pieces), tol, frozenset(rejected or ())))
        return merge(pieces, tol, rejected)

    monkeypatch.setattr(geo, "merge_pieces", recorded)
    full = 0
    for in_full, _ in exchange_runs():
        if in_full:
            full = len(inputs)
    monkeypatch.setattr(geo, "merge_pieces", merge)
    hulls = count_hulls(monkeypatch)
    fused = whole = seeded = 0
    for pieces, tol, carried in inputs:
        n = check_merge(pieces, tol, hulls, carried)
        fused += n < len(pieces)
        whole += n == 1 and len(pieces) > 2
        seeded += bool(carried)
    assert full > 500 and len(inputs) - full > 100
    assert fused > 50 and whole > 0 and seeded > 100
    # a rejected pair is not tested again on a rescan, and a pair that
    # an earlier exchange refused is not tested again either
    assert 0 < hulls["guarded"] < hulls["ref"]
    assert 0 < hulls["carried"] < hulls["guarded"]


def test_carried_pairs_are_refused_pairs_of_their_region():
    # every pair a region carries holds two of its own pieces, and their
    # hull fails the merge's test at the region's tolerance
    carried = 0
    for _, part in exchange_runs():
        for r in part.regions:
            tol, pairs = r.refused
            assert not pairs or tol == part.env.tol_area
            for a, b in pairs:
                assert any(a is p for p in r.pieces)
                assert any(b is p for p in r.pieces)
                hull = geo._convex_hull(np.concatenate((a.vertices,
                                                        b.vertices)))
                s = a.area + b.area
                assert geo._ring_area(hull) > s + max(tol, 1e-12 * s)
                carried += 1
    assert carried > 1000


def test_carried_pairs_are_tested_again_under_a_larger_tolerance(
        monkeypatch):
    # a square and a quadrilateral on its right edge whose union misses
    # its hull by a triangle of area 1e-9
    a = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    b = ConvexPolygon([[1, 0], [2, 0], [2, 1 + 2e-9], [1, 1]])
    small, large = pt.rectangle(1.0, 0.5), pt.rectangle(2.0, 2.0)
    assert small.tol_area < 1e-9 < large.tol_area
    hulls = count_hulls(monkeypatch)
    refused = small.region([a, b])
    assert refused.pieces == (a, b) and refused.refused[1] == {(a, b)}
    assert hulls["calls"] == 1
    # at the same tolerance, or a smaller one, the verdict carries over
    for env in (small, pt.rectangle(0.5, 0.5)):
        again = env.region([a, b], (refused,))
        assert again.pieces == (a, b) and again.refused[1] == {(a, b)}
        assert hulls["calls"] == 1
    # at a larger tolerance the pair is tested again, and fuses
    fused = large.region([a, b], (refused,))
    assert hulls["calls"] == 2
    assert len(fused.pieces) == 1 and fused.refused[1] == frozenset()
    # the fused piece is the hull: the union and the missing triangle
    assert fused.pieces[0].area == pytest.approx(2.0 + 2e-9, abs=1e-15)


def split_groups(seed, count):
    """Pieces of seeded polygons cut by one to three lines, each through a
    vertex of the pieces so far but moved off it by 1e-15 to 1e-12 of
    the polygon's scale, in a shuffled order."""
    rng = np.random.default_rng(seed)
    while count:
        scale = 10.0 ** rng.uniform(-2, 2)
        pieces = [oracles.random_convex_polygon(
            rng, 9, center=rng.uniform(-5, 5, 2) * scale, scale=scale)]
        for _ in range(rng.integers(1, 4)):
            at = np.vstack([p.vertices for p in pieces])
            at = at[rng.integers(len(at))]
            n = rng.normal(size=2)
            nudge = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, -12)
            hp = HalfPlane(n, float(n @ at) + nudge * scale)
            pieces = [c for p in pieces for c in oracles.split_piece(p, hp)
                      if c is not None]
        if len(pieces) < 2:
            continue
        yield [pieces[k] for k in rng.permutation(len(pieces))]
        count -= 1


def test_merge_fuses_as_the_unguarded_loop_after_near_vertex_cuts(
        monkeypatch):
    hulls = count_hulls(monkeypatch)
    outcomes = Counter()
    for pieces in split_groups(28, 300):
        area = sum(p.area for p in pieces)
        # a whole polygon fuses back; with a piece left out the union may
        # be nonconvex and fuse in part or not at all
        for group in [pieces] + [pieces[1:]] * (len(pieces) > 2):
            for tol in (0.0, 1e-9 * area):
                n = check_merge(group, tol, hulls)
                outcomes["one" if n == 1 else
                         "some" if n < len(group) else "none"] += 1
    assert min(outcomes.values()) > 20
    assert hulls["guarded"] < hulls["ref"]


# ---------------------------------------------------------------------------
# seam test after the bounding boxes

def test_distance_below_matches_seam_test_then_piece_scan():
    # the answer before the box shortcut: a vertex both regions share
    # gives 0, else the piece-pair minimum below the threshold
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(19)
    part = pt.voronoi(env, rng.uniform([0.05, 0.05], [1.95, 0.95], (6, 2)))
    sched = sw.AdjacentRandom(19, 1e-9)
    dens, quad = geo.UniformDensity(), geo.quadratic_performance()
    apart = cell_only = 0
    for t in range(120):
        i, j = sched.select(t, part)
        part = gp.gossip_step(part, i, j, dens, quad).partition
        if t % 40:
            continue
        for i in range(part.n):
            for j in range(i + 1, part.n):
                pieces = part.regions[i].pieces, part.regions[j].pieces
                a, b = (Region(p) for p in pieces)
                exact = oracles.interior_distance_ref(a, b)
                if oracles.share_seam_cell_ref(a, b) and \
                        not oracles.share_seam_vertex_by_pieces(a, b):
                    # a grid cell shared without an exact vertex, which the
                    # old test answered 0: the regions are that close
                    cell = geo._vertex_cell(max(map(abs, a.bbox + b.bbox)))
                    assert exact <= cell
                    cell_only += 1
                for below in (1e-9, 1e-3, 0.5, math.inf):
                    a, b = (Region(p) for p in pieces)
                    want = 0.0 if oracles.share_seam_vertex_by_pieces(a, b) \
                        else min(exact, below)
                    got = geo._distance_below(a, b, below)
                    assert bits(got) == bits(want)
                    apart += geo._bbox_gap(a.bbox, b.bbox) >= below
    assert apart > 0  # the shortcut that answers `below` was taken
    assert cell_only > 0  # and pairs the two seam tests tell apart


def _distance_pairs():
    """Consecutive seeded multi-piece regions, then every ordered pair of
    rect6 regions along AdjacentRandom and RoundRobin runs."""
    for seed in (3, 5, 7):
        regions = list(oracles.seeded_multi_piece_regions(seed, 25))
        yield from zip(regions, regions[1:])
    dens, quad = geo.UniformDensity(), geo.quadratic_performance()
    for seed in (0, 1):
        for sched in (sw.AdjacentRandom(seed, 1e-9), sw.RoundRobin(6)):
            part = rect6_start(seed)
            for t in range(120):
                i, j = sched.select(t, part)
                part = gp.gossip_step(part, i, j, dens, quad).partition
                if t % 40 == 39:
                    for a in part.regions:
                        for b in part.regions:
                            if a is not b:
                                yield a, b


def test_distance_answers_are_pinned():
    # _distance_below at six thresholds, regions_within at the finite
    # ones and interior_distance, on fresh regions so that no memo
    # answers; the digest was taken on the piece-pair scan that
    # oracles.interior_distance_ref keeps
    answers = zeros = 0
    digest = hashlib.sha256()
    for a, b in _distance_pairs():
        def fresh():
            return Region(a.pieces), Region(b.pieces)

        got = [geo.interior_distance(*fresh())]
        for below in (math.inf, 1.0, 0.2, 0.05, 1e-3, 1e-9):
            got.append(geo._distance_below(*fresh(), below))
            if below < math.inf:
                got.append(float(geo.regions_within(*fresh(), below)))
        answers += len(got)
        zeros += got.count(0.0)
        digest.update(b"".join(map(bits, got)))
    assert (answers, zeros) == (5184, 2568)
    assert digest.hexdigest() == (
        "152bfa022e03097eff658aabf9d34f268977d625dff518e8f8ed063640d91f61")
