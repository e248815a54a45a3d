import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import partition as pt
from gossipcover import switching as sw
from gossipcover.partition import environment, rectangle
from gossipcover.geometry import (ConvexPolygon, HalfPlane, Region,
                                  bisector_halfplane, convex_intersect, interior_distance,
                                  intersection_area, merge_pieces, region_of,
                                  symdiff_area)

UNIT_SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])


def square(x0, y0, side):
    return ConvexPolygon([[x0, y0], [x0 + side, y0],
                          [x0 + side, y0 + side], [x0, y0 + side]])


# ---------------------------------------------------------------------------
# primitives

def test_halfplane_normalizes_and_signs():
    hp = HalfPlane((3.0, 0.0), 6.0)
    assert np.allclose(hp.normal, [1.0, 0.0])
    assert hp.offset == 2.0
    assert np.array([1.5, 7.0]) @ hp.normal - hp.offset <= 0.0
    assert not np.array([2.5, 0.0]) @ hp.normal - hp.offset <= 0.0
    flipped = oracles.flipped(hp)
    assert np.array([2.5, 0.0]) @ flipped.normal - flipped.offset <= 0.0
    assert float(np.array([3.0, 0.0]) @ hp.normal - hp.offset) == \
        pytest.approx(1.0)


def test_bisector_is_equidistant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q = rng.random(2), rng.random(2)
        if np.hypot(*(p - q)) < 1e-3:
            continue
        hp = bisector_halfplane(p, q)
        mid = 0.5 * (p + q)
        assert abs(float(mid @ hp.normal - hp.offset)) < 1e-12
        assert p @ hp.normal - hp.offset <= 0.0
        assert not q @ hp.normal - hp.offset <= 0.0


def test_bisector_rejects_coincident():
    with pytest.raises(geo.CoincidentPoints):
        bisector_halfplane([0.3, 0.3], [0.3, 0.3])


def test_polygon_orientation_and_area():
    cw = ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])
    assert cw.area == pytest.approx(1.0)
    tri = ConvexPolygon([[0, 0], [2, 0], [0, 2]])
    assert tri.area == pytest.approx(2.0)
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0], [1, 1], [0.2, -0.5]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polygon_refuses_non_finite_vertices(bad):
    # its own reason, not the dedupe's "at least 3 distinct vertices"
    for k in range(4):
        ring = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]
        ring[k][k % 2] = bad
        with pytest.raises(ValueError, match="^polygon vertices must be "
                                             "finite$"):
            ConvexPolygon(ring)


def test_polygon_contains_boundary_tol():
    assert bool(UNIT_SQUARE.contains([0.5, 0.5])[0])
    assert bool(UNIT_SQUARE.contains([0.0, 0.5])[0])
    assert not bool(UNIT_SQUARE.contains([-1e-6, 0.5])[0])
    assert bool(UNIT_SQUARE.contains([-1e-6, 0.5], tol=1e-5)[0])
    assert not bool(UNIT_SQUARE.contains([0.5, 0.5], tol=-0.6)[0])


# ---------------------------------------------------------------------------
# clipping and splitting

def clip(poly, hp, snap=0.0):
    """The part of poly inside hp, as every clip in the package takes it."""
    return geo.clip(poly, [hp], snap)


def test_clip_square_halves():
    hp = HalfPlane((1.0, 0.0), 0.5)
    left = clip(UNIT_SQUARE, hp)
    assert left.area == pytest.approx(0.5)
    right = clip(UNIT_SQUARE, oracles.flipped(hp))
    assert right.area == pytest.approx(0.5)


def test_clip_miss_and_cover():
    assert clip(UNIT_SQUARE, HalfPlane((1.0, 0.0), -0.2)) is None
    full = clip(UNIT_SQUARE, HalfPlane((1.0, 0.0), 4.0))
    assert full.area == pytest.approx(1.0)
    assert full is UNIT_SQUARE


def test_clip_takes_half_planes_in_turn_and_stops_when_empty():
    hps = [HalfPlane((1.0, 0.0), 0.5), HalfPlane((0.0, 1.0), 0.25)]
    assert geo.clip(UNIT_SQUARE, hps).area == pytest.approx(0.125)
    assert geo.clip(UNIT_SQUARE, []) is UNIT_SQUARE

    def drawn():
        yield HalfPlane((1.0, 0.0), -0.2)
        raise AssertionError("a half-plane was drawn past an empty clip")

    assert geo.clip(UNIT_SQUARE, drawn()) is None


def test_clip_own_edge_is_identity():
    # clipping along an existing edge must not shave slivers
    poly = ConvexPolygon([[0, 0], [2, 0], [2.7, 1.3], [1, 2]])
    v = poly.vertices
    for k in range(len(v)):
        a, b = v[k], v[(k + 1) % len(v)]
        e = b - a
        n = np.array([e[1], -e[0]])  # outward for ccw rings
        n = n / np.hypot(*n)
        hp = HalfPlane(n, float(n @ a))
        out = clip(poly, hp, snap=1e-12 * 3.0)
        assert out is not None
        assert out.area == pytest.approx(poly.area, rel=0, abs=1e-12)


def test_split_conserves_area_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        poly = oracles.random_convex_polygon(rng, 10, scale=2.0)
        n = rng.normal(size=2)
        hp = HalfPlane(n, float(n @ (rng.random(2) - 0.5)))
        ins, outs = oracles.split_piece(poly, hp, snap=1e-12 * 2.0)
        total = (ins.area if ins else 0.0) + (outs.area if outs else 0.0)
        assert total == pytest.approx(poly.area, rel=1e-12, abs=1e-14)
        if ins is not None:
            assert np.all(ins.vertices @ hp.normal - hp.offset <= 1e-9)
        if outs is not None:
            assert np.all(outs.vertices @ hp.normal - hp.offset >= -1e-9)


def test_split_shares_seam_vertices():
    hp = HalfPlane((1.0, 0.0), 0.4)
    ins, outs = oracles.split_piece(UNIT_SQUARE, hp)
    seam_in = {tuple(v) for v in ins.vertices if abs(v[0] - 0.4) < 1e-12}
    seam_out = {tuple(v) for v in outs.vertices if abs(v[0] - 0.4) < 1e-12}
    assert seam_in == seam_out and len(seam_in) == 2


def test_cut_pieces_keep_their_measured_ring():
    # a split or a merge hands its polygons the deduplicated ring and the
    # area it measured; neither may differ from measuring the polygon
    # afresh
    rng = np.random.default_rng(5)
    pieces, merged = [], []
    for _ in range(150):
        poly = oracles.random_convex_polygon(rng, 9, scale=2.0)
        n = rng.normal(size=2)
        # through a vertex, nudged by less than the dedupe tolerance, or
        # through a random point
        anchor = poly.vertices[rng.integers(len(poly.vertices))] \
            if rng.random() < 0.5 else rng.random(2) - 0.5
        hp = HalfPlane(n, float(n @ anchor) + 1e-14 * rng.normal())
        halves = [p for p in oracles.split_piece(poly, hp, snap=1e-15)
                  if p is not None]
        pieces += halves
        if len(halves) == 2:
            # two pieces fuse pairwise, three through the whole-set hull
            thirds = [p for p in oracles.split_piece(halves[0], HalfPlane(
                rng.normal(size=2), 0.0), snap=1e-15) if p is not None]
            for group in (halves, thirds + halves[1:]):
                merged += [m for m in merge_pieces(group, 1e-9)
                           if all(m is not p for p in group)]
    assert len(pieces) > 200 and len(merged) > 100
    for p in pieces + merged:
        assert not p.vertices.flags.writeable
        assert np.array_equal(geo._dedupe_ring(p.vertices), p.vertices)
        assert p.area == geo._ring_area(p.vertices)
        fresh = ConvexPolygon(p.vertices)
        assert fresh.vertices.tobytes() == p.vertices.tobytes()
        assert fresh.area == p.area


def test_region_split_multi_piece():
    region = region_of([[0, 0], [1, 0], [1, 1], [0, 1]],
                       [[2, 0], [3, 0], [3, 1], [2, 1]])
    ins, outs = geo.region_split(region, HalfPlane((1.0, 0.0), 2.5))
    assert sum(p.area for p in ins) == pytest.approx(1.5)
    assert sum(p.area for p in outs) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# boolean area queries against the sampling oracles

def test_convex_intersect_matches_grid():
    rng = np.random.default_rng(23)
    for _ in range(40):
        a = oracles.random_convex_polygon(rng, 8, scale=1.6)
        b = oracles.random_convex_polygon(rng, 8, center=(0.2, -0.1),
                                          scale=1.6)
        inter = convex_intersect(a, b)
        exact = inter.area if inter is not None else 0.0
        approx = oracles.intersection_by_grid(Region((a,)), Region((b,)),
                                              40_000, rng)
        assert exact == pytest.approx(approx, abs=4e-3)


def test_intersection_area_self_is_area():
    rng = np.random.default_rng(5)
    for _ in range(30):
        poly = oracles.random_convex_polygon(rng, 9, scale=2.0)
        hp = HalfPlane(rng.normal(size=2), 0.1)
        ins, outs = oracles.split_piece(poly, hp)
        pieces = tuple(p for p in (ins, outs) if p is not None)
        region = Region(pieces)
        assert intersection_area(region, region) == pytest.approx(
            region.area, rel=1e-11)


def test_symdiff_matches_grid():
    rng = np.random.default_rng(31)
    for _ in range(30):
        a = Region((oracles.random_convex_polygon(rng, 8, scale=1.5),))
        b = Region((oracles.random_convex_polygon(rng, 8, scale=1.5),))
        exact = symdiff_area(a, b)
        approx = oracles.symdiff_by_grid(a, b, 40_000, rng)
        assert exact == pytest.approx(approx, abs=5e-3)
    assert symdiff_area(a, a) == pytest.approx(0.0, abs=1e-12)


def test_symdiff_metric_axioms_spotcheck():
    a = Region((square(0, 0, 1),))
    b = Region((square(0.5, 0, 1),))
    c = Region((square(1.0, 0, 1),))
    assert symdiff_area(a, b) == pytest.approx(1.0)
    assert symdiff_area(a, b) == pytest.approx(symdiff_area(b, a))
    assert symdiff_area(a, c) <= symdiff_area(a, b) + symdiff_area(b, c) + 1e-12


# ---------------------------------------------------------------------------
# piece management

def test_merge_pieces_rejoins_split():
    rng = np.random.default_rng(43)
    for _ in range(60):
        poly = oracles.random_convex_polygon(rng, 9, scale=2.0)
        n = rng.normal(size=2)
        hp = HalfPlane(n, float(n @ (rng.random(2) - 0.5)))
        ins, outs = oracles.split_piece(poly, hp, snap=2e-12)
        if ins is None or outs is None:
            continue
        merged = merge_pieces([ins, outs], tol=1e-9)
        assert len(merged) == 1
        assert merged[0].area == pytest.approx(poly.area, rel=1e-9)


def test_merge_keeps_genuinely_separate():
    merged = merge_pieces([square(0, 0, 1), square(2, 0, 1)], tol=1e-9)
    assert len(merged) == 2
    # an L of two squares shares a full edge but the union is not convex
    merged = merge_pieces([square(0, 0, 1), square(1, 0, 1),
                           square(0, 1, 1)], tol=1e-9)
    assert sum(p.area for p in merged) == pytest.approx(3.0)
    assert all(_is_convex(p) for p in merged)


def test_merge_refuses_a_hull_with_no_area():
    # a region's pieces a thousand units from the origin: the hull of the
    # two slivers rounds to area 0, which passes the area test but makes
    # no polygon, so the merge raises instead of keeping a None piece
    pieces = [ConvexPolygon(v) for v in (
        [[1000.0, 1000.0], [1000.640417919185, 1000.0],
         [1000.6405000982655, 1000.4800271391169],
         [1000.6404996646729, 1000.4800304886321],
         [1000.0, 1000.5243139316643]],
        [[1000.6405000988339, 1000.4800304586147],
         [1000.6405000979361, 1000.4800252145794],
         [1000.6405041342254, 1000.4800301796122]],
        [[1000.6405041342252, 1000.4800301796122],
         [1000.6405000979361, 1000.4800252145794],
         [1000.6405000958341, 1000.4800129365958],
         [1000.6405135820177, 1000.4800295264022]])]
    with pytest.raises(geo.GeometryError, match="fused hull"):
        merge_pieces(pieces, 2e-09)


def _is_convex(poly):
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    cr = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    return bool(np.all(cr >= -1e-9))


def test_piece_budget_enforced():
    env = rectangle(600.0, 1.0)
    # unit squares one apart: neither a pair nor the whole set is convex
    pieces = [square(2.0 * i, 0, 1) for i in range(env.piece_budget + 1)]
    with pytest.raises(geo.PieceBudgetExceeded):
        env.region(pieces)
    region = env.region(pieces[:-1])
    assert len(region.pieces) == env.piece_budget


def test_environment_region_drops_slivers():
    env = rectangle(10.0, 10.0)
    # area 5e-12, below the sliver area 1e-11
    sliver = ConvexPolygon([[0, 2], [1, 2], [1, 2 + 1e-11]])
    assert sliver.area < env.sliver_area
    region = env.region([square(0, 0, 1), sliver])
    assert len(region.pieces) == 1


# ---------------------------------------------------------------------------
# distances

def test_interior_distance_cases():
    a = Region((square(0, 0, 1),))
    b = Region((square(1, 0, 1),))      # shares an edge
    c = Region((square(2, 0, 1),))      # gap of 1
    d = Region((square(0.5, 0.5, 1),))  # overlaps a
    assert interior_distance(a, b) == pytest.approx(0.0, abs=1e-12)
    assert interior_distance(a, c) == pytest.approx(1.0)
    assert interior_distance(a, d) == 0.0
    assert interior_distance(a, a) == 0.0


def test_interior_distance_holds_partner_weakly():
    a = Region((square(0, 0, 1),))
    b = Region((square(2, 0, 1),))
    assert interior_distance(a, b) == pytest.approx(1.0)
    assert interior_distance(b, a) == pytest.approx(1.0)
    gone = weakref.ref(b)
    del b
    gc.collect()
    assert gone() is None


def test_regions_within_t_junction():
    # region b's two pieces meet at (2, 1) in the middle of a's right
    # edge: the regions touch along a segment but share no vertex
    a = Region((ConvexPolygon([[0, -1], [2, -1], [2, 3], [0, 3]]),))
    b = region_of([[2, 0], [3, 0], [3, 1], [2, 1]],
                  [[2, 1], [3, 1], [3, 2], [2, 2]])
    assert not geo._share_seam_vertex(a, b)
    assert geo.regions_within(a, b, 1e-9)
    assert interior_distance(Region(a.pieces), Region(b.pieces)) == 0.0


def test_regions_within_gap_equal_to_delta():
    def pair():
        return Region((square(0, 0, 1),)), Region((square(1.5, 0, 1),))

    a, c = pair()
    assert interior_distance(a, c) == 0.5
    assert not geo.regions_within(*pair(), 0.5)
    assert geo.regions_within(*pair(), math.nextafter(0.5, 1.0))
    assert not geo.regions_within(*pair(), math.nextafter(0.5, 0.0))

    # bounding boxes 0.5 apart, polygons farther: the gap that decides
    # is the piece distance itself
    def diagonal():
        return (Region((square(0, 0, 1),)),
                region_of([[1.5, 3], [3, 1.5], [3, 3]]))

    gap = interior_distance(*diagonal())
    assert gap > 1.0
    assert not geo.regions_within(*diagonal(), gap)
    assert geo.regions_within(*diagonal(), math.nextafter(gap, 2.0))


def test_regions_within_shared_vertex_skips_piece_distances(monkeypatch):
    def refuse(a, b):
        raise AssertionError("distance computed past the shared vertex")

    monkeypatch.setattr(geo, "_vertex_edge_distance", refuse)
    monkeypatch.setattr(geo, "_pieces_meet", refuse)
    # corner contact only: one shared vertex
    a = Region((square(0, 0, 1),))
    b = Region((square(1, 1, 1),))
    assert geo.regions_within(a, b, 1e-9)


def test_regions_within_answers_from_exact_distance(monkeypatch):
    a = Region((square(0, 0, 1),))
    c = Region((square(1.5, 0, 1),))
    assert interior_distance(a, c) == 0.5
    assert interior_distance(c, a) == 0.5
    assert geo.regions_within(a, c, 0.75)
    assert not geo.regions_within(c, a, 0.5)
    # boxes at least the threshold apart answer without a distance pass
    # or a contact test
    monkeypatch.setattr(geo, "_vertex_edge_distance", None)
    monkeypatch.setattr(geo, "_pieces_meet", None)
    assert not geo.regions_within(c, a, 0.25)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, None])
def test_regions_within_refuses_a_bad_delta(delta):
    # touching squares: no answer to such a delta would be True
    a, b = Region((square(0, 0, 1),)), Region((square(1, 0, 1),))
    with pytest.raises(ValueError):
        geo.regions_within(a, b, delta)


def test_regions_within_holds_partner_weakly():
    a = Region((square(0, 0, 1),))
    b = Region((square(2, 0, 1),))
    assert not geo.regions_within(a, b, 0.5)
    assert geo.regions_within(b, a, 1.5)
    gone = weakref.ref(b)
    del b
    gc.collect()
    assert gone() is None


def test_regions_within_keys_answers_by_delta(monkeypatch):
    a = Region((square(0, 0, 1),))
    c = Region((square(1.5, 0, 1),))
    assert geo._distance_below(a, c, 0.25) == 0.25
    # a gap at or above the threshold answers the threshold from the
    # bounding boxes, without a distance pass or a contact test
    with monkeypatch.context() as m:
        m.setattr(geo, "_vertex_edge_distance", None)
        m.setattr(geo, "_pieces_meet", None)
        assert not geo.regions_within(a, c, 0.25)
        assert not geo.regions_within(c, a, 0.1)
    # a larger threshold runs the pass, whatever was asked before
    assert geo.regions_within(c, a, 1.0)
    assert geo._distance_below(a, c, 1.0) == 0.5
    assert not geo.regions_within(a, c, 0.5)


@pytest.mark.parametrize("a, b", [
    # two thin triangles crossing as an X: no vertex of one lies in the
    # other, and every vertex is far from the other's edges
    (region_of([[-5, -0.2], [5, 0], [-5, 0.2]]),
     region_of([[-0.2, -5], [0.2, -5], [0, 5]])),
    # [0,3]x[1,2] across [1,2]x[0,3]: every vertex 1 from the other's edges
    (region_of([[0, 1], [3, 1], [3, 2], [0, 2]]),
     region_of([[1, 0], [2, 0], [2, 3], [1, 3]])),
    # a piece strictly inside another
    (Region((square(0, 0, 4),)), Region((square(1, 1, 1),))),
], ids=["crossing", "crossing-rectangles", "nested"])
def test_pieces_that_meet_are_at_distance_zero(a, b, monkeypatch):
    assert geo._vertex_edge_distance(a, b) > 0.5
    assert not geo._share_seam_vertex(a, b)
    assert oracles.interior_distance_ref(a, b) == 0.0
    met = []
    meet = geo._pieces_meet
    monkeypatch.setattr(geo, "_pieces_meet",
                        lambda *ab: met.append(ab) or meet(*ab))
    for x, y in ((a, b), (b, a)):
        assert interior_distance(x, y) == 0.0
        for below in (1e-9, 1e-3, 0.5):
            assert geo._distance_below(x, y, below) == 0.0
            assert geo.regions_within(x, y, below)
    # the contact test gave every zero
    assert len(met) == 2 * (1 + 3 * 2)


def contact_pairs(seed, count):
    """Seeded multi-piece region pairs of four kinds: two random unions,
    which mostly overlap; a union against two stacked rectangles whose
    left edge holds the union's rightmost vertex, a T-junction, and the
    same rectangles 1e-9 clear of it; the union's point reflection
    through that vertex, which meets it there alone; and a copy moved
    clear of its box."""
    rng = np.random.default_rng(seed)
    regions = oracles.seeded_multi_piece_regions(seed, 2 * count)
    for a, b in zip(regions, regions):
        yield "overlap", a, b
        vx, vy = max(map(tuple, a.vertices.tolist()))
        w, lo, hi = rng.uniform(0.2, 1.0, 3)
        mid = vy + rng.uniform(-0.8, 0.8) * min(lo, hi)
        for kind, x0 in (("t-junction", vx), ("gap", vx + 1e-9)):
            x1 = x0 + w
            yield kind, a, region_of(
                [[x0, vy - lo], [x1, vy - lo], [x1, mid], [x0, mid]],
                [[x0, mid], [x1, mid], [x1, vy + hi], [x0, vy + hi]])
        yield "shared vertex", a, Region(tuple(
            ConvexPolygon(2.0 * np.array([vx, vy]) - p.vertices)
            for p in a.pieces))
        x0, y0, x1, y1 = a.bbox
        shift = (np.array([x1 - x0, y1 - y0]) * rng.uniform(1.01, 2.0, 2)
                 * rng.choice([-1.0, 1.0], 2))
        yield "box apart", a, Region(tuple(
            ConvexPolygon(p.vertices + shift) for p in a.pieces))


def test_stacked_contact_test_equals_the_piece_pair_loop():
    # the contact test runs over both regions' stacked vertices and
    # edges, with no piece box prune: it answers as the loop over piece
    # pairs. A reflection's edges on a cut line through the vertex lie
    # far apart on one line, where the orientation signs alone can round
    # to a crossing; the segment boxes keep them apart
    met = Counter()
    for seed in range(4):
        for kind, a, b in contact_pairs(seed, 10):
            for x, y in ((a, b), (b, a)):
                want = oracles.pieces_meet_ref(x, y)
                assert geo._pieces_meet(x, y) is want
                met[kind, want] += 1
    assert met["overlap", True] and met["t-junction", True]
    assert met["t-junction", False] and met["shared vertex", False]
    assert met["gap", False] == met["box apart", False] == 80


def test_interior_distance_never_returns_a_cached_bound():
    a = Region((square(0, 0, 1),))
    c = Region((square(1.5, 0, 1),))
    assert not geo.regions_within(a, c, 0.25)
    assert interior_distance(a, c) == 0.5
    assert interior_distance(c, a) == 0.5


def test_region_vertices_stacked_once_and_read_only():
    r = region_of([[0, 0], [1, 0], [1, 1], [0, 1]],
                  [[1, 0], [2, 0], [2, 1]])
    assert r.vertices is r.vertices
    assert np.array_equal(r.vertices, np.vstack([p.vertices
                                                 for p in r.pieces]))
    with pytest.raises(ValueError):
        r.vertices[0, 0] = 5.0
    assert Region(()).vertices.shape == (0, 2)


def test_interior_distance_matches_sampling():
    rng = np.random.default_rng(67)
    for _ in range(40):
        a = Region((oracles.random_convex_polygon(rng, 7, scale=1.0),))
        off = 1.0 + 2.0 * rng.random(2)
        b = Region((oracles.random_convex_polygon(rng, 7, center=off,
                                                  scale=1.0),))
        exact = interior_distance(a, b)
        approx = oracles.interior_distance_by_sampling(a, b)
        # boundary sampling only overestimates the true gap
        assert exact <= approx + 1e-9
        assert approx - exact <= 0.08


def test_hausdorff_known_values():
    a = Region((square(0, 0, 1),))
    b = Region((square(0.25, 0, 1),))
    assert geo.hausdorff_distance(a, b) == pytest.approx(0.25, abs=1e-9)
    big = Region((square(0, 0, 2),))
    small = Region((square(0.5, 0.5, 1),))
    # farthest point of the big square from the small one is a corner
    assert geo.hausdorff_distance(big, small) == pytest.approx(
        math.sqrt(0.5), abs=1e-9)


def test_hausdorff_matches_sampling():
    rng = np.random.default_rng(71)
    for _ in range(25):
        a = Region((oracles.random_convex_polygon(rng, 8, scale=1.4),))
        b = Region((oracles.random_convex_polygon(rng, 8, scale=1.4),))
        mine = geo.hausdorff_distance(a, b)
        ref = oracles.hausdorff_by_sampling(a, b)
        assert mine == pytest.approx(ref, abs=2e-2)


def test_diameter():
    assert geo.diameter(UNIT_SQUARE) == pytest.approx(math.sqrt(2.0))
    region = region_of([[0, 0], [1, 0], [1, 1], [0, 1]],
                       [[4, 0], [5, 0], [5, 1], [4, 1]])
    assert geo.diameter(region) == pytest.approx(math.hypot(5.0, 1.0))


# ---------------------------------------------------------------------------
# densities, performance functions, integration

def test_uniform_density_integrates_to_area():
    region = Region((UNIT_SQUARE,))
    dens = geo.UniformDensity(2.5)
    mass = geo.integrate(region, dens, lambda q: np.ones(len(q)))
    assert mass == pytest.approx(2.5)
    assert oracles.sup_norm(dens) == 2.5


def test_grid_density_interpolates():
    dens = geo.GridDensity(0.0, 0.0, 1.0, 1.0, [[1.0, 3.0], [1.0, 3.0]])
    pts = np.array([[0.0, 0.5], [1.0, 0.5], [0.5, 0.5]])
    assert np.allclose(dens(pts), [1.0, 3.0, 2.0])
    with pytest.raises(ValueError):
        geo.GridDensity(0, 0, 1, 1, [[1.0, -2.0], [1.0, 1.0]])


def test_equal_densities_compare_and_hash_equal():
    # densities are values: equal ones are one memo key, whatever number
    # types built them, and the grid keeps its samples as given
    assert geo.UniformDensity() == geo.UniformDensity(1)
    assert hash(geo.UniformDensity()) == hash(geo.UniformDensity(1))
    assert geo.UniformDensity(2.0) != geo.UniformDensity()
    a = geo.GridDensity(0, 0, 2, 1, [[1, 3], [2, 0.5]])
    b = geo.GridDensity(0.0, 0.0, 2.0, 1.0, ((1.0, 3.0), (2.0, 0.5)))
    assert a == b and hash(a) == hash(b)
    assert a.values == ((1.0, 3.0), (2.0, 0.5)) and oracles.sup_norm(a) == 3.0
    assert a != geo.GridDensity(0, 0, 2, 1, [[1, 3], [2, 0.25]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_densities_refuse_non_finite_numbers(bad):
    with pytest.raises(ValueError, match="finite"):
        geo.UniformDensity(bad)
    with pytest.raises(ValueError, match="finite"):
        geo.GridDensity(0, 0, 1, 1, [[1.0, bad], [1.0, 1.0]])
    for k in range(4):
        extent = [0.0, 0.0, 1.0, 1.0]
        extent[k] = bad
        with pytest.raises(ValueError, match="finite"):
            geo.GridDensity(*extent, [[1.0, 1.0], [1.0, 1.0]])


def test_quadrature_matches_analytic_moments():
    region = Region((UNIT_SQUARE,))
    dens = geo.UniformDensity()
    val = geo.integrate(region, dens, lambda q: q[:, 0] ** 2 * q[:, 1])
    assert val == pytest.approx(1.0 / 6.0, abs=1e-12)
    c = geo.mass_centroid(region, dens)
    assert np.allclose(c, [0.5, 0.5], atol=1e-12)


def test_mass_centroid_grid_density_shifts():
    dens = geo.GridDensity(0.0, 0.0, 1.0, 1.0, [[1.0, 4.0], [1.0, 4.0]])
    c = geo.mass_centroid(Region((UNIT_SQUARE,)), dens)
    assert c[0] > 0.55 and abs(c[1] - 0.5) < 1e-9


def test_one_center_cost_matches_grid():
    rng = np.random.default_rng(83)
    region = Region((oracles.random_convex_polygon(rng, 8, scale=2.0),))
    dens = geo.UniformDensity()
    for perf in (geo.quadratic_performance(), geo.linear_performance()):
        for _ in range(5):
            p = rng.random(2) - 0.5
            exact = geo.one_center_cost(p, region, dens, perf)
            approx = oracles.cost_by_grid(p, region, dens, perf, 60_000, rng)
            assert exact == pytest.approx(approx, rel=2e-2)


def test_quadratic_centroid_is_mass_centroid():
    rng = np.random.default_rng(89)
    dens = geo.UniformDensity()
    perf = geo.quadratic_performance()
    for _ in range(10):
        region = Region((oracles.random_convex_polygon(rng, 8, scale=1.5),))
        c = geo.centroid(region, dens, perf,
                         scale=geo.diameter(UNIT_SQUARE))
        assert np.allclose(c, geo.mass_centroid(region, dens), atol=1e-9)


def test_linear_centroid_minimizes():
    # median point beats nearby competitors for f(x) = x
    rng = np.random.default_rng(97)
    dens = geo.UniformDensity()
    perf = geo.linear_performance()
    domain = ConvexPolygon([[-2, -2], [3, -2], [3, 3], [-2, 3]])
    for _ in range(5):
        region = Region((oracles.random_convex_polygon(rng, 7, scale=1.8),))
        c = geo.centroid(region, dens, perf, scale=geo.diameter(domain))
        base = geo.one_center_cost(c, region, dens, perf)
        for _ in range(12):
            q = c + 0.05 * rng.normal(size=2)
            assert geo.one_center_cost(q, region, dens, perf) >= base - 1e-7


@pytest.mark.parametrize("kind, refine", [
    ("cubic", 1), ("Quadratic", 1), ("linear", 0), ("linear", 2.5),
    ("quadratic", True), ("linear", -1)])
def test_performance_refuses_unknown_kind_and_bad_refine(kind, refine):
    with pytest.raises(ValueError):
        geo.PerformanceFunction(kind, refine)


def test_equal_performances_compare_and_hash_equal():
    a, b = geo.quadratic_performance(), geo.quadratic_performance()
    assert a == b and hash(a) == hash(b)
    assert a != geo.linear_performance()
    finer = dataclasses.replace(geo.linear_performance(), refine=3)
    assert finer == geo.PerformanceFunction("linear", 3) != \
        geo.linear_performance()


def test_grid_hash_does_not_read_the_samples():
    # the hash is computed once, at construction, so a memo lookup does
    # not walk every sample: swapping in an unhashable list leaves it
    grid = geo.GridDensity(0, 0, 2, 1, [[1, 3], [2, 0.5]])
    h = hash(grid)
    object.__setattr__(grid, "values", [[1.0, 3.0], [2.0, 0.5]])
    assert hash(grid) == h


def test_replaced_performance_hashes_as_a_fresh_one():
    finer = dataclasses.replace(geo.linear_performance(), refine=3)
    assert hash(finer) == hash(geo.PerformanceFunction("linear", 3))


_MEMO_KEYS = ("(geo.quadratic_performance(), geo.UniformDensity(2.5), "
              "geo.GridDensity(0, 0, 2, 1, [[1, 3], [2, 0.5]]))")
_DUMP = f"""
import pickle, sys
from gossipcover import geometry as geo
with open(sys.argv[1], "wb") as f:
    pickle.dump({_MEMO_KEYS}, f)
"""
_LOAD = f"""
import pickle, sys
from gossipcover import geometry as geo, partition as pt
with open(sys.argv[1], "rb") as f:
    loaded = pickle.load(f)
fresh = {_MEMO_KEYS}
for got, want in zip(loaded, fresh):
    assert got == want and hash(got) == hash(want), got
perf, uniform, grid = loaded
part = pt.voronoi(pt.rectangle(2.0, 1.0), [[0.5, 0.5], [1.5, 0.5]])
pt.centroids(part, fresh[1], fresh[0])
pt.centroids(part, fresh[2], fresh[0])
cache, poly = part.regions[0].centroid_cache, part.env.polygon
assert (uniform, perf, poly) in cache and (grid, perf, poly) in cache
print("ok")
"""


def test_memo_keys_hash_alike_across_processes(tmp_path):
    # str hashes are salted per process: a density or cost pickled in one
    # process must hash, in another, as that process's own copy does, or
    # it misses every memo entry keyed on that copy
    src = str(Path(geo.__file__).resolve().parents[1])
    path = str(tmp_path / "keys.pickle")
    for seed, code in ((1, _DUMP), (2, _LOAD)):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code, path], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"


# ---------------------------------------------------------------------------
# linear-cost centroids over one quadrature point set

# three convex pieces tiling an irregular hexagon-like region
MULTI_PIECE = region_of([[0.0, 0.0], [1.0, 0.0], [1.2, 0.6], [0.3, 0.9]],
                        [[1.0, 0.0], [2.0, 0.0], [2.0, 0.4], [1.2, 0.6]],
                        [[0.3, 0.9], [1.2, 0.6], [0.9, 1.3]])
MULTI_WITHIN = ConvexPolygon([[0, 0], [2, 0], [2, 1.5], [0, 1.5]])
MULTI_GRID = geo.GridDensity(0.0, 0.0, 2.0, 1.5,
                             [[1.0, 2.0, 0.5], [3.0, 1.0, 2.0]])


@pytest.mark.parametrize("dens, expected", [
    (geo.UniformDensity(), [0.8625724442598369, 0.4420946663780301]),
    (MULTI_GRID, [0.8135882554705047, 0.4473795400944238]),
])
def test_linear_centroid_of_multi_piece_region_is_pinned(dens, expected):
    # recorded values: reusing one point set must not move a single digit
    c = geo.centroid(MULTI_PIECE, dens, geo.linear_performance(),
                     scale=geo.diameter(MULTI_WITHIN))
    assert c == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dens", [geo.UniformDensity(), MULTI_GRID])
def test_linear_centroid_beats_nearby_points(dens):
    perf = geo.linear_performance()
    c = geo.centroid(MULTI_PIECE, dens, perf,
                     scale=geo.diameter(MULTI_WITHIN))
    base = geo.one_center_cost(c, MULTI_PIECE, dens, perf)
    for angle in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        for radius in (1e-3, 1e-2):
            q = c + radius * np.array([math.cos(angle), math.sin(angle)])
            assert bool(MULTI_WITHIN.contains(q)[0])
            assert geo.one_center_cost(q, MULTI_PIECE, dens, perf) >= base


@pytest.mark.parametrize("dens", [
    geo.UniformDensity(),
    geo.GridDensity(-1.0, -1.0, 1.0, 1.0, [[1.0, 5.0], [0.2, 2.0]])])
def test_linear_centroid_lies_in_the_region_hull(dens):
    # a convex increasing cost keeps its minimizer in the hull of the
    # region, whatever the descent's scale
    perf = geo.linear_performance()
    for region in oracles.seeded_multi_piece_regions(103, 12):
        diam = geo.diameter(region)
        for scale in (None, 4.0 * diam):
            c = geo.centroid(region, dens, perf, scale=scale)
            assert oracles.in_convex_hull(c, region, 1e-9 * diam)


@pytest.mark.parametrize("value", [1.0, 2.5])
def test_quadratic_cost_matches_exact_moments(value):
    # the closed form against rational moments of the same float
    # vertices: at the centroid, near it and far from it
    dens = geo.UniformDensity(value)
    perf = geo.quadratic_performance()
    rng = np.random.default_rng(107)
    for region in oracles.seeded_multi_piece_regions(107, 12):
        c = geo.mass_centroid(region, dens)
        diam = geo.diameter(region)
        for p in (c, c + 0.1 * diam * rng.normal(size=2),
                  c + 10.0 * diam * rng.normal(size=2)):
            got = geo.one_center_cost(p, region, dens, perf)
            want = oracles.cost_exact(p, region, value)
            assert type(got) is float
            assert abs(Fraction(got) - want) <= 1e-13 * want


def test_quadratic_centroid_cost_matches_exact_h():
    # H of fragmented partitions, every region served from its centroid
    env = rectangle(2.0, 1.0)
    rng = np.random.default_rng(109)
    part = pt.voronoi(env, rng.uniform([0.1, 0.1], [1.9, 0.9], (6, 2)))
    dens = geo.UniformDensity(2.5)
    perf = geo.quadratic_performance()
    sched = sw.AdjacentRandom(109, 1e-9)
    for t in range(120):
        if t % 40 == 0:
            want = oracles.h_exact(part, 2.5)
            got = pt.centroid_cost(part, dens, perf)
            assert abs(Fraction(got) - want) <= 1e-13 * want
        part = gp.gossip_step(part, *sched.select(t, part), dens,
                              perf).partition
    assert max(len(r.pieces) for r in part.regions) > 3


def test_contains_with_cached_edges_matches_fresh_polygons():
    rng = np.random.default_rng(101)
    verts = oracles.random_convex_polygon(rng, 9, scale=1.0).vertices
    pts = rng.uniform(-1.2, 1.2, size=(400, 2))
    reused = ConvexPolygon(verts)
    for tol in (0.0, 1e-3, 0.0):
        assert np.array_equal(reused.contains(pts, tol),
                              ConvexPolygon(verts).contains(pts, tol))


def test_environment_diameter_matches_polygon_diameter():
    env = environment([[0, 0], [3, 0], [3.5, 1], [1, 2], [-0.5, 1]])
    for _ in range(2):  # computed once, then read back
        assert env.diameter == geo.diameter(env.polygon)


# ---------------------------------------------------------------------------
# refusals: degenerate input raises a typed error naming the fault

@pytest.mark.parametrize("make, error, message", [
    (lambda: HalfPlane((0.0, 0.0), 1.0), ValueError,
     "half-plane normal must be nonzero"),
    (lambda: ConvexPolygon([[0, 0, 0], [1, 0, 0], [1, 1, 0]]), ValueError,
     r"vertices must have shape \(n, 2\)"),
    (lambda: ConvexPolygon([[0, 0], [1, 0], [2, 0]]), ValueError,
     "polygon has no area"),
    (lambda: geo.UniformDensity(0.0), ValueError, "density must be positive"),
    (lambda: geo.GridDensity(0, 0, 1, 1, [[1, 2]]), ValueError,
     "grid needs at least 2x2 samples"),
    (lambda: geo.GridDensity(0, 0, 0, 1, [[1, 2], [3, 4]]), ValueError,
     "empty grid extent"),
    (lambda: interior_distance(Region(()), region_of(UNIT_SQUARE.vertices)),
     geo.EmptyRegion, "interior distance needs nonempty regions"),
    (lambda: geo.hausdorff_distance(Region(()),
                                    region_of(UNIT_SQUARE.vertices)),
     geo.EmptyRegion, "hausdorff distance needs nonempty regions"),
    (lambda: geo.diameter(Region(())), geo.EmptyRegion,
     "diameter of an empty region"),
    (lambda: geo.centroid(Region(()), geo.UniformDensity(),
                          geo.quadratic_performance()),
     geo.EmptyRegion, "centroid of an empty region"),
    (lambda: geo.centroid(Region(()), geo.UniformDensity(),
                          geo.linear_performance()),
     geo.EmptyRegion, "centroid of an empty region"),
    (lambda: region_of(UNIT_SQUARE.vertices,
                       square(0.5, 0.0, 1.0).vertices).validate(1e-12),
     geo.GeometryError, "pieces overlap with area 5.000e-01"),
], ids=["halfplane-zero-normal", "polygon-bad-shape", "polygon-no-area",
        "uniform-density-zero", "grid-one-row", "grid-empty-extent",
        "interior-distance-empty", "hausdorff-distance-empty",
        "diameter-empty", "centroid-empty-quadratic", "centroid-empty-linear",
        "region-pieces-overlap"])
def test_geometry_refuses_degenerate_input(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()
