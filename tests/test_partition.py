import io
import math

import numpy as np
import pytest

import oracles
from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import partition as pt
from gossipcover import svg
from gossipcover import switching as sw
from gossipcover.geometry import Region, region_of
from gossipcover.partition import Partition

DENS = geo.UniformDensity()
QUAD = geo.quadratic_performance()


def strip_env(width=2.0):
    return pt.rectangle(width, 1.0)


def strips(env, cuts):
    xs = [float(env.polygon.vertices[:, 0].min())] + list(cuts) + \
        [float(env.polygon.vertices[:, 0].max())]
    regions = tuple(
        region_of([[a, 0], [b, 0], [b, 1], [a, 1]])
        for a, b in zip(xs, xs[1:]))
    return Partition(env, regions)


def quadrant_pairs():
    """Two regions of two diagonal quadrants each; centroids coincide."""
    env = pt.rectangle(1.0, 1.0)
    a = region_of([[0, 0], [0.5, 0], [0.5, 0.5], [0, 0.5]],
                  [[0.5, 0.5], [1, 0.5], [1, 1], [0.5, 1]])
    b = region_of([[0.5, 0], [1, 0], [1, 0.5], [0.5, 0.5]],
                  [[0, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]])
    return Partition(env, (a, b))


# ---------------------------------------------------------------------------
# environment and partition invariants

def test_environment_tolerances_scale():
    env = pt.rectangle(2.0, 1.0)
    assert env.area == pytest.approx(2.0)
    assert env.diameter == pytest.approx(np.sqrt(5.0))
    assert env.tol_point == pytest.approx(1e-9 * env.diameter)
    assert env.tol_area == pytest.approx(1e-9 * env.area)


def test_environment_owns_the_scaled_thresholds():
    small, large = pt.rectangle(2.0, 1.0), pt.rectangle(2e3, 1e3)
    for env in (small, large):
        assert env.balance_tol == pytest.approx(1e-5 * env.area)
        assert env.stop_tol == pytest.approx(1e-6 * env.area)
        assert env.end_state_tol == pytest.approx(1e-4 * env.area)
        assert env.wall_tol == pytest.approx(1e-8 * env.diameter)
    for name in ("balance_tol", "stop_tol", "end_state_tol"):
        assert getattr(large, name) == pytest.approx(1e6 * getattr(small, name))
    assert large.wall_tol == pytest.approx(1e3 * small.wall_tol)
    assert large.piece_budget == small.piece_budget == 256
    # the predicates' and the runner's defaults are these properties
    rng = np.random.default_rng(3)
    part = pt.voronoi(small, rng.uniform([0.1, 0.1], [1.9, 0.9], (4, 2)))
    runs = [sw.run_evolution(part, DENS, QUAD, sw.RoundRobin(4), budget=400,
                             check_every=1, **kw)
            for kw in ({}, {"stop_tol": small.stop_tol})]
    assert runs[0].stop_tol == runs[1].stop_tol == small.stop_tol
    assert runs[0].termination == runs[1].termination == "converged"
    assert [s.h for s in runs[0].steps] == [s.h for s in runs[1].steps]
    assert runs[0].final_residual == runs[1].final_residual
    mixed = []
    for p in (part, runs[0].final):
        mixed.append(gp.is_mixed_centroidal(p, DENS, QUAD))
        assert mixed[-1] == gp.is_mixed_centroidal(p, DENS, QUAD,
                                                   tol=small.balance_tol)
        assert pt.is_centroidal_voronoi(p, DENS, QUAD) == \
            pt.is_centroidal_voronoi(p, DENS, QUAD, tol=small.balance_tol)
    assert mixed == [False, True]


def test_partition_rejects_uncovered():
    env = strip_env()
    # region missing a quarter of the environment
    bad = (region_of([[0, 0], [1, 0], [1, 1], [0, 1]]),
           region_of([[1, 0], [1.5, 0], [1.5, 1], [1, 1]]))
    with pytest.raises(geo.GeometryError):
        Partition(env, bad)


def test_an_accepted_cover_renders():
    # merge slack may lift the cover above the area by up to n² tol_area;
    # any partition that was built renders, its residue in a comment
    env = pt.rectangle(2.0, 1.0)
    part = Partition(env, (
        region_of([[0, 0], [1 + 6e-9, 0], [1 + 6e-9, 1], [0, 1]]),
        region_of([[1, 0], [2, 0], [2, 1], [1, 1]])))
    text = svg.render_svg(part)
    gap = svg.audit_cover(part)
    assert f"<!-- area audit: residue {gap!r} of {env.area!r} -->" in text
    short, over = part.cover_slack
    assert short < gap <= over


def test_partition_rejects_overlap():
    env = strip_env()
    bad = (region_of([[0, 0], [1.2, 0], [1.2, 1], [0, 1]]),
           region_of([[0.8, 0], [2, 0], [2, 1], [0.8, 1]]))
    with pytest.raises(geo.GeometryError):
        Partition(env, bad).validate()


def test_partition_replace_shares_untouched_regions():
    env = strip_env(3.0)
    part = strips(env, [1.0, 2.0])
    ra = region_of([[0, 0], [1.5, 0], [1.5, 1], [0, 1]])
    rb = region_of([[1.5, 0], [2, 0], [2, 1], [1.5, 1]])
    swapped = part.replace(0, 1, ra, rb)
    assert swapped.regions[2] is part.regions[2]
    assert swapped.regions[0] is ra


def test_check_points_rejects_outside_and_coincident():
    env = strip_env()
    with pytest.raises(geo.GeometryError):
        pt.check_points(env, [[0.5, 0.5], [5.0, 0.5]])
    with pytest.raises(pt.CoincidentGenerators):
        pt.check_points(env, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(pt.CoincidentGenerators, match="points 0 and 2 "):
        pt.check_points(env, [[0.5, 0.5], [1.5, 0.5], [0.5, 0.5]])


# ---------------------------------------------------------------------------
# voronoi construction

def test_voronoi_two_generators_bisector():
    env = strip_env()
    part = pt.voronoi(env, [[0.5, 0.5], [1.5, 0.5]])
    assert part.regions[0].area == pytest.approx(1.0)
    assert part.regions[1].area == pytest.approx(1.0)


def test_voronoi_covers_and_disjoint():
    rng = np.random.default_rng(3)
    env = strip_env()
    for _ in range(20):
        n = int(rng.integers(2, 7))
        gens = rng.uniform([0.05, 0.05], [1.95, 0.95], size=(n, 2))
        part = pt.voronoi(env, gens)
        total = sum(r.area for r in part.regions)
        assert total == pytest.approx(env.area, abs=n * env.tol_area)
        part.validate()


def test_voronoi_matches_grid_labels():
    rng = np.random.default_rng(17)
    env = strip_env()
    for _ in range(10):
        n = int(rng.integers(2, 6))
        gens = rng.uniform([0.1, 0.1], [1.9, 0.9], size=(n, 2))
        part = pt.voronoi(env, gens)
        approx = oracles.voronoi_areas_by_grid(env.polygon, gens, 30_000, rng)
        for i in range(n):
            assert part.regions[i].area == pytest.approx(approx[i], abs=6e-3)


def grid_centres(width, height, k, m):
    """Cell centres of a k x m grid over the width x height rectangle,
    column by column."""
    return [[x, y] for x in (np.arange(k) + 0.5) * width / k
            for y in (np.arange(m) + 0.5) * height / m]


def circle_points(k, r):
    return [[0.5 + r * math.cos(2 * math.pi * t / k),
             0.5 + r * math.sin(2 * math.pi * t / k)] for t in range(k)]


SYMMETRIC = [((1.0, 1.0), grid_centres(1.0, 1.0, 3, 3)),
             ((2.0, 1.0), grid_centres(2.0, 1.0, 5, 2)),
             ((1.0, 1.0), grid_centres(1.0, 1.0, 5, 4)),
             ((1.0, 3.0), grid_centres(1.0, 3.0, 3, 3)),
             ((1.0, 1.0), circle_points(4, 0.25)),
             ((1.0, 1.0), circle_points(4, 0.3)),
             ((1.0, 1.0), circle_points(5, 0.25)),
             ((1.0, 1.0), circle_points(7, 0.25)),
             ((1.0, 1.0), circle_points(8, 0.3))]


@pytest.mark.parametrize("size, gens", SYMMETRIC,
                         ids=["grid3x3", "grid5x2", "grid5x4", "grid3x3-tall",
                              "circle4-0.25", "circle4-0.3", "circle5",
                              "circle7", "circle8"])
def test_voronoi_tiles_symmetric_generators(size, gens):
    # symmetric sets put several bisectors through one vertex, where a
    # cut's crossing lands on the end of an edge and must be kept
    env = pt.rectangle(*size)
    part = pt.voronoi(env, gens).validate()
    total = sum(r.area for r in part.regions)
    assert total == pytest.approx(env.area, abs=part.n * env.tol_area)
    # each cell's centroid lies inside it, so nearest to its own generator
    inner = np.array([geo.mass_centroid(r, DENS) for r in part.regions])
    assert oracles.nearest_labels(inner, np.array(gens)).tolist() == \
        list(range(part.n))


@pytest.mark.parametrize("by_column", [False, True],
                         ids=["row-by-row", "column-by-column"])
def test_grid_box_partition_is_centroidal_voronoi(by_column):
    # the exact 3 x 3 boxes of the unit square, the textbook CVT of nine
    env = pt.rectangle(1.0, 1.0)
    spans = list(zip([0.0, 1.0 / 3.0, 2.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0, 1.0]))
    cells = [(sx, sy) if by_column else (sy, sx)
             for sx in spans for sy in spans]
    boxes = Partition(env, tuple(
        region_of([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        for (x0, x1), (y0, y1) in cells))
    assert pt.is_centroidal_voronoi(boxes, DENS, QUAD)
    ref = pt.voronoi(env, pt.centroids(boxes, DENS, QUAD))
    assert pt.partition_distance(boxes, ref) <= boxes.n * env.tol_area


# ---------------------------------------------------------------------------
# costs and centroids

def test_centroids_of_strips():
    env = strip_env()
    part = strips(env, [1.0])
    cs = pt.centroids(part, DENS, QUAD)
    assert np.allclose(cs, [[0.5, 0.5], [1.5, 0.5]], atol=1e-12)


def test_multicenter_cost_additive_and_positive():
    env = strip_env()
    part = strips(env, [1.0])
    pts = np.array([[0.5, 0.5], [1.5, 0.5]])
    total = pt.multicenter_cost(part, pts, DENS, QUAD)
    parts = [geo.one_center_cost(pts[i], part.regions[i], DENS, QUAD)
             for i in range(2)]
    assert total == pytest.approx(sum(parts), rel=1e-12)
    # uniform unit square pair: each contributes 1/6
    assert total == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_centroid_cost_not_above_any_other_choice():
    rng = np.random.default_rng(29)
    env = strip_env()
    gens = rng.uniform([0.1, 0.1], [1.9, 0.9], size=(4, 2))
    part = pt.voronoi(env, gens)
    best = pt.centroid_cost(part, DENS, QUAD)
    for _ in range(10):
        pts = rng.uniform([0, 0], [2, 1], size=(4, 2))
        assert best <= pt.multicenter_cost(part, pts, DENS, QUAD) + 1e-12


def test_region_keeps_centroid_and_cost_per_performance():
    # one region evaluated under two costs holds both answers side by side;
    # each cost is the one one_center_cost sums afresh at its centroid, to
    # the bit, which only a density other than 1 can tell from a cost
    # summed in another order
    rng = np.random.default_rng(37)
    env = strip_env()
    lin = geo.linear_performance()
    for dens in (DENS, geo.UniformDensity(2.5),
                 geo.GridDensity(0, 0, 2, 1, [[1, 3], [2, 0.5]])):
        part = pt.voronoi(env, rng.uniform([0.1, 0.1], [1.9, 0.9], (4, 2)))
        cached = {}
        for perf in (QUAD, lin, QUAD, lin):
            cached[perf.kind] = (pt.centroids(part, dens, perf),
                                 pt.centroid_cost(part, dens, perf))
        for perf in (QUAD, lin):
            cs, h = cached[perf.kind]
            fresh = [geo.centroid(Region(r.pieces), dens, perf,
                                  scale=env.diameter) for r in part.regions]
            assert np.array_equal(cs, np.array(fresh))
            assert h.hex() == sum(
                geo.one_center_cost(c, Region(r.pieces), dens, perf)
                for c, r in zip(fresh, part.regions)).hex()
            for k, r in enumerate(part.regions):
                c, cost = r.cache[(dens, perf, env.polygon)]
                assert np.array_equal(c, cs[k]) and cost is not None
        assert not np.array_equal(cached["quadratic"][0],
                                  cached["linear"][0])


def test_centroids_fill_whole_entries(monkeypatch):
    # the cost is computed with the centroid, so a later centroid_cost
    # reads the entry and computes nothing
    rng = np.random.default_rng(41)
    env = strip_env()
    part = pt.voronoi(env, rng.uniform([0.1, 0.1], [1.9, 0.9], size=(4, 2)))
    for perf in (QUAD, geo.linear_performance()):
        cs = pt.centroids(part, DENS, perf)
        entries = [r.cache[(DENS, perf, env.polygon)]
                   for r in part.regions]
        for k, (c, cost) in enumerate(entries):
            assert isinstance(c, np.ndarray) and type(cost) is float
            assert np.array_equal(c, cs[k])
        with monkeypatch.context() as m:
            m.setattr(geo, "one_center_cost", None)
            assert pt.centroid_cost(part, DENS, perf) == \
                sum(cost for _, cost in entries)


def test_equal_costs_share_centroid_entries(monkeypatch):
    # a cost is its kind and refine level, so a second call with a fresh
    # but equal cost reads the entries the first call filled
    env = strip_env()
    part = pt.voronoi(env, [[0.3, 0.4], [1.1, 0.6], [1.7, 0.2]])
    calls = []
    mass_centroid = geo._mass_centroid
    monkeypatch.setattr(geo, "_mass_centroid",
                        lambda *a: calls.append(1) or mass_centroid(*a))
    first = pt.centroids(part, DENS, geo.quadratic_performance())
    assert len(calls) == part.n
    again = pt.centroids(part, DENS, geo.quadratic_performance())
    assert len(calls) == part.n and np.array_equal(again, first)


@pytest.mark.parametrize("density", [
    lambda: geo.UniformDensity(),
    lambda: geo.GridDensity(0, 0, 2, 1, [[1.0, 3.0], [2.0, 0.5]])],
    ids=["uniform", "grid"])
def test_equal_densities_share_centroid_entries(monkeypatch, density):
    # a density is a value, so a second call with a fresh but equal one
    # reads the entries the first call filled
    env = strip_env()
    part = pt.voronoi(env, [[0.3, 0.4], [1.1, 0.6], [1.7, 0.2]])
    calls = []
    mass_centroid = geo._mass_centroid
    monkeypatch.setattr(geo, "_mass_centroid",
                        lambda *a: calls.append(1) or mass_centroid(*a))
    first = pt.centroids(part, density(), QUAD)
    assert len(calls) == part.n
    again = pt.centroids(part, density(), QUAD)
    assert len(calls) == part.n and np.array_equal(again, first)


def test_voronoi_cost_not_above_given_partition():
    rng = np.random.default_rng(31)
    env = strip_env()
    part = strips(env, [0.4, 1.1])
    pts = rng.uniform([0.1, 0.1], [1.9, 0.9], size=(3, 2))
    better = oracles.voronoi_cost(env, pts, DENS, QUAD)
    assert better <= pt.multicenter_cost(part, pts, DENS, QUAD) + 1e-12


# ---------------------------------------------------------------------------
# distance, equality, exchange plumbing

def test_partition_distance_zero_iff_equal():
    env = strip_env()
    a = strips(env, [1.0])
    b = strips(env, [1.0])
    c = strips(env, [1.2])
    assert pt.partition_distance(a, b) <= a.n * env.tol_area
    assert pt.partition_distance(a, c) == pytest.approx(0.4, abs=1e-9)


def test_bisector_split_conserves_pair_area():
    rng = np.random.default_rng(41)
    env = strip_env()
    for _ in range(20):
        part = pt.voronoi(env, rng.uniform([0.1, 0.1], [1.9, 0.9],
                                           size=(3, 2)))
        i, j = 0, 2
        before = part.regions[i].area + part.regions[j].area
        pa, pb = rng.uniform([0, 0], [2, 1], size=(2, 2))
        if np.hypot(*(pa - pb)) < 1e-6:
            continue
        ra, rb = pt.pair_rebalanced(part, i, j, pa, pb)
        assert ra.area + rb.area == pytest.approx(before,
                                                  abs=2 * env.tol_area)


def test_pair_rebalanced_is_voronoi_of_union():
    env = strip_env()
    part = strips(env, [0.7])
    ca, cb = np.array([0.5, 0.5]), np.array([1.5, 0.5])
    ra, rb = pt.pair_rebalanced(part, 0, 1, ca, cb)
    assert ra.area == pytest.approx(1.0, abs=1e-9)
    assert rb.area == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# fixed-point predicates

def test_equal_strips_are_centroidal():
    env = strip_env()
    part = strips(env, [1.0])
    assert pt.is_centroidal_voronoi(part, DENS, QUAD)
    assert gp.is_mixed_centroidal(part, DENS, QUAD)


def test_uneven_strips_are_not_centroidal():
    env = strip_env()
    part = strips(env, [0.7])
    assert not pt.is_centroidal_voronoi(part, DENS, QUAD)
    assert not gp.is_mixed_centroidal(part, DENS, QUAD)


def test_coincident_centroid_pairs_are_mixed_but_not_voronoi():
    part = quadrant_pairs()
    cs = pt.centroids(part, DENS, QUAD)
    assert np.allclose(cs[0], cs[1], atol=1e-12)
    assert gp.is_mixed_centroidal(part, DENS, QUAD)
    assert not pt.is_centroidal_voronoi(part, DENS, QUAD)


def test_adjacency_pairs_strips():
    env = strip_env(3.0)
    part = strips(env, [1.0, 2.0])
    assert pt.adjacency_pairs(part, 1e-6) == [(0, 1), (1, 2)]
    assert pt.adjacency_pairs(part, 1.5) == [(0, 1), (0, 2), (1, 2)]


def _adjacent_gossip_partitions(seed, steps, every):
    """Partitions along a seeded AdjacentRandom full-exchange run."""
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(seed)
    part = pt.voronoi(env, rng.uniform([0.05, 0.05], [1.95, 0.95], (6, 2)))
    sched = sw.AdjacentRandom(seed, 1e-9)
    out = []
    for t in range(steps):
        i, j = sched.select(t, part)
        part = gp.gossip_step(part, i, j, DENS, QUAD).partition
        if (t + 1) % every == 0:
            out.append(part)
    return out


ADJACENCY_DELTAS = (1e-9, 1e-3, 0.5)


@pytest.mark.parametrize("seed", [0, 1])
def test_adjacency_memo_carries_only_untouched_pairs(seed):
    # each pair's answers, adjacency and movement alike, are handed on
    # as the very dict the predecessor holds, and only when the pair
    # involves neither changed region
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(seed)
    part = pt.voronoi(env, rng.uniform([0.05, 0.05], [1.95, 0.95], (6, 2)))
    sched = sw.AdjacentRandom(seed, 1e-9)
    changed = 0
    for t in range(150):
        for delta in ADJACENCY_DELTAS:
            pt.adjacency_pairs(part, delta)
        gp.fixed_point_residual(part, DENS, QUAD)
        i, j = sched.select(t, part)
        nxt = gp.gossip_step(part, i, j, DENS, QUAD).partition
        if nxt is part:
            continue
        changed += 1
        assert nxt.pair_cache is not part.pair_cache
        assert sorted(part.pair_cache) == pt.all_pairs(part.n)
        untouched = [pair for pair in part.pair_cache
                     if i not in pair and j not in pair]
        assert list(nxt.pair_cache) == untouched
        assert all(nxt.pair_cache[pair] is part.pair_cache[pair]
                   for pair in untouched)
        # a fresh partition of fresh regions: nothing comes from a memo
        fresh = Partition(env, tuple(Region(r.pieces) for r in nxt.regions))
        for delta in ADJACENCY_DELTAS:
            assert pt.adjacency_pairs(nxt, delta) == \
                pt.adjacency_pairs(fresh, delta)
        assert gp.fixed_point_residual(nxt, DENS, QUAD) == \
            gp.fixed_point_residual(fresh, DENS, QUAD)
        assert sorted(nxt.pair_cache) == pt.all_pairs(nxt.n)
        for pair, known in nxt.pair_cache.items():
            # the same answers, bool for bool and float for float
            assert known == fresh.pair_cache[pair]
            assert known.keys() == {*ADJACENCY_DELTAS, (DENS, QUAD)}
            assert all(type(known[d]) is bool for d in ADJACENCY_DELTAS)
        part = nxt
    assert changed > 100
    assert max(len(r.pieces) for r in part.regions) > 5


def _near_pairs():
    """Region pairs built to sit near delta: a T-junction (b's two pieces
    meet in the middle of a's edge, sharing no vertex with it), the same
    pair pulled apart by gaps inside (0, 0.5), two squares a diagonal
    apart whose boxes come nearer than the squares, and two bars that
    cross with every vertex far from the other's edges."""
    def t_junction(gap):
        return (region_of([[0, -1], [2, -1], [2, 3], [0, 3]]),
                region_of([[2 + gap, 0], [3, 0], [3, 1], [2 + gap, 1]],
                          [[2 + gap, 1], [3, 1], [3, 2], [2 + gap, 2]]))

    pairs = [t_junction(gap) for gap in (0.0, 1e-12, 1e-4, 0.25)]
    pairs.append((region_of([[0, 0], [1, 0], [1, 1], [0, 1]]),
                  region_of([[1.2, 1.6], [1.8, 1.0], [1.8, 1.6]])))
    pairs.append((region_of([[0, 0], [10, 0], [10, 1], [0, 1]]),
                  region_of([[4.5, -5], [5.5, -5], [5.5, 6], [4.5, 6]])))
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_regions_within_equals_interior_distance_below_delta(seed,
                                                            monkeypatch):
    # which branch answered: the vertex-to-edge pass (its last value) and
    # the contact test (called or not) are recorded per regions_within call
    passes, contacts = [], []
    edge_pass, meet = geo._vertex_edge_distance, geo._pieces_meet
    monkeypatch.setattr(geo, "_vertex_edge_distance",
                        lambda a, b: passes.append(edge_pass(a, b))
                        or passes[-1])
    monkeypatch.setattr(geo, "_pieces_meet",
                        lambda *a: contacts.append(a) or meet(*a))
    by_pass = by_contact = 0

    def check(a, b, delta):
        nonlocal by_pass, by_contact
        # fresh regions: neither answer comes from a cache
        exact = geo.interior_distance(Region(a.pieces), Region(b.pieces))
        # the exact distance is the plain piece-pair minimum, bit for bit
        assert exact.hex() == oracles.interior_distance_ref(a, b).hex()
        passes.clear()
        contacts.clear()
        assert geo.regions_within(Region(a.pieces), Region(b.pieces),
                                  delta) == (exact < delta)
        if passes and passes[-1] < delta:
            assert not contacts  # the pass answered True alone
            by_pass += 1
        by_contact += bool(contacts)

    parts = _adjacent_gossip_partitions(seed, 300, 100)
    assert max(len(r.pieces) for p in parts for r in p.regions) > 5
    for part in parts:
        for delta in (1e-9, 1e-3, 0.5):
            for i in range(part.n):
                for j in range(i + 1, part.n):
                    a, b = part.regions[i], part.regions[j]
                    assert geo._share_seam_vertex(a, b) == \
                        oracles.share_seam_vertex_by_pieces(a, b)
                    check(a, b, delta)
            fresh = Partition(part.env, tuple(Region(r.pieces)
                                              for r in part.regions))
            assert pt.adjacency_pairs(fresh, delta) == [
                (i, j) for i in range(part.n) for j in range(i + 1, part.n)
                if geo.interior_distance(part.regions[i],
                                         part.regions[j]) < delta]
    for a, b in _near_pairs():
        for delta in (1e-9, 1e-3, 0.5, 1.0):
            check(a, b, delta)
            check(b, a, delta)
    assert by_pass > 0 and by_contact > 0


@pytest.mark.parametrize("delta", [0.0, -1e-9, math.nan, None])
def test_adjacency_pairs_refuses_a_bad_delta(delta):
    # no pair lies within such a delta, and a NaN key never matches, so
    # each call would store a fresh cache entry and answer no pairs
    part = pt.voronoi(pt.rectangle(2.0, 1.0), [[0.5, 0.5], [1.5, 0.5]])
    with pytest.raises(ValueError):
        pt.adjacency_pairs(part, delta)
    assert part.pair_cache == {}


def test_degeneracy_report_fields():
    env = strip_env()
    part = strips(env, [0.4])
    rep = pt.degeneracy_report(part, DENS, QUAD)
    assert rep.min_region_area == pytest.approx(0.4)
    assert rep.min_centroid_gap == pytest.approx(1.0)
    assert rep.max_piece_count == 1


# ---------------------------------------------------------------------------
# refusals

def two_cells():
    return pt.voronoi(strip_env(), [[0.5, 0.5], [1.5, 0.5]])


@pytest.mark.parametrize("make, error, message", [
    (lambda: Partition(strip_env(), ()), geo.EmptyRegion,
     "partition needs at least one region"),
    (lambda: pt.check_points(strip_env(), np.zeros((2, 3))),
     pt.DimensionMismatch, r"points must have shape \(n, 2\)"),
    # before the containment test, which would call NaN outside and
    # warn on infinity
    (lambda: pt.voronoi(strip_env(), [[math.nan, 0.5], [1.5, 0.5]]),
     geo.GeometryError, r"point 0 at \[nan 0\.5\] is not finite"),
    (lambda: pt.voronoi(strip_env(), [[0.5, 0.5], [1.5, -math.inf]]),
     geo.GeometryError, r"point 1 at \[ 1\.5 -inf\] is not finite"),
    (lambda: pt.multicenter_cost(two_cells(), [[0.5, 0.5]], DENS, QUAD),
     pt.DimensionMismatch, "1 points for 2 regions"),
    (lambda: pt.partition_distance(two_cells(), pt.voronoi(
        strip_env(), [[0.5, 0.5], [1.5, 0.5], [1.0, 0.2]])),
     pt.DimensionMismatch, "2 regions vs 3"),
    # the areas still add up to the environment's, so only validate sees it
    (lambda: Partition(strip_env(), (
        region_of([[-0.5, 0], [1, 0], [1, 1], [-0.5, 1]]),
        region_of([[1, 0], [1.5, 0], [1.5, 1], [1, 1]]))).validate(),
     geo.GeometryError, "region 0 leaves the environment"),
], ids=["no-regions", "points-3d", "points-nan", "points-inf",
        "cost-count-mismatch",
        "distance-count-mismatch", "region-leaves-environment"])
def test_partition_refuses_degenerate_input(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


# ---------------------------------------------------------------------------
# snapshots

def test_snapshot_roundtrip():
    rng = np.random.default_rng(53)
    env = strip_env()
    part = pt.voronoi(env, rng.uniform([0.1, 0.1], [1.9, 0.9], size=(4, 2)))
    buf = io.StringIO()
    pt.write_snapshot(part, buf, step=137)
    buf.seek(0)
    loaded, step = pt.read_snapshot(buf)
    assert step == 137
    assert loaded.n == part.n
    assert pt.partition_distance(part, loaded) <= part.n * env.tol_area


def two_region_snapshot() -> list:
    buf = io.StringIO()
    pt.write_snapshot(strips(strip_env(), [1.0]), buf, step=12)
    return buf.getvalue().splitlines(keepends=True)


def test_truncated_snapshot_names_what_it_lacks():
    # every proper prefix of a written snapshot, line by line, from no
    # line at all to the last piece missing
    lines = two_region_snapshot()
    assert len(lines) == 8
    wants = ["not a partition snapshot", *(
        f"snapshot ends before its {what} line" for what in
        ("step", "regions", "environment", "region 0", "region 0 piece",
         "region 1", "region 1 piece"))]
    for k, want in enumerate(wants):
        with pytest.raises(ValueError, match=f"^{want}$"):
            pt.read_snapshot(io.StringIO("".join(lines[:k])))
    loaded, step = pt.read_snapshot(io.StringIO("".join(lines)))
    assert (loaded.n, step) == (2, 12)


def test_snapshot_cut_inside_a_line_is_refused():
    # write_snapshot ends every line in a newline, so no proper prefix of
    # its text, cut anywhere, loads or fails in the geometry
    text = "".join(two_region_snapshot())
    for k in range(len(text)):
        with pytest.raises(ValueError):
            pt.read_snapshot(io.StringIO(text[:k]))


@pytest.mark.parametrize("k, cut, what", [(1, "step", "step"),
                                          (4, "region 0 pieces", "region 0"),
                                          (6, "region 1", "region 1")])
def test_snapshot_line_without_its_number_is_refused(k, cut, what):
    lines = two_region_snapshot()
    lines[k] = cut + "\n"
    with pytest.raises(ValueError, match=f"^snapshot {what} line lacks its "
                                         "number$"):
        pt.read_snapshot(io.StringIO("".join(lines)))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_snapshot_with_a_non_finite_vertex_names_it(token):
    # before the dedupe, which would drop the vertex and then refuse the
    # ring for too few distinct vertices
    lines = two_region_snapshot()
    assert lines[5] == "piece 0.0 0.0 1.0 0.0 1.0 1.0 0.0 1.0\n"
    lines[5] = lines[5].replace("1.0 1.0", f"1.0 {token}", 1)
    with pytest.raises(ValueError, match="^polygon vertices must be "
                                         "finite$"):
        pt.read_snapshot(io.StringIO("".join(lines)))


def rect6_run(perf, scheduler, steps, seed=0):
    """The trace of a rect6 start (six seeded Voronoi cells of a 2x1
    rectangle) over the given number of full exchanges, with every
    partition it passed through as a snapshot."""
    rng = np.random.default_rng(seed)
    initial = pt.voronoi(pt.rectangle(2.0, 1.0),
                         rng.uniform([0.1, 0.1], [1.9, 0.9], (6, 2)))
    trace = sw.run_evolution(initial, DENS, perf, scheduler, budget=steps,
                             stop_tol=0.0, check_every=steps,
                             snapshot_steps=range(steps + 1))
    assert len(trace.steps) == steps
    return trace


def test_snapshot_roundtrip_is_exact_on_multi_piece_regions():
    for seed in range(4):
        part = rect6_run(QUAD, sw.AdjacentRandom(seed=seed, delta=1e-9),
                         150, seed).final
        assert max(len(r.pieces) for r in part.regions) > 1
        buf = io.StringIO()
        pt.write_snapshot(part, buf)
        buf.seek(0)
        loaded, _ = pt.read_snapshot(buf)
        assert [len(r.pieces) for r in loaded.regions] == \
            [len(r.pieces) for r in part.regions]
        for r, back in zip(part.regions, loaded.regions):
            for p, q in zip(r.pieces, back.pieces):
                assert q.vertices.tobytes() == p.vertices.tobytes()


def test_memoized_linear_centroids_lie_in_their_region_hulls():
    # every region the run passed through holds its centroid, found at
    # the environment's scale
    trace = rect6_run(geo.linear_performance(), sw.RoundRobin(6), 60)
    regions = {id(r): r for _, p in trace.snapshots for r in p.regions}
    for r in regions.values():
        (c, _), = r.cache.values()
        assert oracles.in_convex_hull(c, r, 1e-9 * geo.diameter(r))
    assert max(len(r.pieces) for r in regions.values()) > 1


def test_snapshot_string_stable():
    env = strip_env()
    part = strips(env, [1.0])
    texts = []
    for _ in range(2):
        buf = io.StringIO()
        pt.write_snapshot(part, buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]
