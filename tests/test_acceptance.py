"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single "criterion NN: PASS/FAIL" line with the
measured numbers, then asserts. Random draws are all seeded.
"""
import math
import time
from fractions import Fraction

import numpy as np

import oracles as orc
from gossipcover import dyadic as dy
from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import netsim as ns
from gossipcover import partition as pt
from gossipcover import switching as sw

DENS = geo.UniformDensity()
QUAD = geo.quadratic_performance()


def _report(num: int, ok: bool, detail: str = ""):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line.rstrip())
    assert ok, line


def _strips(env, cuts):
    lo = float(env.polygon.vertices[:, 0].min())
    hi = float(env.polygon.vertices[:, 0].max())
    xs = [lo] + list(cuts) + [hi]
    return pt.Partition(env, tuple(
        geo.region_of([[a, 0], [b, 0], [b, env.polygon.vertices[:, 1].max()],
                       [a, env.polygon.vertices[:, 1].max()]])
        for a, b in zip(xs, xs[1:])))


def test_criterion_01():
    # six regions on a rectangle under the adjacent-pair random schedule
    # settle into a centroidal nearest-point partition within budget
    started = time.perf_counter()
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(0)
    initial = pt.voronoi(env, rng.uniform([0.1, 0.1], [1.9, 0.9], (6, 2)))
    scheduler = sw.AdjacentRandom(seed=0, delta=1e-9)
    trace = sw.run_evolution(initial, DENS, QUAD, scheduler,
                             budget=5000, stop_tol=1e-6 * env.area,
                             check_every=5)
    elapsed = time.perf_counter() - started
    hs = trace.h_series()
    converged = trace.termination == "converged"
    residual = gp.fixed_point_residual(trace.final, DENS, QUAD)
    cvp = pt.is_centroidal_voronoi(trace.final, DENS, QUAD,
                                   tol=1e-5 * env.area)
    monotone = bool(np.all(np.diff(hs) <= 1e-9))
    ok = (converged and residual <= 1e-6 * env.area and cvp and monotone
          and elapsed < 60.0)
    _report(1, ok, f"steps {len(trace.steps)}, residual {residual:.2e}, "
                   f"centroidal {cvp}, monotone {monotone}, {elapsed:.1f}s")


def test_criterion_02():
    # the joint cost dominates both partial minimizations: re-seating the
    # points and re-partitioning for the points each only lower it
    started = time.perf_counter()
    env = pt.rectangle(1.0, 1.0)
    rng = np.random.default_rng(11)
    bad = 0
    strict_p = strict_v = np.inf
    for _ in range(100):
        n = int(rng.integers(2, 6))
        v = pt.voronoi(env, rng.uniform(0.05, 0.95, (n, 2)))
        p = rng.uniform(0.02, 0.98, (n, 2))
        h_vp = pt.multicenter_cost(v, p, DENS, QUAD)
        h_vc = pt.centroid_cost(v, DENS, QUAD)
        h_voro = orc.voronoi_cost(env, p, DENS, QUAD)
        if h_vp < h_vc - 1e-9 or h_vp < h_voro - 1e-9:
            bad += 1
        cs = pt.centroids(v, DENS, QUAD)
        if float(np.max(np.hypot(*(p - cs).T))) > 1e-6:
            strict_p = min(strict_p, h_vp - h_vc)
        if pt.partition_distance(v, pt.voronoi(env, p)) > 1e-6:
            strict_v = min(strict_v, h_vp - h_voro)
    elapsed = time.perf_counter() - started
    ok = bad == 0 and strict_p > 0.0 and strict_v > 0.0 and elapsed < 30.0
    _report(2, ok, f"violations {bad}, strict margins {strict_p:.1e} / "
                   f"{strict_v:.1e}, {elapsed:.1f}s")


def test_criterion_03():
    # both exchange maps never raise the coverage cost, and any
    # non-trivial trade strictly lowers it
    started = time.perf_counter()
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(5)
    bad = weak = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        part = pt.voronoi(env, rng.uniform([0.05, 0.05], [1.95, 0.95],
                                           (n, 2)))
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if rng.random() < 0.5:
            out = gp.gossip_step(part, i, j, DENS, QUAD)
        else:
            delta = float(rng.uniform(0.02, env.diameter / 10.0))
            out = gp.partial_gossip_step(part, i, j, delta, DENS, QUAD)
        if out.h_after > out.h_before + 1e-9:
            bad += 1
        if out.traded_area > 1e-5 * env.area and not out.h_after < out.h_before:
            weak += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and weak == 0 and elapsed < 60.0
    _report(3, ok, f"monotone violations {bad}, missing strict drops {weak}, "
                   f"{elapsed:.1f}s")


def _quadrant_pair(w: float, h: float):
    env = pt.rectangle(w, h)
    a = geo.Region((
        geo.ConvexPolygon([[0, 0], [w / 2, 0], [w / 2, h / 2], [0, h / 2]]),
        geo.ConvexPolygon([[w / 2, h / 2], [w, h / 2], [w, h], [w / 2, h]]),
    ))
    b = geo.Region((
        geo.ConvexPolygon([[w / 2, 0], [w, 0], [w, h / 2], [w / 2, h / 2]]),
        geo.ConvexPolygon([[0, h / 2], [w / 2, h / 2], [w / 2, h], [0, h]]),
    ))
    return pt.Partition(env, (a, b))


def _grid_partition(nx: int, ny: int):
    env = pt.rectangle(float(nx), float(ny))
    regions = []
    for ix in range(nx):
        for iy in range(ny):
            regions.append(geo.region_of([
                [ix, iy], [ix + 1, iy], [ix + 1, iy + 1], [ix, iy + 1]]))
    return pt.Partition(env, tuple(regions))


def test_criterion_04():
    # residual-at-zero and the pairwise-balance predicate agree on a
    # corpus of exact fixed points, coincident-centroid fixed points,
    # and off-balance partitions
    corpus = []
    for n in (2, 3, 4, 5, 6):
        env = pt.rectangle(2.0, 1.0)
        corpus.append(_strips(env, [2.0 * k / n for k in range(1, n)]))
    corpus.append(_strips(pt.rectangle(3.0, 1.0), [1.0, 2.0]))
    corpus.append(_grid_partition(2, 2))
    corpus.append(_grid_partition(3, 2))
    corpus.append(_grid_partition(4, 1))
    env1 = pt.rectangle(2.0, 1.0)
    corpus.append(pt.Partition(env1, (geo.region_of(env1.polygon.vertices),)))
    for w, h in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 2.0), (3.0, 1.0),
                 (1.5, 1.0), (2.5, 1.5), (3.0, 2.0), (0.8, 0.6), (1.2, 2.4)]:
        corpus.append(_quadrant_pair(w, h))
    for w in (1.0, 1.5, 2.0, 2.5, 3.0):
        corpus.append(_strips(pt.rectangle(w, 1.0), [0.3 * w]))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        corpus.append(pt.voronoi(env1, rng.uniform([0.1, 0.1], [1.9, 0.9],
                                                   (4, 2))))
    assert len(corpus) == 30
    disagreements = 0
    for part in corpus:
        tol = 1e-5 * part.env.area
        at_rest = gp.fixed_point_residual(part, DENS, QUAD) <= tol
        # the pair-by-pair balance test; gp.is_mixed_centroidal is the
        # residual's threshold, so comparing with it would prove nothing
        balanced = orc.is_mixed_centroidal_ref(part, DENS, QUAD, tol=tol)
        if at_rest != balanced:
            disagreements += 1
    _report(4, disagreements == 0,
            f"{len(corpus)} partitions, {disagreements} disagreements")


def test_criterion_05():
    started = time.perf_counter()
    # closed form of the spiral's radius offsets
    offs = orc.spiral_radius_offsets(1.7, 10_000)
    i = np.arange(1, 10_001)
    err = float(np.max(np.abs(offs - 1.0 / (1.0 / offs[0] + i - 1))))
    # alternating schedule settles onto the limit set
    alt = sw.run_polar("alternating", 100_000, 1.7)
    rho_f, theta_f = (float(x) for x in alt.states[-1])
    dist = sw.distance_to_polar_limit_set(rho_f, theta_f)
    # adversarial schedule keeps circling near the unit circle instead
    adv = sw.run_polar("adversarial", 100_000, 1.7)
    near = adv.states[np.abs(adv.states[:, 0] - 1.0) <= 0.05]
    spread = sw.circular_spread(near[:, 1])
    elapsed = time.perf_counter() - started
    ok = (err <= 1e-12 and dist <= 0.05 and spread > 1.5 * math.pi
          and elapsed < 10.0)
    _report(5, ok, f"identity err {err:.1e}, alternating dist {dist:.3f}, "
                   f"adversarial spread {spread:.2f}, {elapsed:.1f}s")


def test_criterion_06():
    # stated targets for the comb family: left-region cost 1 and pair
    # cost 2 at every refinement, alongside the metric split
    left_costs = {}
    pair_costs = {}
    ok_metrics = True
    prev_h = None
    for t in range(1, 13):
        rec = dy.comb_family(t)
        left_costs[t] = rec.left_cost_at_zero
        pair_costs[t] = rec.pair_cost
        if rec.symdiff_to_full != Fraction(1):
            ok_metrics = False
        if prev_h is not None and not rec.hausdorff_to_full < prev_h:
            ok_metrics = False
        prev_h = rec.hausdorff_to_full
    ok_costs = all(left_costs[t] == Fraction(1) for t in left_costs) and \
        all(pair_costs[t] == Fraction(2) for t in pair_costs)
    detail = (f"left cost {set(left_costs.values())} (target 1), "
              f"pair cost {set(pair_costs.values())} (target 2), "
              f"constant symdiff and vanishing hausdorff {ok_metrics}")
    _report(6, ok_costs and ok_metrics, detail)


def test_criterion_07():
    env = pt.rectangle(1.0, 1.0)
    diam = env.diameter
    rng = np.random.default_rng(42)
    densities = [geo.UniformDensity(1.0), geo.UniformDensity(2.5)]

    bad_p = 0
    for k in range(200):
        dens = densities[k % 2]
        A = geo.Region((orc.random_convex_polygon(
            rng, 8, center=(0.5, 0.5), scale=0.9),))
        p, q = rng.uniform(0.0, 1.0, (2, 2))
        lhs = abs(geo.one_center_cost(p, A, dens, QUAD)
                  - geo.one_center_cost(q, A, dens, QUAD))
        bound = orc.lipschitz_on(QUAD, diam) * orc.sup_norm(dens) * A.area \
            * float(np.hypot(*(p - q)))
        if lhs > bound + 1e-9:
            bad_p += 1

    bad_a = 0
    for k in range(200):
        dens = densities[k % 2]
        A = geo.Region((orc.random_convex_polygon(
            rng, 8, center=(0.5, 0.5), scale=0.9),))
        B = geo.Region((orc.random_convex_polygon(
            rng, 8, center=(0.5, 0.5), scale=0.9),))
        p = rng.uniform(0.0, 1.0, 2)
        lhs = abs(geo.one_center_cost(p, A, dens, QUAD)
                  - geo.one_center_cost(p, B, dens, QUAD))
        bound = float(QUAD.fn(diam)) * orc.sup_norm(dens) * geo.symdiff_area(A, B)
        if lhs > bound + 1e-9:
            bad_a += 1

    # two-generator nearest-point partitions move continuously with the
    # generators, at a rate set by the separation
    bad_v = 0
    for ratio in (1e-2, 1e-3):
        rng_v = np.random.default_rng(42)
        for _ in range(50):
            while True:
                p = rng_v.uniform(0.05, 0.95, (2, 2))
                l = float(np.hypot(*(p[0] - p[1])))
                if l > 0.2:
                    break
            eps = ratio * l
            ang = rng_v.uniform(0.0, 2.0 * math.pi)
            step = eps * np.array([math.cos(ang), math.sin(ang)])
            q = p.copy()
            q[1] = q[1] + step
            if not bool(env.polygon.contains(q[1][None, :])[0]):
                q[1] = p[1] - step
            moved = pt.partition_distance(pt.voronoi(env, p),
                                          pt.voronoi(env, q))
            if moved > 4.0 * diam * (1.0 + diam / l) * eps + 1e-9:
                bad_v += 1
    ok = bad_p == 0 and bad_a == 0 and bad_v == 0
    _report(7, ok, f"violations: point {bad_p}, region {bad_a}, "
                   f"two-generator {bad_v}")


def test_criterion_08():
    # area distance of convex bodies is controlled by boundary distance
    const = 2.0 * math.pi / (math.sqrt(2.0) - 1.0)
    rng = np.random.default_rng(7)
    bad = 0
    worst = 0.0
    for _ in range(200):
        A = geo.Region((orc.random_convex_polygon(
            rng, 8, center=rng.uniform(-0.2, 0.2, 2)),))
        B = geo.Region((orc.random_convex_polygon(
            rng, 8, center=rng.uniform(-0.2, 0.2, 2)),))
        ds = geo.symdiff_area(A, B)
        dh = geo.hausdorff_distance(A, B)
        allv = np.vstack([A.vertices, B.vertices])
        d2 = np.sum((allv[:, None] - allv[None, :]) ** 2, axis=-1)
        whole = float(np.sqrt(d2.max()))
        bound = const * (whole / 2.0) * dh
        if ds > bound + 1e-9:
            bad += 1
        if bound > 0:
            worst = max(worst, ds / bound)
    _report(8, bad == 0, f"violations {bad}, worst ratio {worst:.3f}")


def test_criterion_09():
    started = time.perf_counter()
    env = pt.rectangle(3.0, 1.0)
    initial = _strips(env, [0.6, 1.9])
    leg = ns.leg_time(env, ns.NetConfig())
    adjacent = pt.adjacency_pairs(initial, ns.NetConfig().delta)
    settled = degenerate = 0
    ci_ok = True
    for seed in range(10):
        cfg = ns.NetConfig(seed=seed)
        try:
            trace = ns.simulate(cfg, initial, DENS, QUAD, 500.0 * leg)
        except pt.DegenerateEvolution:
            degenerate += 1
            continue
        if gp.is_mixed_centroidal(trace.final, DENS, QUAD,
                                  tol=1e-4 * env.area):
            settled += 1
        stats = ns.analyze_log(trace.events, trace.elapsed, 5.0 * leg,
                               adjacent)
        if any(stats[pair]["ci_low"] <= 0.0 for pair in stats):
            ci_ok = False
    rng = np.random.default_rng(123)
    f3 = orc.phase_frequencies(ns.TRAVEL, 3, 100_000, rng)
    f5 = orc.phase_frequencies(ns.TRAVEL, 5, 100_000, rng)
    m3 = abs(f3[ns.TRAVEL] - 0.5) <= 3.0 * math.sqrt(0.25 / 100_000)
    m5 = abs(f5[ns.WAIT_2] - 0.25) <= 3.0 * math.sqrt(0.1875 / 100_000)
    elapsed = time.perf_counter() - started
    ok = (settled + degenerate == 10 and ci_ok and m3 and m5
          and elapsed < 300.0)
    _report(9, ok, f"settled {settled}, degenerate {degenerate}, "
                   f"contact CIs positive {ci_ok}, chain 3-step "
                   f"{f3[ns.TRAVEL]:.3f} 5-step {f5[ns.WAIT_2]:.3f}, "
                   f"{elapsed:.0f}s")


def test_criterion_10():
    rng = np.random.default_rng(23)
    worst_sd = 0.0
    for _ in range(50):
        c1 = rng.uniform(-0.15, 0.15, 2)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        c2 = c1 + rng.uniform(0.2, 0.45) * np.array([math.cos(ang),
                                                     math.sin(ang)])
        A = geo.Region((orc.random_convex_polygon(rng, 8, center=c1),))
        B = geo.Region((orc.random_convex_polygon(rng, 8, center=c2),))
        exact = geo.symdiff_area(A, B)
        approx = orc.symdiff_by_grid(A, B, 100_000, rng)
        worst_sd = max(worst_sd, abs(exact - approx) / exact)

    env = pt.rectangle(2.0, 1.0)
    worst_v = 0.0
    for k in range(50):
        rng_k = np.random.default_rng(300 + k)
        n = int(rng_k.integers(2, 6))
        gens = rng_k.uniform([0.15, 0.15], [1.85, 0.85], (n, 2))
        part = pt.voronoi(env, gens)
        areas = np.array([r.area for r in part.regions])
        grid = orc.voronoi_areas_by_grid(env.polygon, gens, 100_000, rng_k)
        worst_v = max(worst_v, float(np.max(np.abs(areas - grid) / areas)))
    ok = worst_sd <= 0.01 and worst_v <= 0.01
    _report(10, ok, f"worst relative error: symdiff {worst_sd:.2e}, "
                    f"nearest-point areas {worst_v:.2e}")
