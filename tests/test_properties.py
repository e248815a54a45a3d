"""Property tests (hypothesis) for the exchange's no-op rule and the residual.

An exchange leaves the partition unchanged exactly when its split
trades at most tol_area, and then hands back the very same partition.
The fixed-point residual reads each pair's movement from a memo that an
exchange carries to its successor, and stays the all-pairs loop's float
along any run of both maps. The distance-limited exchange never trades
more than the full one on the same pair. A zero fixed-point residual
holds exactly when the partition is pairwise balanced at tolerance 0.
The closed-form quadratic cost equals the rational moments of the same
float vertices after translation and scaling. A waypoint draw that
netsim.random_destination accepts by its offset bound, with no distance
test, is one the array-form draw's distance test accepts too.
"""
import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import netsim as ns
from gossipcover import partition as pt
from gossipcover.geometry import ConvexPolygon, Region, region_of
from gossipcover.partition import Partition

DENS = geo.UniformDensity()
QUAD = geo.quadratic_performance()

# seam offsets from below snap (1e-12 of the diameter) to far above a
# hairline (a few 1e-9)
EXPONENT = st.floats(-13.0, -6.0)
UNIT = st.floats(-1.0, 1.0)
DRAW = st.floats(0.0, 1.0, exclude_max=True)


def strips(env, cuts):
    lo = float(env.polygon.vertices[:, 0].min())
    hi = float(env.polygon.vertices[:, 0].max())
    xs = [lo] + list(cuts) + [hi]
    return Partition(env, tuple(
        region_of([[a, 0], [b, 0], [b, 1], [a, 1]])
        for a, b in zip(xs, xs[1:])))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 12),
       steps=st.lists(st.tuples(st.integers(0, 2 ** 16), st.booleans()),
                      min_size=1, max_size=8))
def test_memoized_residual_is_the_all_pairs_loop(seed, n, steps):
    # along a random run of both maps each partition's residual, in both
    # modes, is the float of the all-pairs loop, whatever its memo carried
    env = pt.rectangle(2.0, 1.0)
    points = np.random.default_rng(seed).uniform([0.05, 0.05], [1.95, 0.95],
                                                 size=(n, 2))
    part = pt.voronoi(env, points)
    pairs = pt.all_pairs(n)
    for step in [None, *steps]:
        if step is not None:
            draw, full = step
            i, j = pairs[draw % len(pairs)]
            part = (gp.gossip_step(part, i, j, DENS, QUAD) if full else
                    gp.partial_gossip_step(part, i, j, 0.2, DENS,
                                           QUAD)).partition
        for mode, delta in (("full", None), ("adjacent", 1e-9)):
            got = gp.fixed_point_residual(part, DENS, QUAD, mode, delta)
            want = oracles.fixed_point_residual_ref(part, DENS, QUAD, mode,
                                                    delta)
            assert got.hex() == want.hex()


def _outcome_bits(out) -> tuple:
    return ([[p.vertices.tobytes() for p in r.pieces]
             for r in out.partition.regions], out.changed,
            out.h_before.hex(), out.h_after.hex(), out.traded_area.hex())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 6),
       balanced=st.booleans(), nudge_exp=EXPONENT,
       steps=st.lists(st.tuples(st.integers(0, 2 ** 16), st.booleans(),
                                st.booleans()),
                      min_size=1, max_size=12))
def test_memoized_maps_match_memo_free_calls(seed, n, balanced, nudge_exp,
                                             steps):
    # along a random run of both maps, with residual checks in between,
    # each outcome is that of the same call on a copy of fresh regions,
    # whose memos are empty, and each residual the all-pairs loop's; an
    # equal-strip start nudged by up to 10**nudge_exp makes many no-ops
    # that the memos then answer
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(seed)
    if balanced:
        part = strips(env, [2.0 * k / n + rng.uniform(-1, 1) * 10 ** nudge_exp
                            for k in range(1, n)])
    else:
        part = pt.voronoi(env, rng.uniform([0.05, 0.05], [1.95, 0.95],
                                           size=(n, 2)))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for draw, full, check in steps:
        if check:
            for mode, delta in (("full", None), ("adjacent", 1e-9)):
                got = gp.fixed_point_residual(part, DENS, QUAD, mode, delta)
                want = oracles.fixed_point_residual_ref(part, DENS, QUAD,
                                                        mode, delta)
                assert got.hex() == want.hex()
        i, j = pairs[draw % len(pairs)]
        fresh = Partition(env, tuple(Region(r.pieces) for r in part.regions))
        outs = [gp.gossip_step(p, i, j, DENS, QUAD) if full else
                gp.partial_gossip_step(p, i, j, 0.2, DENS, QUAD)
                for p in (part, fresh)]
        assert _outcome_bits(outs[0]) == _outcome_bits(outs[1])
        assert outs[0].changed or outs[0].partition is part
        part = outs[0].partition


@settings(max_examples=30, deadline=None)
@given(cuts=st.lists(UNIT, min_size=1, max_size=3), cut_exp=EXPONENT,
       seed=st.integers(0, 2 ** 16), scale=st.floats(0.05, 1.0))
def test_partial_exchange_trades_within_the_full_split(cuts, cut_exp, seed,
                                                       scale):
    # on each pair the distance-limited exchange hands over part of what
    # the full one would, and it is a no-op wherever the full one is
    n = len(cuts) + 1
    env = pt.rectangle(float(n), 1.0)
    delta = scale * env.diameter / 10.0
    points = np.random.default_rng(seed).uniform(
        [0.05, 0.05], [n - 0.05, 0.95], size=(n + 1, 2))
    for part in (strips(env, [k + 1.0 + c * 10.0 ** cut_exp
                              for k, c in enumerate(cuts)]),
                 pt.voronoi(env, points)):
        for i in range(part.n):
            for j in range(i + 1, part.n):
                full = gp.gossip_step(part, i, j, DENS, QUAD)
                lim = gp.partial_gossip_step(part, i, j, delta, DENS, QUAD)
                assert lim.traded_area <= full.traded_area + env.tol_area
                if full.partition is part:
                    assert lim.partition is part


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(UNIT, min_size=1, max_size=3), cut_exp=EXPONENT,
       seed=st.integers(0, 2 ** 16))
def test_zero_residual_iff_mixed_centroidal_at_zero_tolerance(cuts, cut_exp,
                                                              seed):
    # strips whose seams sit on, within snap of, or off their balanced
    # positions, and a Voronoi partition of random generators
    n = len(cuts) + 1
    env = pt.rectangle(float(n), 1.0)
    points = np.random.default_rng(seed).uniform(
        [0.05, 0.05], [n - 0.05, 0.95], size=(n + 1, 2))
    for part in (strips(env, [k + 1.0 + c * 10.0 ** cut_exp
                              for k, c in enumerate(cuts)]),
                 pt.voronoi(env, points)):
        zero = gp.fixed_point_residual(part, DENS, QUAD) == 0.0
        assert zero == gp.is_mixed_centroidal(part, DENS, QUAD, tol=0.0)
        assert zero == oracles.is_mixed_centroidal_ref(part, DENS, QUAD,
                                                       tol=0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), offset_exp=st.floats(0.0, 6.0),
       angle=st.floats(0.0, 2.0 * math.pi), scale_exp=st.floats(-2.0, 4.0))
def test_quadratic_cost_is_exact_when_translated_and_scaled(seed, offset_exp,
                                                            angle, scale_exp):
    # the one moment pass works about the vertex mean, so moving the
    # region by up to 1e6 or scaling it by 1e-2 to 1e4 costs no digits
    base = next(oracles.seeded_multi_piece_regions(seed, 1))
    offset = 10.0 ** offset_exp * np.array([math.cos(angle), math.sin(angle)])
    scale = 10.0 ** scale_exp
    try:
        region = Region(tuple(ConvexPolygon(p.vertices * scale + offset)
                              for p in base.pieces))
    except ValueError:
        assume(False)
    # the base's centroid moved along: far out, the float mass centroid
    # of the moved region is itself off (ROADMAP item 3)
    c = geo.mass_centroid(base, DENS) * scale + offset
    for p in (c, c + scale * np.array([2.0, -1.0])):
        got = geo.one_center_cost(p, region, DENS, QUAD)
        want = oracles.cost_exact(p, region)
        assert abs(Fraction(got) - want) <= 1e-12 * abs(want)



@settings(max_examples=200, deadline=None)
@given(ends=st.lists(st.tuples(UNIT, UNIT, UNIT, UNIT), min_size=1,
                     max_size=6),
       offset_exp=st.floats(0.0, 6.0), angle=st.floats(0.0, 2.0 * math.pi),
       margin_exp=st.floats(-6.0, math.log10(0.2)),
       draws=st.tuples(DRAW, DRAW, DRAW, DRAW),
       below=st.one_of(st.none(), st.integers(0, 4)))
def test_waypoint_bound_accepts_only_draws_within_the_margin(
        ends, offset_exp, angle, margin_exp, draws, below):
    # the accept bound is sound where rounding is largest: tables moved
    # by up to 1e6, margins down to 1e-6, and the offset r at the bound
    # itself or a few ulps below it (below is None: any offset)
    offset = 10.0 ** offset_exp * np.array([math.cos(angle), math.sin(angle)])
    ends = np.array(ends)
    try:
        table = ns._segment_table(ends[:, :2] + offset, ends[:, 2:] + offset)
    except ns.SamplingExhausted:
        assume(False)
    margin = min(10.0 ** margin_exp, 0.2)
    script = list(draws)
    if below is not None:
        sure = margin - ns._SLACK * (table.scale + margin)
        v = (sure / margin) ** 2
        while margin * math.sqrt(v) > sure:
            v = math.nextafter(v, 0.0)
        for _ in range(below):
            v = math.nextafter(v, 0.0)
        script[2] = v
    rng = oracles.ScriptedDraws(script, 0)
    q = ns.random_destination(table, margin, rng)
    want = oracles.random_destination_ref(table, margin,
                                          oracles.ScriptedDraws(script, 0))
    assert q == tuple(want.tolist())
    if margin * math.sqrt(script[2]) <= margin - ns._SLACK * (table.scale
                                                              + margin):
        # accepted by the bound, on the first attempt
        assert rng.drawn == 4
        assert oracles.waypoint_accepted_ref(q, table, margin)
