import dataclasses
import gc
import weakref

import numpy as np
import pytest

import oracles
from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import partition as pt
from gossipcover import switching as sw
from gossipcover.geometry import VanishedRegion, region_of
from gossipcover.partition import Partition

DENS = geo.UniformDensity()
QUAD = geo.quadratic_performance()
LIN = geo.linear_performance()


def strips(env, cuts):
    lo = float(env.polygon.vertices[:, 0].min())
    hi = float(env.polygon.vertices[:, 0].max())
    xs = [lo] + list(cuts) + [hi]
    return Partition(env, tuple(
        region_of([[a, 0], [b, 0], [b, 1], [a, 1]])
        for a, b in zip(xs, xs[1:])))


def random_partition(rng, env, n):
    lo = env.polygon.vertices.min(axis=0) + 0.05
    hi = env.polygon.vertices.max(axis=0) - 0.05
    return pt.voronoi(env, rng.uniform(lo, hi, size=(n, 2)))


# ---------------------------------------------------------------------------
# full exchange

def test_uneven_pair_rebalances_to_bisector():
    env = pt.rectangle(2.0, 1.0)
    part = strips(env, [0.7])
    out = gp.gossip_step(part, 0, 1, DENS, QUAD)
    assert out.changed
    assert out.h_after < out.h_before
    # centroids at 0.35 and 1.35: the bisector lands at x = 0.85
    assert out.partition.regions[0].area == pytest.approx(0.85, abs=1e-9)


def test_step_leaves_other_regions_untouched():
    rng = np.random.default_rng(2)
    env = pt.rectangle(2.0, 1.0)
    part = random_partition(rng, env, 5)
    out = gp.gossip_step(part, 1, 3, DENS, QUAD)
    for k in (0, 2, 4):
        assert out.partition.regions[k] is part.regions[k]


def test_step_conserves_pair_area():
    rng = np.random.default_rng(3)
    env = pt.rectangle(2.0, 1.0)
    for _ in range(30):
        part = random_partition(rng, env, int(rng.integers(2, 6)))
        i, j = sorted(rng.choice(part.n, size=2, replace=False))
        before = part.regions[i].area + part.regions[j].area
        out = gp.gossip_step(part, i, j, DENS, QUAD)
        after = out.partition.regions[i].area + out.partition.regions[j].area
        assert after == pytest.approx(before, abs=2 * env.tol_area)


def test_step_already_split_is_identity():
    env = pt.rectangle(2.0, 1.0)
    part = strips(env, [1.0])
    out = gp.gossip_step(part, 0, 1, DENS, QUAD)
    assert not out.changed
    assert out.partition is part


def test_step_on_same_index_rejected():
    env = pt.rectangle(2.0, 1.0)
    part = strips(env, [1.0])
    with pytest.raises(ValueError):
        gp.gossip_step(part, 1, 1, DENS, QUAD)


def test_monotone_cost_seeded_sweep():
    # quadratic kernel: the quadrature is exact, so monotonicity holds to
    # rounding and a strict drop must follow any non-trivial trade
    rng = np.random.default_rng(5)
    env = pt.rectangle(2.0, 1.0)
    for _ in range(40):
        part = random_partition(rng, env, int(rng.integers(2, 6)))
        i, j = sorted(rng.choice(part.n, size=2, replace=False))
        out = gp.gossip_step(part, i, j, DENS, QUAD)
        assert out.h_after <= out.h_before + 1e-9
        if out.traded_area > 1e-5 * env.area:
            assert out.h_after < out.h_before


def _linear_kernel_run():
    rng = np.random.default_rng(6)
    env = pt.rectangle(2.0, 1.0)
    part = random_partition(rng, env, 5)
    lin3 = dataclasses.replace(LIN, refine=3)
    for _ in range(25):
        i, j = sorted(rng.choice(part.n, size=2, replace=False))
        out = gp.gossip_step(part, i, j, DENS, lin3)
        yield out
        part = out.partition


def test_monotone_cost_linear_kernel():
    # the linear kernel has a cone point at the center, so the fixed-degree
    # rule is inexact and re-triangulating the traded pieces shifts the
    # estimate; refine 3 keeps that wobble near 1e-5, tested against 1e-4
    for out in _linear_kernel_run():
        assert out.h_after <= out.h_before + 1e-4


# h_after of the 25 steps above, recorded when refine was a keyword of
# gossip_step; refine as a field of the cost must give the same floats
LINEAR_KERNEL_H_AFTER = [
    "0x1.32ef41a677ffbp-1", "0x1.30ab87b51b570p-1", "0x1.30101a48fc702p-1",
    "0x1.2fe695d159045p-1", "0x1.2fc6aad8e66f2p-1", "0x1.2fc6aad8e66f2p-1",
    "0x1.2d75ec2adf2b7p-1", "0x1.2bb283183b35dp-1", "0x1.28b6644d90b96p-1",
    "0x1.28b6644d90b96p-1", "0x1.28b6644d90b96p-1", "0x1.28b6644d90b96p-1",
    "0x1.277c44e8b3c2cp-1", "0x1.1a3c2e5f61f79p-1", "0x1.1a3c2e5f61f79p-1",
    "0x1.1a3c2e5f61f79p-1", "0x1.1a3c2e5f61f79p-1", "0x1.193ee8efd798bp-1",
    "0x1.1581c298efb7fp-1", "0x1.1528248cf7d7cp-1", "0x1.1528248cf7d7cp-1",
    "0x1.1528248cf7d7cp-1", "0x1.14e6a997d4e67p-1", "0x1.14954a0eed410p-1",
    "0x1.138fa7315f2c2p-1",
]


def test_linear_kernel_h_after_is_pinned():
    got = [out.h_after for out in _linear_kernel_run()]
    assert got == [float.fromhex(h) for h in LINEAR_KERNEL_H_AFTER]


def test_trading_step_with_warm_caches_computes_two_regions(monkeypatch):
    # only the two regions the exchange rebuilt need a centroid and a cost
    rng = np.random.default_rng(17)
    env = pt.rectangle(2.0, 1.0)
    part = random_partition(rng, env, 6)
    pt.centroid_cost(part, DENS, QUAD)
    calls = {"centroid": 0, "one_center_cost": 0}

    def count(name):
        original = getattr(geo, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(geo, name, counted)

    for name in calls:
        count(name)
    i, j = pt.adjacency_pairs(part, 1e-9)[0]
    out = gp.gossip_step(part, i, j, DENS, QUAD)
    assert out.changed and out.traded_area > 0.0
    assert calls == {"centroid": 2, "one_center_cost": 2}


# ---------------------------------------------------------------------------
# distance-limited exchange

def test_check_delta_gate():
    env = pt.rectangle(2.0, 1.0)
    with pytest.raises(ValueError):
        gp.check_delta(env, 0.0)
    with pytest.raises(ValueError):
        gp.check_delta(env, env.diameter)
    assert gp.check_delta(env, 0.1) == 0.1


def test_trade_fraction_profile():
    # saturates at full trade for touching pairs with a wide centroid gap
    assert gp.trade_fraction_from(1.0, 0.0, 0.2) == 1.0
    assert gp.trade_fraction_from(0.1, 0.0, 0.2) == pytest.approx(0.5)
    # fades out as the regions separate
    assert gp.trade_fraction_from(1.0, 0.1, 0.2) == pytest.approx(0.5)
    assert gp.trade_fraction_from(1.0, 0.2, 0.2) == 0.0
    assert gp.trade_fraction_from(1.0, 5.0, 0.2) == 0.0


def test_partial_step_identity_for_far_pair():
    env = pt.rectangle(3.0, 1.0)
    part = strips(env, [1.0, 2.0])
    out = gp.partial_gossip_step(part, 0, 2, 0.2, DENS, QUAD)
    assert not out.changed
    assert out.partition is part


def vertex_bytes(partition) -> list:
    return [[p.vertices.tobytes() for p in r.pieces]
            for r in partition.regions]


def test_partial_step_equals_full_when_saturated():
    env = pt.rectangle(2.0, 1.0)
    part = strips(env, [0.7])
    # touching regions, centroid gap 1.0 >= delta: full exchange applies
    full = gp.gossip_step(part, 0, 1, DENS, QUAD)
    lim = gp.partial_gossip_step(part, 0, 1, 0.2, DENS, QUAD)
    assert lim.changed
    assert vertex_bytes(lim.partition) == vertex_bytes(full.partition)


def test_partial_step_trades_partial_slab():
    # regions 0 and 2 sit 0.1 apart with delta 0.2, so the trade fraction is
    # 1/2 and only half of the full exchange (0.225) should move
    env = pt.rectangle(3.0, 1.0)
    part = strips(env, [0.9, 1.0])
    assert gp.trade_fraction(part, 0, 2, 0.2, DENS, QUAD) == pytest.approx(0.5)
    out = gp.partial_gossip_step(part, 0, 2, 0.2, DENS, QUAD)
    assert out.changed
    full = gp.gossip_step(part, 0, 2, DENS, QUAD)
    assert 0.0 < out.traded_area < full.traded_area
    assert out.traded_area == pytest.approx(0.1125, abs=1e-9)
    assert out.h_after <= out.h_before + 1e-12
    # the gained slab is disconnected from region 0, which now has two pieces
    assert len(out.partition.regions[0].pieces) == 2
    before = part.regions[0].area + part.regions[2].area
    after = out.partition.regions[0].area + out.partition.regions[2].area
    assert after == pytest.approx(before, abs=2 * env.tol_area)


def test_partial_step_monotone_seeded_sweep():
    rng = np.random.default_rng(7)
    env = pt.rectangle(2.0, 1.0)
    for _ in range(30):
        part = random_partition(rng, env, int(rng.integers(2, 6)))
        i, j = sorted(rng.choice(part.n, size=2, replace=False))
        delta = float(rng.uniform(0.02, env.diameter / 10.0))
        out = gp.partial_gossip_step(part, i, j, delta, DENS, QUAD)
        assert out.h_after <= out.h_before + 1e-9


def half_symdiff(before, after, i, j):
    return 0.5 * (geo.symdiff_area(before.regions[i], after[0])
                  + geo.symdiff_area(before.regions[j], after[1]))


def test_split_traded_area_is_half_the_symmetric_differences():
    rng = np.random.default_rng(43)
    env = pt.rectangle(2.0, 1.0)
    delta = env.diameter / 10.0
    slabs = 0
    for _ in range(20):
        part = random_partition(rng, env, 6)
        i, j = sorted(rng.choice(part.n, size=2, replace=False))
        pa, pb = rng.uniform([0, 0], [2, 1], size=(2, 2))
        if np.hypot(*(pa - pb)) < 1e-6:
            continue
        traded = oracles.bisector_trade(part, i, j, pa, pb)
        rebalanced = pt.pair_rebalanced(part, i, j, pa, pb)
        assert traded == pytest.approx(
            half_symdiff(part, rebalanced, i, j), abs=env.tol_area)
        cs = pt.centroids(part, DENS, QUAD)
        for i, j in sw.all_pairs(part.n):
            # the distance-limited exchange reports its slab's traded area
            beta = gp.trade_fraction(part, i, j, delta, DENS, QUAD)
            out = gp.partial_gossip_step(part, i, j, delta, DENS, QUAD)
            after = (out.partition.regions[i], out.partition.regions[j])
            assert out.traded_area == pytest.approx(
                half_symdiff(part, after, i, j), abs=env.tol_area)
            slabs += out.changed and beta < 1.0
            # an exchange that trades within tolerance leaves the partition
            if oracles.bisector_trade(part, i, j, cs[i],
                                      cs[j]) <= env.tol_area:
                full = gp.gossip_step(part, i, j, DENS, QUAD)
                assert full.partition is part and not full.changed
    assert slabs > 0


def test_partial_step_matches_slab_oracle():
    # the distance-limited exchange cuts at the bisector moved by
    # (1 - beta) of each region's far reach; its separate slab form in
    # oracles trades the same area and builds the same regions
    rng = np.random.default_rng(43)
    env = pt.rectangle(2.0, 1.0)
    delta = env.diameter / 10.0
    slabs = no_ops = 0
    for _ in range(20):
        part = random_partition(rng, env, 6)
        cs = pt.centroids(part, DENS, QUAD)
        for i, j in sw.all_pairs(part.n):
            beta = gp.trade_fraction(part, i, j, delta, DENS, QUAD)
            if not 0.0 < beta < 1.0:
                continue
            pieces_i, pieces_j, traded = oracles.slab_split_ref(
                part, i, j, cs[i], cs[j], beta)
            out = gp.partial_gossip_step(part, i, j, delta, DENS, QUAD)
            assert out.traded_area == pytest.approx(traded, abs=env.tol_area)
            if traded <= env.tol_area:
                no_ops += 1
                assert out.partition is part and not out.changed
                continue
            slabs += 1
            for k, pieces in ((i, pieces_i), (j, pieces_j)):
                assert geo.symdiff_area(out.partition.regions[k],
                                        env.region(pieces)) <= env.tol_area
    assert slabs > 0 and no_ops > 0


def test_hairline_trade_returns_same_partition():
    # centroids at 0.5 - 5e-10 and 1.5 - 5e-10 put the bisector 5e-10 past
    # the seam: the cut is real, but trades 5e-10 <= tol_area = 2e-9
    env = pt.rectangle(2.0, 1.0)
    part = strips(env, [1.0 - 1e-9])
    cs = pt.centroids(part, DENS, QUAD)
    assert not oracles.on_own_sides(part, 0, 1, cs[0], cs[1])
    traded = oracles.bisector_trade(part, 0, 1, cs[0], cs[1])
    assert 0.0 < traded <= env.tol_area
    for out in (gp.gossip_step(part, 0, 1, DENS, QUAD),
                gp.partial_gossip_step(part, 0, 1, 0.2, DENS, QUAD)):
        assert out.partition is part
        assert not out.changed
        assert out.traded_area == 0.0


# ---------------------------------------------------------------------------
# the one no-op rule against the old form with its four exits

def check_against_exchange_ref(part, i, j, delta, perf, exits):
    """One exchange of part against oracles.exchange_ref: the same
    partition object on a no-op, else the same vertices and cost and
    area bits. Counts the old form's exit in exits; returns the
    exchange's partition."""
    if delta is None:
        got = gp.gossip_step(part, i, j, DENS, perf)
    else:
        got = gp.partial_gossip_step(part, i, j, delta, DENS, perf)
    want, exit_ = oracles.exchange_ref(part, i, j, delta, DENS, perf)
    exits[exit_] += 1
    assert got.changed == want.changed, exit_
    assert got.pair == want.pair
    for a, b in ((got.h_before, want.h_before), (got.h_after, want.h_after),
                 (got.traded_area, want.traded_area)):
        assert float(a).hex() == float(b).hex()
    if want.changed:
        assert vertex_bytes(got.partition) == vertex_bytes(want.partition)
    else:
        assert got.partition is part and want.partition is part
    return got.partition


def test_no_op_rule_matches_the_old_exits():
    exits = dict.fromkeys(("fraction", "own sides", "bound", "split",
                           "changed"), 0)
    env = pt.rectangle(2.0, 1.0)
    # linear cost under RoundRobin: non-adjacent pairs on their own sides
    part = pt.voronoi(env, np.random.default_rng(0).uniform(
        [0.1, 0.1], [1.9, 0.9], (6, 2)))
    sched = sw.RoundRobin(part.n)
    for t in range(90):
        i, j = sched.select(t, part)
        part = check_against_exchange_ref(part, i, j, None, LIN, exits)
    # strips balanced exactly, within snap, to a hairline and off it
    wide = pt.rectangle(3.0, 1.0)
    for cuts in ([1.0, 2.0], [1.0 + 1e-13, 2.0 - 1e-13],
                 [1.0 - 1e-9, 2.0 + 5e-10], [1.0 + 3e-9, 2.0 - 1e-8],
                 [0.9, 2.0 - 1e-9]):
        part = strips(wide, cuts)
        for i, j in sw.all_pairs(part.n):
            for delta in (None, 0.2):
                for a, b in ((i, j), (j, i)):
                    check_against_exchange_ref(part, a, b, delta, QUAD,
                                               exits)
    # a seam turned about its middle: the bisector crosses it there and
    # the two corners it trades fall below, at, or past tol_area
    for e in (1e-9, 3e-9, 1e-8):
        part = Partition(env, (
            region_of([[0, 0], [1 + e, 0], [1 - e, 1], [0, 1]]),
            region_of([[1 + e, 0], [2, 0], [2, 1], [1 - e, 1]])))
        for delta in (None, 0.2):
            check_against_exchange_ref(part, 0, 1, delta, QUAD, exits)
    # seeded Voronoi starts under the distance-limited map
    for seed in (1, 2):
        part = random_partition(np.random.default_rng(seed), env, 6)
        sched = sw.UniformRandom(part.n, seed)
        for t in range(150):
            i, j = sched.select(t, part)
            part = check_against_exchange_ref(part, i, j, 0.2, QUAD, exits)
    assert min(exits.values()) > 0, exits


# ---------------------------------------------------------------------------
# the no-op memo on the partition

def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def hairline_pair():
    # the bisector lands 5e-10 past the seam: the split runs, trades
    # at most tol_area, and the exchange is a no-op
    env = pt.rectangle(2.0, 1.0)
    return strips(env, [1.0 - 1e-9])


def test_repeated_noop_skips_centroids_and_split(monkeypatch):
    part = hairline_pair()
    for step in (lambda: gp.gossip_step(part, 0, 1, DENS, QUAD),
                 lambda: gp.partial_gossip_step(part, 0, 1, 0.2, DENS, QUAD)):
        first = step()
        centroids = count_calls(monkeypatch, pt, "centroids")
        splits = count_calls(monkeypatch, pt, "pair_split")
        again = step()
        monkeypatch.undo()
        assert not first.changed and first.partition is part
        assert again == first
        assert again.h_before == pt.centroid_cost(part, DENS, QUAD)
        assert centroids == [] and splits == []


def test_noop_memo_keys_on_delta_and_perf(monkeypatch):
    part = hairline_pair()
    splits = count_calls(monkeypatch, pt, "pair_split")
    outs = [gp.gossip_step(part, 0, 1, DENS, QUAD),
            gp.partial_gossip_step(part, 0, 1, 0.2, DENS, QUAD),
            gp.partial_gossip_step(part, 0, 1, 0.1, DENS, QUAD),
            gp.gossip_step(part, 0, 1, DENS, LIN),
            gp.gossip_step(part, 1, 0, DENS, QUAD)]
    assert not any(out.changed for out in outs)
    assert len(splits) == 5
    assert len(part.exchange_cache) == 5
    gp.partial_gossip_step(part, 0, 1, 0.1, DENS, QUAD)
    assert len(splits) == 5


def test_changed_exchange_is_not_memoized(monkeypatch):
    env = pt.rectangle(2.0, 1.0)
    part = strips(env, [0.7])
    splits = count_calls(monkeypatch, pt, "pair_split")
    first = gp.gossip_step(part, 0, 1, DENS, QUAD)
    again = gp.gossip_step(part, 0, 1, DENS, QUAD)
    assert first.changed and again.changed
    assert len(splits) == 2
    assert part.exchange_cache == {}
    assert vertex_bytes(again.partition) == vertex_bytes(first.partition)


def test_memoized_partition_is_freed_without_gc():
    # the memo holds floats, never an outcome that refers back to the
    # partition, so reference counting alone frees a dropped partition
    gc.disable()
    try:
        part = hairline_pair()
        out = gp.gossip_step(part, 0, 1, DENS, QUAD)
        gp.partial_gossip_step(part, 0, 1, 0.2, DENS, QUAD)
        assert len(part.exchange_cache) == 2
        ref = weakref.ref(part)
        del part, out
        assert ref() is None
    finally:
        gc.enable()


def test_vanished_region_raises_not_clamps():
    # a region at or below the area tolerance is an error, never clamped:
    # partition assembly refuses it
    env = pt.rectangle(2.0, 1.0)
    dead = region_of([[0, 0], [1e-9, 0], [1e-9, 1], [0, 1]])
    rest = region_of([[1e-9, 0], [2, 0], [2, 1], [1e-9, 1]])
    with pytest.raises(VanishedRegion):
        Partition(env, (dead, rest))


# ---------------------------------------------------------------------------
# synchronous map and residual

def test_lloyd_step_decreases_cost():
    rng = np.random.default_rng(11)
    env = pt.rectangle(2.0, 1.0)
    part = random_partition(rng, env, 4)
    h0 = pt.centroid_cost(part, DENS, QUAD)
    nxt = gp.lloyd_step(part, DENS, QUAD)
    h1 = pt.centroid_cost(nxt, DENS, QUAD)
    assert h1 <= h0 + 1e-12


def test_residual_zero_at_fixed_point():
    env = pt.rectangle(2.0, 1.0)
    part = strips(env, [1.0])
    assert gp.fixed_point_residual(part, DENS, QUAD) <= env.tol_area


def test_residual_positive_off_fixed_point():
    env = pt.rectangle(2.0, 1.0)
    part = strips(env, [0.7])
    res = gp.fixed_point_residual(part, DENS, QUAD)
    assert res > 1e-3 * env.area


def test_residual_modes_agree_on_adjacent_partition():
    env = pt.rectangle(3.0, 1.0)
    part = strips(env, [0.8, 2.1])
    full = gp.fixed_point_residual(part, DENS, QUAD, mode="full")
    adj = gp.fixed_point_residual(part, DENS, QUAD, mode="adjacent",
                                  delta=0.1)
    # non-adjacent pair (0, 2) cannot trade anyway in a strip layout
    assert adj == pytest.approx(full, rel=1e-9)


@pytest.mark.parametrize("delta", [None, 0.0, -0.1, float("nan")])
def test_adjacent_residual_refuses_a_bad_delta(delta):
    # no pair is within such a delta: a residual of 0 would claim balance
    part = strips(pt.rectangle(3.0, 1.0), [0.8, 2.1])
    with pytest.raises(ValueError):
        gp.fixed_point_residual(part, DENS, QUAD, mode="adjacent",
                                delta=delta)


def test_residual_matches_direct_symdiff():
    rng = np.random.default_rng(13)
    env = pt.rectangle(2.0, 1.0)
    part = random_partition(rng, env, 3)
    cs = pt.centroids(part, DENS, QUAD)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            ri, rj = pt.pair_rebalanced(part, i, j, cs[i], cs[j])
            moved = geo.symdiff_area(part.regions[i], ri) + \
                geo.symdiff_area(part.regions[j], rj)
            worst = max(worst, moved)
    assert gp.fixed_point_residual(part, DENS, QUAD) == pytest.approx(
        worst, rel=1e-12)


def fragmented_partitions(seed):
    """A Voronoi start and its successors after 50 and 150 steps of a
    seeded AdjacentRandom full-exchange run."""
    env = pt.rectangle(2.0, 1.0)
    start = random_partition(np.random.default_rng(seed), env, 6)
    trace = sw.run_evolution(start, DENS, QUAD,
                             sw.AdjacentRandom(seed=seed, delta=1e-9),
                             budget=151, stop_tol=0.0, check_every=1000,
                             snapshot_steps=(50, 150))
    return [start] + [p for _, p in trace.snapshots]


@pytest.mark.parametrize("seed", [23, 24])
def test_residual_by_bound_matches_all_pairs_loop(seed, monkeypatch):
    parts = fragmented_partitions(seed)
    assert max(len(r.pieces) for r in parts[-1].regions) > 5
    splits = []
    traded_area = pt.traded_area
    monkeypatch.setattr(pt, "traded_area",
                        lambda *a: splits.append(a[1:3]) or traded_area(*a))
    full_splits = candidates = 0
    for part in parts:
        env = part.env
        for perf in (QUAD, LIN):
            for mode, delta in (("full", None), ("adjacent", 1e-9),
                                ("adjacent", 0.5)):
                splits.clear()
                assert gp.fixed_point_residual(part, DENS, perf, mode, delta) \
                    == oracles.fixed_point_residual_ref(part, DENS, perf,
                                                        mode, delta)
                if mode == "full":
                    full_splits += len(splits)
            # the early stop's soundness: no split trades more than its bound
            cs = pt.centroids(part, DENS, perf)
            for i, j in sw.all_pairs(part.n):
                if float(np.hypot(*(cs[i] - cs[j]))) <= env.tol_point:
                    continue
                hp = geo.bisector_halfplane(cs[i], cs[j])
                traded = pt.pair_split(part, i, j, hp, hp)[2]
                # the residual's one-sided split sums the same parts
                assert float(traded_area(part, i, j, hp, hp)).hex() == \
                    float(traded).hex()
                assert traded <= gp._trade_bound(part, i, j, hp)
                if oracles.on_own_sides(part, i, j, cs[i], cs[j]):
                    assert traded == 0.0
                else:
                    candidates += 1
    # split in index order, the full-mode residual would cut every pair;
    # the bound skipped more splits than there are pairs on own sides
    assert 0 < full_splits < candidates


def test_mixed_centroidal_is_the_residual_threshold():
    # the predicate thresholds the full residual; the pair loop it
    # replaced must give the same answer at every tolerance: on Voronoi
    # starts, on multi-piece partitions after 50 and 150 steps, and on
    # strips balanced exactly and to a hairline
    env = pt.rectangle(2.0, 1.0)
    parts = [strips(env, [1.0]), strips(env, [1.0 - 1e-9])]
    for seed in (21, 22):
        parts += fragmented_partitions(seed)
    assert max(len(r.pieces) for p in parts for r in p.regions) > 1
    answers = set()
    for part in parts:
        for tol in (0.0, env.tol_area, 1e-5 * env.area, 1e-4 * env.area):
            got = gp.is_mixed_centroidal(part, DENS, QUAD, tol=tol)
            assert got == oracles.is_mixed_centroidal_ref(part, DENS, QUAD,
                                                          tol=tol)
            answers.add(got)
        assert gp.is_mixed_centroidal(part, DENS, QUAD) == \
            oracles.is_mixed_centroidal_ref(part, DENS, QUAD)
    assert answers == {True, False}
