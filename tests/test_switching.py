import hashlib
import io
import math

import numpy as np
import pytest

import oracles
from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import partition as pt
from gossipcover import switching as sw

DENS = geo.UniformDensity()
QUAD = geo.quadratic_performance()


def three_region_start(seed=4):
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(seed)
    return pt.voronoi(env, rng.uniform([0.1, 0.1], [1.9, 0.9], (3, 2)))


def strip_partition():
    env = pt.rectangle(3.0, 1.0)
    return pt.Partition(env, tuple(
        geo.region_of([[a, 0], [b, 0], [b, 1], [a, 1]])
        for a, b in [(0, 1), (1, 2), (2, 3)]))


# ---------------------------------------------------------------------------
# schedulers

def test_all_pairs():
    assert sw.all_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert sw.all_pairs(1) == []
    # one pair order: the schedulers take partition's
    assert sw.all_pairs is pt.all_pairs


def test_round_robin_cycles():
    sched = sw.RoundRobin(3)
    part = strip_partition()
    picks = [sched.select(t, part) for t in range(6)]
    assert picks == [(0, 1), (0, 2), (1, 2)] * 2


def test_periodic_repeats_and_sorts():
    sched = sw.Periodic([(2, 0), (1, 2)])
    part = strip_partition()
    assert [sched.select(t, part) for t in range(4)] == \
        [(0, 2), (1, 2), (0, 2), (1, 2)]
    with pytest.raises(ValueError):
        sw.Periodic([])


def test_explicit_schedule_exhausts():
    sched = sw.ExplicitSchedule([(0, 1), (1, 2)])
    part = strip_partition()
    assert sched.select(0, part) == (0, 1)
    assert sched.select(1, part) == (1, 2)
    assert sched.select(2, part) is None


def test_uniform_random_seeded_and_valid():
    part = strip_partition()
    a = sw.UniformRandom(3, seed=9)
    b = sw.UniformRandom(3, seed=9)
    seq_a = [a.select(t, part) for t in range(50)]
    seq_b = [b.select(t, part) for t in range(50)]
    assert seq_a == seq_b
    assert set(seq_a) <= set(sw.all_pairs(3))


def test_adjacent_random_sees_only_touching_pairs():
    for delta in (0.0, -1.0, math.nan, None):
        with pytest.raises(ValueError):
            sw.AdjacentRandom(seed=0, delta=delta)
    part = strip_partition()
    sched = sw.AdjacentRandom(seed=3, delta=1e-6)
    picks = {sched.select(t, part) for t in range(200)}
    # strips 0 and 2 sit a full strip apart and never come up
    assert picks == {(0, 1), (1, 2)}


# ---------------------------------------------------------------------------
# evolution runner

def test_run_evolution_converges_to_centroidal_voronoi():
    init = three_region_start()
    trace = sw.run_evolution(init, DENS, QUAD, sw.RoundRobin(3),
                             budget=800, check_every=5)
    assert trace.termination == "converged"
    assert trace.final_residual <= trace.stop_tol
    hs = trace.h_series()
    assert np.all(np.diff(hs) <= 1e-9)
    assert pt.is_centroidal_voronoi(trace.final, DENS, QUAD)
    assert [s.t for s in trace.steps] == list(range(len(trace.steps)))
    assert min(s.min_region_area for s in trace.steps) > init.env.tol_area
    # residual is refreshed every check_every steps and repeated between
    assert trace.steps[1].residual == trace.steps[0].residual


def test_run_evolution_partial_map_needs_delta():
    # a delta picks the distance-limited exchange; one outside
    # (0, diameter/10] is refused before any step
    init = three_region_start()
    for delta in (0.0, -1.0, 1.1 * init.env.diameter / 10.0, math.nan):
        with pytest.raises(ValueError):
            sw.run_evolution(init, DENS, QUAD, sw.RoundRobin(3),
                             delta=delta, budget=10)


@pytest.mark.parametrize("stop_tol", [-1.0, -1e-300, math.nan])
def test_runners_refuse_a_negative_stop_tolerance(stop_tol):
    # no residual can reach it, so the run could only end on the budget
    init = three_region_start()
    with pytest.raises(ValueError, match="stop_tol"):
        sw.run_evolution(init, DENS, QUAD, sw.RoundRobin(3), budget=10,
                         stop_tol=stop_tol)
    with pytest.raises(ValueError, match="stop_tol"):
        sw.run_lloyd(init, DENS, QUAD, budget=10, stop_tol=stop_tol)


def test_run_evolution_stops_when_schedule_runs_out():
    init = three_region_start()
    trace = sw.run_evolution(init, DENS, QUAD,
                             sw.ExplicitSchedule([(0, 1), (1, 2)]),
                             budget=100, check_every=100)
    assert trace.termination == "step_budget"
    assert len(trace.steps) == 2


@pytest.mark.parametrize("budget", [0, 1])
def test_final_residual_describes_final_partition(budget):
    init = three_region_start()
    for trace in (sw.run_evolution(init, DENS, QUAD, sw.RoundRobin(3),
                                   budget=budget, check_every=5),
                  sw.run_lloyd(init, DENS, QUAD, budget=budget)):
        assert len(trace.steps) == budget
        assert trace.final_residual == gp.fixed_point_residual(
            trace.final, DENS, QUAD)


def test_final_residual_when_schedule_runs_out():
    # the schedule ends between residual checks; the final residual is
    # still the final partition's, not the initial one's
    init = three_region_start(seed=4)
    trace = sw.run_evolution(init, DENS, QUAD,
                             sw.ExplicitSchedule([(0, 1), (1, 2)]),
                             budget=100, check_every=100)
    assert len(trace.steps) == 2
    assert trace.final is not init
    assert trace.final_residual == gp.fixed_point_residual(
        trace.final, DENS, QUAD)
    assert trace.final_residual != gp.fixed_point_residual(init, DENS, QUAD)


def test_run_evolution_snapshots():
    init = three_region_start()
    trace = sw.run_evolution(init, DENS, QUAD, sw.RoundRobin(3),
                             budget=40, check_every=100,
                             snapshot_steps=[0, 5, 10 ** 6])
    taken = dict((s, p) for s, p in trace.snapshots)
    assert sorted(taken) == [0, 5, 10 ** 6]
    assert taken[0] is init
    # a snapshot past the end of the run records the final state
    assert taken[10 ** 6] is trace.final


def test_adjacency_tests_per_step_grow_like_n(monkeypatch):
    # an exchange changes two regions, so each step retests at most the
    # 2n - 3 pairs that involve them; the start tests all n(n-1)/2 once
    n, steps = 24, 100
    env = pt.rectangle(4.0, 2.0)
    rng = np.random.default_rng(n)
    start = pt.voronoi(env, rng.uniform([0.05, 0.05], [3.95, 1.95], (n, 2)))
    calls = []
    within = geo.regions_within
    monkeypatch.setattr(geo, "regions_within",
                        lambda a, b, d: calls.append(d) or within(a, b, d))
    trace = sw.run_evolution(start, DENS, QUAD, sw.AdjacentRandom(0, 1e-9),
                             budget=steps, check_every=5)
    assert len(trace.steps) == steps
    assert 0 < len(calls) <= n * (n - 1) // 2 + steps * (2 * n - 3)


def test_run_lloyd_converges_faster_than_gossip():
    init = three_region_start()
    gossip = sw.run_evolution(init, DENS, QUAD, sw.RoundRobin(3),
                              budget=800, check_every=5)
    lloyd = sw.run_lloyd(init, DENS, QUAD, budget=800)
    assert lloyd.termination == "converged"
    assert lloyd.steps[0].pair == (-1, -1)
    assert len(lloyd.steps) < len(gossip.steps)
    assert pt.is_centroidal_voronoi(lloyd.final, DENS, QUAD)


def test_trace_serialization():
    init = three_region_start()
    trace = sw.run_evolution(init, DENS, QUAD, sw.RoundRobin(3),
                             budget=6, check_every=100)
    buf = io.StringIO()
    sw.write_trace(trace, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "# t i j h residual min_centroid_gap min_region_area max_pieces"
    data = [ln for ln in lines if not ln.startswith("#")]
    # one row per step plus the embedded final snapshot block
    assert len([ln for ln in lines if ln.startswith("# termination")]) == 1
    assert len(data) >= len(trace.steps)
    row0 = lines[1].split()
    assert int(row0[0]) == 0
    assert float(row0[3]) == trace.steps[0].h
    # the embedded snapshot round-trips to the final partition
    k = next(i for i, ln in enumerate(lines) if ln.startswith("# termination"))
    part, _step = pt.read_snapshot(io.StringIO(
        "".join(ln + "\n" for ln in lines[k + 1:])))
    assert pt.partition_distance(part, trace.final) <= \
        2 * trace.final.env.tol_area


def test_trace_reads_back_numpy_scalar_fields():
    # a numpy scalar reaching a step is written as its number, not as
    # np.float64(...), so every field parses back to the same float
    init = three_region_start()
    step = sw.TraceStep(t=np.int64(3), pair=(np.int64(0), np.int64(2)),
                        h=np.float64(0.1) / 3, residual=np.float64(2e-7),
                        min_centroid_gap=np.float32(0.25),
                        min_region_area=np.float64(1e-3) / 7,
                        max_piece_count=np.int64(4))
    trace = sw.EvolutionTrace(steps=[step], final=init,
                              final_residual=np.float64(1.0) / 3)
    buf = io.StringIO()
    sw.write_trace(trace, buf)
    lines = buf.getvalue().splitlines()
    row = lines[1].split()
    assert [int(x) for x in row[:3]] == [3, 0, 2] and int(row[7]) == 4
    assert [float(x) for x in row[3:7]] == [
        float(step.h), float(step.residual), float(step.min_centroid_gap),
        float(step.min_region_area)]
    assert lines[2] == f"# termination step_budget residual {1.0 / 3!r}"


def test_trace_bytes_are_pinned():
    # 30 AdjacentRandom steps from criterion 01's seeded six-region start:
    # a change to the step record or the writer that moves one byte of
    # the trace shows here
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(0)
    init = pt.voronoi(env, rng.uniform([0.1, 0.1], [1.9, 0.9], (6, 2)))
    trace = sw.run_evolution(init, DENS, QUAD,
                             sw.AdjacentRandom(seed=0, delta=1e-9), budget=30)
    buf = io.StringIO()
    sw.write_trace(trace, buf)
    assert len(trace.steps) == 30
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "a1f01444e85eddbbcc98302a9a677b53428b2a6591b507d9195750959858853b"


# ---------------------------------------------------------------------------
# persistency

def test_check_uniform_persistency():
    pairs = [(0, 1), (1, 2)]
    good = [(0, 1), (1, 2)] * 10
    assert oracles.check_uniform_persistency(good, pairs, window=2)
    assert not oracles.check_uniform_persistency(good, pairs + [(0, 2)], window=2)
    gappy = [(0, 1)] * 8 + [(1, 2)] + [(0, 1)] * 8
    assert not oracles.check_uniform_persistency(gappy, pairs, window=4)
    with pytest.raises(ValueError):
        oracles.check_uniform_persistency([(0, 1)] * 3, pairs, window=2)
    for window in (0, -1):
        with pytest.raises(ValueError, match="window must be at least 1"):
            oracles.check_uniform_persistency(good, pairs, window=window)


def test_empirical_persistency_adjacent_pairs():
    part = strip_partition()
    sched = sw.AdjacentRandom(seed=11, delta=1e-6)
    stats = oracles.empirical_persistency(sched, part, [(0, 1), (1, 2), (0, 2)],
                                     n_steps=2000, window=4)
    for pair in [(0, 1), (1, 2)]:
        s = stats[pair]
        assert s["windows"] == 500
        # hit chance per window is 1 - (1/2)^4
        assert s["ci_low"] > 0.5
        assert abs(s["p"] - 0.9375) < 0.05
    assert stats[(0, 2)]["hits"] == 0
    assert stats[(0, 2)]["ci_high"] < 0.05
    # no window, or fewer steps than one window, is refused, so every
    # pair has a window to count and an estimate
    for n_steps, window in ((20, 0), (20, -2), (3, 5)):
        with pytest.raises(ValueError, match=f"window must be 1 to n_steps "
                           f"{n_steps}, got {window}"):
            oracles.empirical_persistency(sched, part, [(0, 1)], n_steps, window)


def test_window_statistics_of_one_pair():
    # contacts at 1 and 3 of a 10-long run: two whole 4-long windows, the
    # first holding both contacts; the last gap runs to the end
    s = sw.window_statistics([1, 3], 10, 4)
    assert (s["count"], s["windows"], s["hits"]) == (2, 2, 1)
    assert s["max_gap"] == 7.0 and s["p"] == 0.5
    assert (s["ci_low"], s["ci_high"]) == sw._wilson(1, 2)[1:]
    # the scheduler's steps and the network's contact times are read alike
    sched = sw.Periodic([(0, 1), (1, 2), (0, 1)])
    stats = oracles.empirical_persistency(sched, strip_partition(), [(1, 0)], 9, 2)
    assert stats == {(0, 1): sw.window_statistics([0, 2, 3, 5, 6, 8], 9, 2)}


def test_wilson_without_trials_gives_no_estimate():
    p, lo, hi = sw._wilson(0, 0)
    assert math.isnan(p) and (lo, hi) == (0.0, 1.0)
    assert sw._wilson(0, 4)[0] == 0.0 and sw._wilson(0, 4)[1] == 0.0
    assert sw._wilson(4, 4)[0] == 1.0 and sw._wilson(4, 4)[2] == 1.0


# ---------------------------------------------------------------------------
# radial switching maps

def test_polar_spiral_map():
    rho, theta = sw.polar_spiral(0.5, 1.0)
    assert (rho, theta) == (0.25, 1.0)
    rho, theta = sw.polar_spiral(2.0, 0.0)
    assert rho == pytest.approx(1.5)
    assert theta == pytest.approx(1.0)
    # radius contracts toward the unit circle but never crosses it
    r = 1.7
    for _ in range(100):
        r2, _t = sw.polar_spiral(r, 0.0)
        assert 1.0 < r2 < r
        r = r2


def test_polar_damp_map():
    assert sw.polar_damp(2.0, math.pi / 2) == (0.0, math.pi / 2)
    assert sw.polar_damp(2.0, 3 * math.pi / 2) == (2.0, 3 * math.pi / 2)
    rho, theta = sw.polar_damp(1.0, math.pi / 6)
    assert rho == pytest.approx(0.5)


def test_spiral_radius_offsets_identity():
    offs = oracles.spiral_radius_offsets(1.7, 200)
    x0 = 0.7
    ref = np.array([1.0 / (1.0 / x0 + k) for k in range(1, 201)])
    assert np.max(np.abs(offs - ref)) <= 1e-14
    with pytest.raises(ValueError):
        oracles.spiral_radius_offsets(1.0, 5)


def test_run_polar_alternating_reaches_limit_set():
    trace = sw.run_polar("alternating", 3000, 1.7)
    assert trace.states.shape == (3001, 2)
    assert trace.labels[:4] == ["spiral", "damp", "spiral", "damp"]
    rho, theta = trace.states[-1]
    assert sw.distance_to_polar_limit_set(rho, theta) <= 0.05


def test_run_polar_adversarial_keeps_circling():
    trace = sw.run_polar("adversarial", 20000, 1.7)
    radii = trace.states[:, 0]
    assert np.all(radii > 1.0)
    assert np.all(np.diff(radii) <= 1e-15)
    # the angle never settles: visited angles wrap most of the circle
    assert sw.circular_spread(trace.states[:, 1]) > 3 * math.pi / 2
    # scheduled damp steps land where the damp map is the identity
    for k, lab in enumerate(trace.labels):
        if lab == "damp":
            assert tuple(trace.states[k + 1]) == tuple(trace.states[k])
            break
    with pytest.raises(ValueError):
        sw.run_polar("sideways", 10, 1.7)


def test_circular_spread():
    assert sw.circular_spread([]) == 0.0
    assert sw.circular_spread([1.0]) == 0.0
    assert sw.circular_spread([0.0, math.pi]) == pytest.approx(math.pi)
    quarter = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert sw.circular_spread(quarter) == pytest.approx(3 * math.pi / 2)


def test_distance_to_polar_limit_set():
    assert sw.distance_to_polar_limit_set(1.0, 3 * math.pi / 2) == 0.0
    assert sw.distance_to_polar_limit_set(0.9, 3 * math.pi / 2) == \
        pytest.approx(0.1)
    assert sw.distance_to_polar_limit_set(0.0, 1.0) == 0.0
    # upper-half point measures to the arc endpoints or the origin
    d = sw.distance_to_polar_limit_set(1.0, math.pi / 2)
    assert d == pytest.approx(1.0)
