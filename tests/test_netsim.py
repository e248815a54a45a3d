import io
import math

import numpy as np
import pytest

from gossipcover import geometry as geo
from gossipcover import netsim as ns
from gossipcover import partition as pt

DENS = geo.UniformDensity()
QUAD = geo.quadratic_performance()


def strip_env():
    return pt.rectangle(3.0, 1.0)


def strip_partition(env, cuts=(1.0, 2.0)):
    xs = [0.0] + list(cuts) + [3.0]
    return pt.Partition(env, tuple(
        geo.region_of([[a, 0], [b, 0], [b, 1], [a, 1]])
        for a, b in zip(xs, xs[1:])))


def half_square():
    env = pt.rectangle(1.0, 1.0)
    region = geo.region_of([[0, 0], [0.5, 0], [0.5, 1], [0, 1]])
    return env, region


# ---------------------------------------------------------------------------
# configuration and the epoch machine

def test_netconfig_gates():
    ns.NetConfig()
    with pytest.raises(ValueError):
        ns.NetConfig(speeds=())
    with pytest.raises(ValueError):
        ns.NetConfig(speeds=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        ns.NetConfig(comm_radius=0.0)
    with pytest.raises(ValueError):
        ns.NetConfig(comm_rate=-1.0)
    with pytest.raises(ValueError):
        ns.NetConfig(waypoint_margin=0.25)  # quarter of the default radius
    with pytest.raises(ValueError):
        ns.NetConfig(delta=0.3)
    with pytest.raises(ValueError):
        ns.NetConfig(time_step=0.0)


def test_epoch_transition_chain():
    rng = np.random.default_rng(0)
    assert ns.epoch_transition(ns.TRAVEL, rng) == ns.WAIT_1
    assert ns.epoch_transition(ns.WAIT_2, rng) == ns.TRAVEL
    outs = [ns.epoch_transition(ns.WAIT_1, rng) for _ in range(2000)]
    frac = outs.count(ns.TRAVEL) / len(outs)
    assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / 2000)
    assert set(outs) == {ns.TRAVEL, ns.WAIT_2}
    with pytest.raises(ValueError):
        ns.epoch_transition("nap", rng)


def test_phase_frequencies_markov():
    rng = np.random.default_rng(1)
    trials = 20000
    after3 = ns.phase_frequencies(ns.TRAVEL, 3, trials, rng)
    # both three-transition paths from travel land on travel or wait1
    assert after3[ns.WAIT_2] == 0.0
    assert abs(after3[ns.TRAVEL] - 0.5) < 3.0 * math.sqrt(0.25 / trials)
    after5 = ns.phase_frequencies(ns.TRAVEL, 5, trials, rng)
    assert abs(after5[ns.WAIT_2] - 0.25) < 3.0 * math.sqrt(0.1875 / trials)


def test_leg_time():
    env = strip_env()
    cfg = ns.NetConfig(speeds=(0.5, 1.0, 2.0))
    assert ns.leg_time(env, cfg) == pytest.approx(env.diameter / 0.5)


# ---------------------------------------------------------------------------
# waypoint sampling

def test_internal_boundary_of_half_square():
    env, region = half_square()
    starts, ends = ns.internal_boundary_segments(region, env)
    assert len(starts) == 1
    seg = np.vstack([starts[0], ends[0]])
    assert np.allclose(seg[:, 0], 0.5)
    assert np.hypot(*(ends[0] - starts[0])) == pytest.approx(1.0)


def test_internal_boundary_skips_seams():
    env = pt.rectangle(1.0, 1.0)
    region = geo.Region((
        geo.ConvexPolygon([[0, 0], [0.5, 0], [0.5, 0.5], [0, 0.5]]),
        geo.ConvexPolygon([[0, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]]),
    ))
    starts, ends = ns.internal_boundary_segments(region, env)
    # only the two x = 0.5 edges survive; the shared seam and walls drop out
    assert len(starts) == 2
    assert np.allclose(np.vstack([starts, ends])[:, 0], 0.5)


def test_internal_boundary_empty_for_full_cover():
    env = pt.rectangle(1.0, 1.0)
    region = geo.region_of(env.polygon.vertices)
    starts, _ends = ns.internal_boundary_segments(region, env)
    assert len(starts) == 0
    with pytest.raises(ns.SamplingExhausted):
        ns.random_destination(region, env, 0.1, np.random.default_rng(0))


def test_random_destination_hugs_internal_boundary():
    env, region = half_square()
    rng = np.random.default_rng(7)
    for margin in (0.1, 1e-6):
        for _ in range(50):
            q = ns.random_destination(region, env, margin, rng)
            assert abs(q[0] - 0.5) <= margin + 1e-12
            assert -margin <= q[1] <= 1.0 + margin


def test_random_destination_uniform_along_boundary():
    env, region = half_square()
    rng = np.random.default_rng(13)
    ys = np.array([ns.random_destination(region, env, 0.01, rng)[1]
                   for _ in range(2000)])
    counts = np.bincount(np.clip((ys * 10).astype(int), 0, 9), minlength=10)
    expected = len(ys) / 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 0.999 quantile of chi-square with 9 degrees of freedom
    assert chi2 < 27.88


# ---------------------------------------------------------------------------
# simulation loop

def test_simulate_silent_when_rate_zero():
    env = strip_env()
    init = strip_partition(env)
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(comm_rate=0.0, time_step=leg / 50.0)
    trace = ns.simulate(cfg, init, DENS, QUAD, duration=2.0 * leg)
    assert trace.events == []
    assert trace.final is init
    legal = {(ns.TRAVEL, ns.WAIT_1), (ns.WAIT_1, ns.TRAVEL),
             (ns.WAIT_1, ns.WAIT_2), (ns.WAIT_2, ns.TRAVEL)}
    assert set(trace.transitions) <= legal


def test_simulate_time_step_snaps_to_leg():
    env = strip_env()
    init = strip_partition(env)
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(comm_rate=0.0, time_step=leg / 7.3)
    trace = ns.simulate(cfg, init, DENS, QUAD, duration=leg)
    per_leg = trace.leg / trace.dt
    assert per_leg == pytest.approx(round(per_leg))
    assert round(per_leg) == 7


def test_simulate_eager_pair_trades_and_h_drops():
    env = strip_env()
    # the cut at 1.0 is off balance: the first in-range contact moves it
    init = strip_partition(env, cuts=(1.0,))
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(speeds=(1.0, 1.0), comm_rate=50.0, seed=3,
                       time_step=leg / 100.0)
    trace = ns.simulate(cfg, init, DENS, QUAD, duration=4.0 * leg)
    assert len(trace.events) > 0
    assert any(e.changed for e in trace.events)
    hs = trace.h_series()
    assert np.all(np.diff(hs) <= 1e-9)
    assert hs[0] <= pt.centroid_cost(init, DENS, QUAD) + 1e-9


def test_simulate_three_agents_short_run():
    env = strip_env()
    init = strip_partition(env)
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(seed=5, time_step=leg / 100.0)
    duration = 6.0 * leg
    trace = ns.simulate(cfg, init, DENS, QUAD, duration=duration,
                        snapshot_times=[0.0, leg])
    assert trace.elapsed == pytest.approx(duration, rel=1e-9)
    times = [e.time for e in trace.events]
    assert times == sorted(times)
    assert all(0.0 < t <= duration + 1e-9 for t in times)
    assert all(tuple(sorted(e.pair)) in {(0, 1), (0, 2), (1, 2)}
               for e in trace.events)
    assert [s[0] for s in trace.snapshots] == [0.0, leg]
    assert trace.snapshots[0][1] is init
    assert np.all(np.diff(trace.h_series()) <= 1e-9)


def test_simulate_speed_count_gate():
    env = strip_env()
    init = strip_partition(env)
    with pytest.raises(ValueError):
        ns.simulate(ns.NetConfig(speeds=(1.0, 1.0)), init, DENS, QUAD,
                    duration=1.0)


def test_simulate_deterministic_per_seed():
    env = strip_env()
    init = strip_partition(env)
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(seed=8, comm_rate=10.0, time_step=leg / 60.0)
    a = ns.simulate(cfg, init, DENS, QUAD, duration=3.0 * leg)
    b = ns.simulate(cfg, init, DENS, QUAD, duration=3.0 * leg)
    assert [(e.time, e.pair, e.changed, e.h) for e in a.events] == \
        [(e.time, e.pair, e.changed, e.h) for e in b.events]


# ---------------------------------------------------------------------------
# log analysis and serialization

def synthetic_events(times, pair=(0, 1)):
    return [ns.CommEvent(time=t, pair=pair, changed=True,
                         traded_area=0.0, h=1.0) for t in times]


def test_analyze_log_counts_and_gaps():
    events = synthetic_events([1.0, 3.0, 5.0, 7.0, 9.0])
    stats = ns.analyze_log(events, duration=10.0, window=2.0,
                           pairs=[(0, 1), (0, 2)])
    s = stats[(0, 1)]
    assert s["count"] == 5
    assert s["max_gap"] == pytest.approx(2.0)
    assert s["hits"] == s["windows"] == 5
    assert s["p"] == 1.0
    empty = stats[(0, 2)]
    assert empty["count"] == 0
    assert empty["max_gap"] == 10.0
    assert empty["p"] == 0.0
    with pytest.raises(ValueError):
        ns.analyze_log(events, duration=10.0, window=0.0, pairs=[(0, 1)])


def test_analyze_log_periodic_gap_equals_period():
    events = synthetic_events(np.arange(0.5, 20.0, 0.5))
    stats = ns.analyze_log(events, duration=20.0, window=1.0, pairs=[(0, 1)])
    assert stats[(0, 1)]["max_gap"] == pytest.approx(0.5)
    assert stats[(0, 1)]["p"] == 1.0


def test_write_comm_log_roundtrip():
    env = strip_env()
    init = strip_partition(env)
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(seed=2, comm_rate=10.0, time_step=leg / 60.0)
    trace = ns.simulate(cfg, init, DENS, QUAD, duration=2.0 * leg)
    buf = io.StringIO()
    ns.write_comm_log(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# time i j changed h"
    assert any(ln.startswith("# termination horizon") for ln in lines)
    k = next(i for i, ln in enumerate(lines) if ln.startswith("# termination"))
    assert len([ln for ln in lines[1:k]]) == len(trace.events)
    part, _ = pt.read_snapshot(io.StringIO("\n".join(lines[k + 1:])))
    assert pt.partition_distance(part, trace.final) <= 2 * env.tol_area
