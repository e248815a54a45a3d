import hashlib
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gossipcover import geometry as geo
from gossipcover import gossip as gp
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


NON_FINITE = [
    ("speeds", (math.nan, 1.0, 1.0)), ("speeds", (1.0, math.nan, 1.0)),
    ("speeds", (1.0, math.inf, 1.0)), ("comm_radius", math.nan),
    ("comm_rate", math.nan), ("waypoint_margin", math.nan),
    ("waypoint_margin", math.inf), ("delta", math.nan),
    ("delta", math.inf), ("time_step", math.nan), ("time_step", math.inf),
    # a field that is not a number is refused as NaN is
    ("delta", None), ("comm_radius", None), ("waypoint_margin", None),
    ("comm_rate", "2.0"), ("time_step", "0.01"), ("speeds", (1.0, None, 1.0)),
]


@pytest.mark.parametrize("name, value", NON_FINITE)
def test_netconfig_refuses_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} "):
        ns.NetConfig(**{name: value})


@pytest.mark.parametrize("name", ["comm_radius", "comm_rate"])
def test_netconfig_keeps_infinite_range_and_rate(name):
    # the limits of an always-in-range pair and of a trade at every
    # in-range step: both run to the horizon with more contacts than the
    # default range and rate make on the same seed
    env = strip_env()
    init = strip_partition(env, cuts=(0.6, 1.9))
    leg = ns.leg_time(env, ns.NetConfig())
    base = ns.simulate(ns.NetConfig(seed=3), init, DENS, QUAD, 3.0 * leg)
    trace = ns.simulate(ns.NetConfig(seed=3, **{name: math.inf}), init, DENS,
                        QUAD, 3.0 * leg)
    assert trace.termination == "horizon"
    assert len(trace.events) > len(base.events)


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
    after3 = oracles.phase_frequencies(ns.TRAVEL, 3, trials, rng)
    # both three-transition paths from travel land on travel or wait1
    assert after3[ns.WAIT_2] == 0.0
    assert abs(after3[ns.TRAVEL] - 0.5) < 3.0 * math.sqrt(0.25 / trials)
    after5 = oracles.phase_frequencies(ns.TRAVEL, 5, trials, rng)
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
        ns.waypoint_table(region, env)


def segment_set(starts, ends):
    """The segments as sorted (x0, y0, x1, y1) rows, each from its
    smaller end."""
    rows = [tuple(min(tuple(a), tuple(b))) + tuple(max(tuple(a), tuple(b)))
            for a, b in zip(starts.tolist(), ends.tolist())]
    return np.array(sorted(rows))


# seams on x = 1 that meet the right edge of A = [0, 1]^2 at y = 0.5 or
# 0.4, or run along its middle: only the uncovered parts of that edge
# border another region
T_JUNCTIONS = [
    ([[1, 0], [2, 0], [2, 0.5], [1, 0.5]],
     [[1.0, 0.5, 1.0, 1.0], [1.0, 0.5, 2.0, 0.5]]),
    ([[1, 0], [2, 0], [2, 0.4], [1, 0.4]],
     [[1.0, 0.4, 1.0, 1.0], [1.0, 0.4, 2.0, 0.4]]),
    ([[1, 0.3], [2, 0.3], [2, 0.6], [1, 0.6]],
     [[1.0, 0.0, 1.0, 0.3], [1.0, 0.3, 2.0, 0.3],
      [1.0, 0.6, 1.0, 1.0], [1.0, 0.6, 2.0, 0.6]]),
]


@pytest.mark.parametrize("b, want", T_JUNCTIONS)
def test_internal_boundary_clips_edges_at_t_junctions(b, want):
    env = pt.rectangle(2.0, 1.0)
    a = geo.ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    b = geo.ConvexPolygon(b)
    want = np.array(want)
    for region in (geo.Region((a, b)), geo.Region((b, a))):
        got = segment_set(*ns.internal_boundary_segments(region, env))
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        cum = ns.waypoint_table(region, env).cum
        assert cum[-1] == pytest.approx(
            np.hypot(*(want[:, 2:] - want[:, :2]).T).sum(), abs=1e-12)


def test_random_destination_hugs_internal_boundary():
    env, region = half_square()
    table = ns.waypoint_table(region, env)
    rng = np.random.default_rng(7)
    for margin in (0.1, 1e-6):
        for _ in range(50):
            q = ns.random_destination(table, margin, rng)
            assert abs(q[0] - 0.5) <= margin + 1e-12
            assert -margin <= q[1] <= 1.0 + margin


def test_random_destination_uniform_along_boundary():
    env, region = half_square()
    table = ns.waypoint_table(region, env)
    rng = np.random.default_rng(13)
    ys = np.array([ns.random_destination(table, 0.01, rng)[1]
                   for _ in range(2000)])
    counts = np.bincount(np.clip((ys * 10).astype(int), 0, 9), minlength=10)
    expected = len(ys) / 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 0.999 quantile of chi-square with 9 degrees of freedom
    assert chi2 < 27.88


def translated(vertices, offset):
    return np.asarray(vertices, dtype=float) + offset


def strip_tables(offset=0.0):
    env = pt.environment(translated(strip_env().polygon.vertices, offset))
    regions = strip_partition(strip_env(), cuts=(0.6, 1.9)).regions
    return [ns.waypoint_table(geo.region_of(translated(r.vertices, offset)),
                              env) for r in regions]


def t_junction_tables():
    env = pt.rectangle(2.0, 1.0)
    a = geo.ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    tables = []
    for b, _want in T_JUNCTIONS:
        b = geo.ConvexPolygon(b)
        tables += [ns.waypoint_table(geo.Region(pieces), env)
                   for pieces in ((a, b), (b, a))]
    return tables


DRAW_TABLES = {"netsim-strip": strip_tables,
               "t-junctions": t_junction_tables,
               "netsim-strip+1e6": lambda: strip_tables(1e6)}
# the largest float below 1: as the third draw it puts the offset r
# within an ulp of the margin, inside the band that runs the distance test
NEAR_ONE = 1.0 - 2.0 ** -53


@pytest.mark.parametrize("name", sorted(DRAW_TABLES))
def test_random_destination_is_the_array_draw(monkeypatch, name):
    distance = geo._points_segments_distance
    tested = []

    def counting(*args):
        tested.append(args)
        return distance(*args)

    bound = band = 0
    for table in DRAW_TABLES[name]():
        assert len(table.segments) == len(table.cum) == len(table.starts)
        for margin in (0.2, 1e-3):
            for seed in range(20):
                for script in ((), (None, None, NEAR_ONE)):
                    got_rng = oracles.ScriptedDraws(script, seed)
                    want_rng = oracles.ScriptedDraws(script, seed)
                    want = oracles.random_destination_ref(table, margin,
                                                          want_rng)
                    tested.clear()
                    with monkeypatch.context() as m:
                        m.setattr(geo, "_points_segments_distance", counting)
                        got = ns.random_destination(table, margin, got_rng)
                    assert got == tuple(want.tolist())
                    assert got_rng.state() == want_rng.state()
                    if script:
                        assert tested  # the scripted offset is in the band
                    band += bool(tested)
                    bound += not tested
    assert bound and band


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


def test_simulate_refuses_a_delta_beyond_the_environment(monkeypatch):
    # 0.4 sits below comm_radius/4 but above the 3x1 strip's diameter/10
    # (0.316): the run refuses it before its first draw, not at its
    # first contact
    init = strip_partition(strip_env())
    config = ns.NetConfig(comm_radius=2.0, delta=0.4)
    rngs = []
    monkeypatch.setattr(ns.np.random, "default_rng",
                        lambda *args: rngs.append(args))
    with pytest.raises(ValueError, match="diameter/10"):
        ns.simulate(config, init, DENS, QUAD, duration=1.0)
    assert rngs == []


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
# the windowed loop against the step-at-a-time reference

def _partition_bytes(part):
    return [[p.vertices.tobytes() for p in r.pieces] for r in part.regions]


def assert_same_trace(got, want):
    """Events, transitions (in the order they were first made),
    snapshots, final partition and elapsed time equal to the bit; repr
    also pins every time to a Python float."""
    assert [repr(e) for e in got.events] == [repr(e) for e in want.events]
    assert list(got.transitions.items()) == list(want.transitions.items())
    assert [repr(t) for t, _ in got.snapshots] == \
        [repr(t) for t, _ in want.snapshots]
    assert [_partition_bytes(p) for _, p in got.snapshots] == \
        [_partition_bytes(p) for _, p in want.snapshots]
    assert _partition_bytes(got.final) == _partition_bytes(want.final)
    assert repr(got.elapsed) == repr(want.elapsed)
    assert got.termination == want.termination


def both_loops(cfg, init, duration, **kwargs):
    return (ns.simulate(cfg, init, DENS, QUAD, duration, **kwargs),
            oracles.simulate_ref(cfg, init, DENS, QUAD, duration, **kwargs))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_windowed_loop_matches_reference_on_preset(seed):
    env = strip_env()
    init = strip_partition(env, cuts=(0.6, 1.9))  # the netsim-strip preset
    cfg = ns.NetConfig(seed=seed)
    got, want = both_loops(cfg, init, 20.0 * ns.leg_time(env, cfg))
    assert len(want.events) > 50
    assert_same_trace(got, want)


def test_windowed_loop_matches_reference_with_mixed_speeds():
    env = strip_env()
    init = strip_partition(env, cuts=(0.8, 2.1))
    leg = ns.leg_time(env, ns.NetConfig(speeds=(1.0, 0.6, 1.4)))
    cfg = ns.NetConfig(speeds=(1.0, 0.6, 1.4), comm_rate=6.0, seed=11,
                       time_step=leg / 37.0)
    got, want = both_loops(cfg, init, 12.0 * leg)
    assert any(e.changed for e in want.events)
    assert_same_trace(got, want)


def test_windowed_loop_snapshots_match_reference():
    env = strip_env()
    init = strip_partition(env, cuts=(0.6, 1.9))
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(comm_rate=8.0, seed=4, time_step=leg / 50.0)
    dt = leg / 50
    times = [0.0, 2.5 * leg + 0.3 * dt, 3 * leg, 150 * dt, 150 * dt,
             6.0 * leg + 17 * dt, 1e6 * leg]
    got, want = both_loops(cfg, init, 8.0 * leg, snapshot_times=times)
    assert len(want.snapshots) == len(times)
    assert_same_trace(got, want)


@pytest.mark.parametrize("steps", [0, 1, 2, 23, 161, 377])
def test_windowed_loop_matches_reference_at_any_horizon(steps):
    # most horizons end inside a quiet window, some on a phase end
    env = strip_env()
    init = strip_partition(env, cuts=(0.6, 1.9))
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(comm_rate=20.0, seed=6, time_step=leg / 40.0)
    got, want = both_loops(cfg, init, steps * (leg / 40),
                           snapshot_times=[0.5 * steps * leg / 40])
    assert_same_trace(got, want)


def phase_ends(starts, final_phase, steps, per_leg):
    """Every phase end as (step, agent, from, to), rebuilt from the
    loop's state at the start of each window and the phases it ends
    with: an agent's phase ends at the window's start step plus
    left - 1, and again every per_leg steps up to the next window. A
    WAIT_1 end with another end of the same agent after it in the
    window went on to WAIT_2; the last end of an agent in a window went
    to the phase the agent starts the next window in."""
    nexts = {ns.TRAVEL: ns.WAIT_1, ns.WAIT_2: ns.TRAVEL, ns.HOLD: ns.TRAVEL}
    bounds = [k for k, _, _ in starts[1:]] + [steps]
    afters = [phase for _, phase, _ in starts[1:]] + [final_phase]
    ends = []
    for (k, phase, left), k_end, after in zip(starts, bounds, afters):
        for a, (p, s) in enumerate(zip(phase, left)):
            step = k + s - 1
            while step < k_end:
                last = step + per_leg >= k_end
                nxt = after[a] if last else nexts.get(p, ns.WAIT_2)
                ends.append((step, a, p, nxt))
                p, step = nxt, step + per_leg
    return sorted(ends)


@pytest.mark.parametrize("per_leg", [1, 2, 3])
def test_windowed_loop_matches_reference_where_phases_meet(monkeypatch,
                                                           per_leg):
    # one to three steps per leg: windows are short, several phases
    # often end at one step, and a snapshot falls on every step
    env = strip_env()
    init = strip_partition(env, cuts=(0.7, 1.5, 2.2))
    leg = ns.leg_time(env, ns.NetConfig(speeds=(1.0,) * 4))
    cfg = ns.NetConfig(speeds=(1.0,) * 4, comm_rate=40.0, seed=per_leg,
                       time_step=leg / per_leg)
    steps = 30 * per_leg
    starts = []  # (k, phase, left) at each window's start
    live = []  # simulate's phase list, which it updates in place
    original = ns._window_positions

    def recording(width, per_leg, phase, left, *rest):
        # the loop's step counter, read from simulate's frame
        starts.append((sys._getframe(1).f_locals["k"], list(phase),
                       list(left)))
        live[:] = [phase]
        return original(width, per_leg, phase, left, *rest)

    monkeypatch.setattr(ns, "_window_positions", recording)
    got, want = both_loops(cfg, init, 30 * leg, snapshot_times=[
        s * leg / per_leg for s in range(steps + 1)])
    assert any(e.changed for e in want.events)
    assert_same_trace(got, want)

    # the windows cover every step, and some has width 1
    bounds = [k for k, _, _ in starts] + [steps]
    widths = np.diff(bounds)
    assert bounds[0] == 0 and (widths > 0).all() and 1 in widths
    ends = phase_ends(starts, live[0], steps, per_leg)
    counts = {}
    for _, _, p, nxt in ends:
        if p != ns.HOLD:
            counts[(p, nxt)] = counts.get((p, nxt), 0) + 1
    assert counts == got.transitions
    last_steps = {k - 1 for k in bounds[1:]}
    starts_leg = {step for step, _, _, nxt in ends if nxt == ns.TRAVEL}
    # every window but one the horizon cuts ends on a leg start, and
    # some ends where several phases end
    assert last_steps - {steps - 1} <= starts_leg
    assert max(sum(step == e for e, _, _, _ in ends)
               for step in last_steps) >= 2
    # a TRAVEL end and a WAIT_1 -> WAIT_2 end never end a window: both
    # fall strictly inside one
    for kind in ((ns.TRAVEL, ns.WAIT_1), (ns.WAIT_1, ns.WAIT_2)):
        assert any(step not in last_steps for step, _, p, nxt in ends
                   if (p, nxt) == kind)
    # a WAIT_1 -> TRAVEL end cuts one: it is its window's last step
    cuts = [step for step, _, p, nxt in ends if (p, nxt) == (ns.WAIT_1,
                                                            ns.TRAVEL)]
    assert cuts and set(cuts) <= last_steps


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_hold_is_not_an_epoch_phase(monkeypatch, seed):
    # several agents start in the hold: it ends in travel, draws nothing
    # and is counted nowhere, as the reference's held WAIT_1 has it
    env = strip_env()
    init = strip_partition(env, cuts=(0.7, 1.5, 2.2))
    leg = ns.leg_time(env, ns.NetConfig(speeds=(1.0,) * 4))
    cfg = ns.NetConfig(speeds=(1.0,) * 4, comm_rate=8.0, seed=seed,
                       time_step=leg / 20.0)
    first = []  # the phases simulate starts its first window with
    original = ns._window_positions

    def recording(width, per_leg, phase, *rest):
        if not first:
            first.append(list(phase))
        return original(width, per_leg, phase, *rest)

    monkeypatch.setattr(ns, "_window_positions", recording)
    got, want = both_loops(cfg, init, 6.0 * leg)
    assert first[0].count(ns.HOLD) >= 2
    assert got.transitions
    assert not any(ns.HOLD in key for key in got.transitions)
    assert_same_trace(got, want)


STRIP_WEIGHTS = st.lists(st.integers(1, 4), min_size=2, max_size=5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), weights=STRIP_WEIGHTS,
       speeds=st.lists(st.sampled_from([0.5, 0.8, 1.0, 1.3, 2.0]),
                       min_size=5, max_size=5),
       per_leg=st.sampled_from([1, 2, 3, 7, 40, 200]),
       radius=st.sampled_from([1.0, 2.0, math.inf]),
       rate=st.sampled_from([0.5, 20.0, math.inf]),
       legs=st.integers(1, 6),
       snaps=st.lists(st.floats(0.0, 1.2), max_size=4))
def test_windowed_loop_matches_reference_property(seed, weights, speeds,
                                                  per_leg, radius, rate,
                                                  legs, snaps):
    # 2 to 5 strips of the 3x1 rectangle, widths in proportion to weights
    env = strip_env()
    cuts = 3.0 * np.cumsum(weights)[:-1] / sum(weights)
    init = strip_partition(env, cuts=cuts.tolist())
    speeds = tuple(speeds[:len(weights)])
    leg = ns.leg_time(env, ns.NetConfig(speeds=speeds))
    cfg = ns.NetConfig(speeds=speeds, comm_radius=radius, comm_rate=rate,
                       seed=seed, time_step=leg / per_leg)
    duration = legs * leg
    got, want = both_loops(cfg, init, duration,
                           snapshot_times=[f * duration for f in snaps])
    assert_same_trace(got, want)


def test_windowed_loop_degenerates_like_reference(monkeypatch):
    env = strip_env()
    init = strip_partition(env, cuts=(0.6, 1.9))
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(comm_rate=8.0, seed=2, time_step=leg / 50.0)
    original = gp.partial_gossip_step
    outcomes = []
    for loop in (ns.simulate, oracles.simulate_ref):
        calls = []

        def failing(*args, **kwargs):
            calls.append(args[1:3])
            if len(calls) == 9:
                raise geo.VanishedRegion("forced at the ninth contact")
            return original(*args, **kwargs)

        monkeypatch.setattr(gp, "partial_gossip_step", failing)
        with pytest.raises(pt.DegenerateEvolution) as info:
            loop(cfg, init, DENS, QUAD, 10.0 * leg,
                 snapshot_times=[0.0, leg, 9.0 * leg])
        outcomes.append((info.value.step, calls, info.value.trace))
    (step, calls, got), (step_ref, calls_ref, want) = outcomes
    assert step == step_ref
    assert calls == calls_ref
    assert got.termination == "degenerate"
    assert len(got.events) == 8
    assert_same_trace(got, want)


def test_failed_waypoint_table_aborts_at_its_leg_start(monkeypatch):
    # a table simulate builds in mid-run fails. simulate_ref builds a
    # table on every draw and counts its steps one at a time, so failing
    # its table at the same draw gives the step on its own
    env = strip_env()
    init = strip_partition(env, cuts=(0.6, 1.9))
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(comm_rate=40.0, seed=5, time_step=leg / 20.0)
    table_of, draw = ns.waypoint_table, ns.random_destination
    tables, draws = [], []

    def table(region, env):
        tables.append(region)
        if len(tables) == fail_at:
            raise ns.SamplingExhausted("forced table failure")
        return table_of(region, env)

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(ns, "waypoint_table", table)
    monkeypatch.setattr(ns, "random_destination", counted)
    fail_at = 5
    with pytest.raises(pt.DegenerateEvolution) as info:
        ns.simulate(cfg, init, DENS, QUAD, 30.0 * leg)
    got, s = info.value.trace, info.value.step
    assert s > 0  # a leg start in mid-run, not a first draw
    assert got.termination == "degenerate"
    assert got.elapsed == (s + 1) * got.dt
    assert got.events and all(e.time <= s * got.dt for e in got.events)
    fail_at, tables = len(draws) + 1, []
    with pytest.raises(pt.DegenerateEvolution) as ref:
        oracles.simulate_ref(cfg, init, DENS, QUAD, 30.0 * leg)
    assert ref.value.step == s
    assert_same_trace(got, ref.value.trace)


@pytest.mark.parametrize("seed", [0, 3])
def test_exchange_memo_keeps_netsim_strip_bit_identical(monkeypatch, seed):
    # simulate_ref goes through the same memoized exchange, so the memo
    # is checked against every exchange run on a fresh copy of its
    # partition, which has nothing memoized
    env = strip_env()
    init = strip_partition(env, cuts=(0.6, 1.9))  # the netsim-strip preset
    cfg = ns.NetConfig(seed=seed)
    duration = 500.0 * ns.leg_time(env, cfg)  # the bench horizon
    # an exchange the memo does not answer looks up the centroids once
    computed = []
    centroids = pt.centroids

    def counted(*args):
        computed.append(args)
        return centroids(*args)

    monkeypatch.setattr(pt, "centroids", counted)
    memo = ns.simulate(cfg, init, DENS, QUAD, duration)
    assert 0 < len(computed) < len(memo.events) // 10
    original = gp.partial_gossip_step

    def fresh(p, *args):
        return original(pt.Partition(p.env, p.regions), *args)

    monkeypatch.setattr(gp, "partial_gossip_step", fresh)
    computed.clear()
    bypassed = ns.simulate(cfg, init, DENS, QUAD, duration)
    assert len(computed) == len(bypassed.events)
    assert_same_trace(memo, bypassed)


def reference_draws(monkeypatch, cfg, init, duration):
    """simulate_ref's trace and the (agent, region) of each of its
    waypoint draws; the agent is found in the partition the last trade
    left, the one the draw is made on."""
    table_of, partition_of = ns.waypoint_table, gp.partial_gossip_step
    state = {"current": init}
    draws = []

    def recording_table(region, env):
        agent, = [i for i, r in enumerate(state["current"].regions)
                  if r is region]
        draws.append((agent, region))
        return table_of(region, env)

    def tracking(*args, **kwargs):
        out = partition_of(*args, **kwargs)
        state["current"] = out.partition
        return out

    with monkeypatch.context() as m:
        m.setattr(ns, "waypoint_table", recording_table)
        m.setattr(gp, "partial_gossip_step", tracking)
        want = oracles.simulate_ref(cfg, init, DENS, QUAD, duration)
    return want, draws


def counted_simulate(monkeypatch, cfg, init, duration):
    """simulate's trace and the number of waypoint tables it built."""
    table_of = ns.waypoint_table
    built = []

    def counting(region, env):
        built.append(region)
        return table_of(region, env)

    with monkeypatch.context() as m:
        m.setattr(ns, "waypoint_table", counting)
        got = ns.simulate(cfg, init, DENS, QUAD, duration)
    return got, len(built)


def distinct_holdings(draws):
    # the draws keep their regions alive, so ids are not reused
    return len({(agent, id(region)) for agent, region in draws})


def test_simulate_builds_a_table_once_per_region_held(monkeypatch):
    env = strip_env()
    init = strip_partition(env, cuts=(0.6, 1.9))  # the netsim-strip preset
    cfg = ns.NetConfig(seed=0)
    duration = 80.0 * ns.leg_time(env, cfg)
    want, draws = reference_draws(monkeypatch, cfg, init, duration)
    got, built = counted_simulate(monkeypatch, cfg, init, duration)
    assert built == distinct_holdings(draws)
    assert 4 * built < len(draws)
    assert_same_trace(got, want)


def test_simulate_rebuilds_a_table_when_the_region_changes(monkeypatch):
    env = strip_env()
    init = strip_partition(env, cuts=(0.6, 1.9))
    leg = ns.leg_time(env, ns.NetConfig())
    cfg = ns.NetConfig(comm_rate=40.0, seed=5, time_step=leg / 20.0)
    want, draws = reference_draws(monkeypatch, cfg, init, 30.0 * leg)
    got, built = counted_simulate(monkeypatch, cfg, init, 30.0 * leg)
    # some agent's region changes between two of its own draws
    held = {}
    changed = 0
    for agent, region in draws:
        changed += agent in held and held[agent] is not region
        held[agent] = region
    assert changed > 0
    assert built == distinct_holdings(draws) == len(held) + changed
    assert_same_trace(got, want)


def test_windowed_loop_matches_reference_at_the_range_boundary():
    # comm_radius is the np.hypot distance of two start positions, where
    # both agents still hold at the first step: `<=` puts the pair in
    # range, and one ulp less of radius puts it out
    env = strip_env()
    init = pt.Partition(env, (
        geo.region_of([[0, 0], [1.2, 0], [0.7, 1], [0, 1]]),
        geo.region_of([[1.2, 0], [2.1, 0], [2.4, 1], [0.7, 1]]),
        geo.region_of([[2.1, 0], [3, 0], [3, 1], [2.4, 1]])))
    p, q = (ns._start_position(r) for r in init.regions[:2])
    radius = float(np.hypot(p[0] - q[0], p[1] - q[1]))
    firsts = []
    for r in (radius, math.nextafter(radius, 0.0)):
        cfg = ns.NetConfig(comm_radius=r, comm_rate=math.inf, seed=0)
        leg = ns.leg_time(env, cfg)
        got, want = both_loops(cfg, init, 0.1 * leg)
        assert_same_trace(got, want)
        firsts.append({e.pair for e in got.events if e.time == got.dt})
    assert firsts == [{(0, 1), (1, 2)}, {(1, 2)}]


def test_generator_block_draw_is_single_draws():
    # the windowed loop draws a window's coins with one random(m) call
    a = np.random.default_rng(99)
    b = np.random.default_rng(99)
    for m in (1, 5, 0, 37, 2, 200):
        assert a.integers(200) == b.integers(200)
        assert a.random() == b.random()
        block = a.random(m)
        singles = [b.random() for _ in range(m)]
        assert block.tolist() == singles
        assert a.integers(7) == b.integers(7)
    assert a.random() == b.random()


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


def test_analyze_log_gives_no_estimate_without_a_window():
    # 21 contacts in a run shorter than its window: counts and gaps, but
    # no hit rate and no narrower interval than [0, 1]
    events = synthetic_events(np.linspace(0.1, 2.9, 21))
    stats = ns.analyze_log(events, duration=3.0, window=5.0,
                           pairs=[(0, 1), (1, 2)])
    for pair, count in (((0, 1), 21), ((1, 2), 0)):
        s = stats[pair]
        assert (s["count"], s["windows"], s["hits"]) == (count, 0, 0)
        assert math.isnan(s["p"])
        assert (s["ci_low"], s["ci_high"]) == (0.0, 1.0)


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
    part, _ = pt.read_snapshot(io.StringIO(
        "".join(ln + "\n" for ln in lines[k + 1:])))
    assert pt.partition_distance(part, trace.final) <= 2 * env.tol_area


def test_comm_log_bytes_are_pinned():
    # 20 legs of the netsim-strip preset (243 contacts, 127 trades): a
    # change to the contact record or the writer that moves one byte of
    # the log shows here
    env = strip_env()
    cfg = ns.NetConfig(seed=0)
    trace = ns.simulate(cfg, strip_partition(env, (0.6, 1.9)), DENS, QUAD,
                        20 * ns.leg_time(env, cfg))
    buf = io.StringIO()
    ns.write_comm_log(trace, buf)
    assert (len(trace.events), sum(e.changed for e in trace.events)) == \
        (243, 127)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "950cf503816ee42424c927e112b110d9f66734e8f53bf6e7a1e1f11a984d22f4"
