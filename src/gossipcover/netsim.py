"""Robotic-network simulation that drives the distance-limited exchange.

One agent per region. Each agent loops through a three-phase epoch
machine: travel to a waypoint sampled near its region's internal
boundary, wait there for one leg time, then with probability one half
wait a second leg before traveling again. All phases last exactly one
leg time d = diam(Q) / min speed, so agents with different start
offsets stay desynchronized forever.

Pairs of agents within communication radius exchange territory at the
sample times of a rate-limited Poisson process, discretized to the
fixed simulation step: per step an in-range pair trades with
probability 1 - exp(-rate * dt). Each trade applies the
distance-limited pairwise map to the shared partition, so the coverage
cost never increases and far-apart regions are left alone.

Motion depends on the step alone until an agent starts a leg, so the
simulation goes a window at a time: the steps up to and including the
next leg start, with positions, pair distances and coins from array
operations (see simulate).

A waypoint is drawn from its region's waypoint table: the internal
boundary's segments and their running lengths (waypoint_table). A draw
takes four random numbers and a few float operations; only one whose
offset comes within rounding of the margin runs a distance test
(random_destination).
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from . import gossip as gp
from . import partition as pt
from .geometry import Density, GeometryError, PerformanceFunction, Region
from .partition import DegenerateEvolution, Environment, Partition
from .switching import window_statistics


class SamplingExhausted(GeometryError):
    """Waypoint rejection sampling ran out of attempts."""


# phases of the epoch machine; every phase lasts exactly one leg time.
# HOLD is the start offset, not an epoch phase: it lasts under one leg,
# always ends in travel, draws nothing and is not counted
TRAVEL = "travel"
WAIT_1 = "wait1"
WAIT_2 = "wait2"
HOLD = "hold"
# the most phase ends, its current one included, that an agent in each
# phase can reach before it starts a leg
_PHASES_TO_LEG = {TRAVEL: 3, WAIT_1: 2, WAIT_2: 1, HOLD: 1}


def epoch_transition(phase: str, rng) -> str:
    """One step of the three-phase chain.

    travel -> wait1 always; wait1 -> travel or wait2 with equal
    probability; wait2 -> travel always. The stationary split makes a
    full epoch last two or three legs with equal probability.
    """
    if phase == TRAVEL:
        return WAIT_1
    if phase == WAIT_1:
        return TRAVEL if rng.random() < 0.5 else WAIT_2
    if phase == WAIT_2:
        return TRAVEL
    raise ValueError(f"unknown phase {phase!r}")


@dataclass(frozen=True)
class NetConfig:
    """Motion and communication parameters for the network simulation.

    The waypoint margin (how far destinations may sit from the internal
    boundary) and the trade range of the distance-limited map must both
    stay below a quarter of the communication radius, otherwise waiting
    agents are not guaranteed to hear each other across a shared edge.
    time_step defaults to 1/200 of the leg time; an explicit value is
    snapped so that a leg is a whole number of steps.

    Every field is a number, never NaN. comm_radius and comm_rate may be
    infinite, the limits in which every pair is always in range and an
    in-range pair trades at every step; every other field is finite.
    """

    speeds: tuple = (1.0, 1.0, 1.0)
    comm_radius: float = 1.0
    comm_rate: float = 2.0
    waypoint_margin: float = 0.2
    delta: float = 0.2
    time_step: float | None = None
    seed: int = 0

    def __post_init__(self):
        num = geo._number  # a str or None fails each test as NaN does
        if len(self.speeds) == 0 or not all(0.0 < num(s) < math.inf
                                            for s in self.speeds):
            raise ValueError(f"speeds must be finite and positive, "
                             f"got {self.speeds!r}")
        if not 0.0 < num(self.comm_radius) <= math.inf:
            raise ValueError(f"comm_radius must be positive, "
                             f"got {self.comm_radius!r}")
        if not 0.0 <= num(self.comm_rate) <= math.inf:
            raise ValueError(f"comm_rate must be non-negative, "
                             f"got {self.comm_rate!r}")
        # NaN fails these too, and so does infinity: it is not below
        # a quarter of any radius, infinite or not
        if not 0.0 < num(self.waypoint_margin) < 0.25 * self.comm_radius:
            raise ValueError(f"waypoint_margin must sit in (0, comm_radius/4),"
                             f" got {self.waypoint_margin!r}")
        if not 0.0 < num(self.delta) < 0.25 * self.comm_radius:
            raise ValueError(f"delta must sit in (0, comm_radius/4), "
                             f"got {self.delta!r}")
        if (self.time_step is not None
                and not 0.0 < num(self.time_step) < math.inf):
            raise ValueError(f"time_step must be finite and positive, "
                             f"got {self.time_step!r}")


def check_fleet(config: NetConfig, n: int):
    """Refuse fewer than two agents, or speeds not one per agent."""
    if n < 2:
        raise ValueError(f"netsim needs at least two regions, got n = {n}")
    if len(config.speeds) != n:
        raise ValueError(f"{len(config.speeds)} speeds for {n} regions")


def leg_time(env: Environment, config: NetConfig) -> float:
    """Duration of every phase: the environment diameter at the slowest
    agent's speed, so any travel leg can finish in time."""
    return env.diameter / float(min(config.speeds))


def _steps_per_leg(env: Environment, config: NetConfig) -> int:
    if config.time_step is None:
        return 200
    return max(1, round(leg_time(env, config) / config.time_step))


# ---------------------------------------------------------------------------
# waypoint sampling

# rejection draws for one waypoint before sampling gives up
_MAX_WAYPOINT_DRAWS = 10_000


def _covered_span(poly, a: tuple, b: tuple, tol: float):
    """(lo, hi): the parameters of the segment a + t (b - a), 0 <= t <= 1,
    that lie in the convex piece grown by tol; hi <= lo when the two
    meet at most in a point."""
    (ax, ay), (bx, by) = a, b
    lo, hi = 0.0, 1.0
    for vx, vy, ex, ey, length in poly.edges:
        # signed distances of a and b from the edge's line, inside >= 0
        fa = (ex * (ay - vy) - ey * (ax - vx)) / length
        fb = (ex * (by - vy) - ey * (bx - vx)) / length
        if fa >= -tol and fb >= -tol:
            continue
        if fa < -tol and fb < -tol:
            return 0.0, 0.0
        cross = fa / (fa - fb)  # where the segment meets the line
        if fa < -tol:
            lo = max(lo, cross)
        else:
            hi = min(hi, cross)
    return lo, hi


def _uncovered_spans(a: tuple, b: tuple, length: float, others,
                     tol: float) -> list:
    """The parameter spans of the segment a -> b, of the given length,
    that no other piece covers: [(0.0, 1.0)] when none covers more than
    tol of it, and no span of tol or less otherwise."""
    spans = [(lo, hi) for lo, hi in (_covered_span(other, a, b, tol)
                                     for other in others)
             if (hi - lo) * length > tol]
    if not spans:
        return [(0.0, 1.0)]
    free, t = [], 0.0
    for lo, hi in sorted(spans) + [(1.0, 1.0)]:
        if (lo - t) * length > tol:
            free.append((t, lo))
        t = max(t, hi)
    return free


def internal_boundary_segments(region: Region, env: Environment):
    """Edges of the region's pieces that lie neither on the environment
    wall nor on a seam between two pieces of the same region.

    An edge that another piece of the region covers in part, where a
    seam meets it at a T-junction, keeps only its uncovered parts. A
    needle, a piece whose width 2 * area / (longest edge) is at most
    env.wall_tol, covers nothing. Returns (starts, ends) arrays; empty
    when the region has no internal boundary (it covers the whole
    environment).
    """
    tol = env.wall_tol
    wall = env.polygon.vertices
    wall_next = geo._cyclic_next(wall)
    starts, ends = [], []
    solid = [q for q in region.pieces
             if 2.0 * q.area > tol * max(e[4] for e in q.edges)]
    for piece in region.pieces:
        v = piece.vertices
        nxt = geo._cyclic_next(v)
        mid = 0.5 * (v + nxt)
        # an edge is on the wall when both ends and its midpoint are
        d = geo._points_segments_distance(np.concatenate((v, nxt, mid)),
                                          wall, wall_next)
        inner = ~(d.reshape(3, -1) <= tol).all(axis=0)
        others = [q for q in solid if q is not piece]
        for j in np.flatnonzero(inner).tolist():
            a, b = v[j], nxt[j]
            for lo, hi in _uncovered_spans(tuple(a.tolist()),
                                           tuple(b.tolist()),
                                           piece.edges[j][4], others, tol):
                starts.append(a if lo == 0.0 else a + lo * (b - a))
                ends.append(b if hi == 1.0 else a + hi * (b - a))
    if not starts:
        return np.zeros((0, 2)), np.zeros((0, 2))
    return np.array(starts), np.array(ends)


# random_destination accepts a draw whose offset is at most
# margin - _SLACK * (scale + margin) without a distance test; its
# docstring derives the bound
_SLACK = 64 * sys.float_info.epsilon


@dataclass(frozen=True)
class WaypointTable:
    """A region's internal boundary as random_destination reads it.

    starts, ends: the segments as (m, 2) arrays, for the distance test;
    segments: the same as (sx, sy, ex, ey) rows of Python floats; cum:
    the running sum of their lengths as Python floats; scale: the
    largest coordinate magnitude of any segment end.
    """

    starts: np.ndarray
    ends: np.ndarray
    segments: list
    cum: list
    scale: float


def _segment_table(starts: np.ndarray, ends: np.ndarray) -> WaypointTable:
    """A fresh waypoint table of the segments (starts[k], ends[k])."""
    if len(starts) == 0:
        raise SamplingExhausted("region has no internal boundary")
    cum = np.cumsum(np.hypot(*(ends - starts).T))
    if cum[-1] <= 0.0:
        raise SamplingExhausted("internal boundary has zero length")
    return WaypointTable(starts, ends, np.hstack((starts, ends)).tolist(),
                         cum.tolist(),
                         float(np.abs(np.vstack((starts, ends))).max()))


def waypoint_table(region: Region, env: Environment) -> WaypointTable:
    """The region's internal boundary segments and the running sum of
    their lengths, what random_destination draws from, memoized in
    region.cache under env.polygon, a key no centroid entry uses."""
    if env.polygon not in region.cache:
        region.cache[env.polygon] = _segment_table(
            *internal_boundary_segments(region, env))
    return region.cache[env.polygon]


def random_destination(table: WaypointTable, margin: float,
                       rng) -> tuple[float, float]:
    """Uniform sample near a region's internal boundary, from its
    waypoint table, as an (x, y) pair of floats.

    Draws an arc-length-uniform boundary point b on segment k, offsets
    it by r = margin * sqrt(v), v uniform, in a uniform direction to q,
    and rejects draws that fall farther than the margin from the
    internal boundary.

    The segment is the first whose running length reaches the first
    draw times the total (bisect_left, the index np.searchsorted gives),
    and b and q take the IEEE operations of the array form that tests
    keep as an oracle, so each draw equals it to the bit.

    The accept bound. The exact q lies within r of segment k, and
    rounding moves the computed q and its computed distance by a few
    units u = eps / 2 of the magnitudes they meet. With S the table's
    scale and m the margin:
    - b = s + t (e - s) is off the segment by at most 5 u S a coordinate;
    - |r (cos, sin)| <= r (1 + 3 u) with a faithful cos and sin, and
      the sum b + r (cos, sin) adds u (S + m) a coordinate, so q is
      within r + 9 u (S + m) of the segment;
    - geometry._points_segments_distance rounds q - s, the projection
      parameter, the foot point and the root, which adds at most
      38 u S + 8 u m.
    So the computed distance to segment k, and with it the minimum over
    all segments, is at most r + 48 u (S + m) = r + 24 eps (S + m). A
    draw with r <= m - _SLACK (S + m), _SLACK = 64 eps, is accepted
    with no distance test, and its cost does not depend on the number
    of segments. Only a draw in the band above that bound runs the
    distance test, and only there can the loop reject and draw again.
    """
    segments, cum = table.segments, table.cum
    total = cum[-1]
    sure = margin - _SLACK * (table.scale + margin)
    for _ in range(_MAX_WAYPOINT_DRAWS):
        sx, sy, ex, ey = segments[bisect_left(cum, rng.random() * total)]
        t = rng.random()
        bx, by = sx + t * (ex - sx), sy + t * (ey - sy)
        r = margin * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        q = (bx + r * math.cos(ang), by + r * math.sin(ang))
        if r <= sure or float(geo._points_segments_distance(
                np.array([q]), table.starts, table.ends)[0]) <= margin:
            return q
    raise SamplingExhausted(f"no valid waypoint in {_MAX_WAYPOINT_DRAWS} draws")


# ---------------------------------------------------------------------------
# agents and the simulation loop

class CommEvent(NamedTuple):
    time: float
    pair: tuple[int, int]
    changed: bool
    traded_area: float
    h: float


@dataclass
class NetTrace:
    config: NetConfig
    leg: float
    dt: float
    events: list = field(default_factory=list)
    transitions: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)
    final: Partition | None = None
    termination: str = "horizon"
    elapsed: float = 0.0

    def h_series(self) -> np.ndarray:
        return np.array([e.h for e in self.events])


def _start_position(region: Region) -> np.ndarray:
    big = max(region.pieces, key=lambda p: p.area)
    return geo.mass_centroid(Region((big,)), geo.UniformDensity())


def _window_positions(width: int, per_leg: int, phase: list, left: list,
                      pos: list, start: list, dest: list):
    """(xs, ys): every agent's position over the next width steps, rows
    steps and columns agents, up to and including the first step at
    which an agent starts a leg; the rows past it are not positions.

    A traveling agent at step r of the window has left[a] - r - 1 steps
    to go and sits at start + frac * (dest - start), the one-step
    formula; at the step that ends its leg frac is 1.0, and it stays
    1.0 past it, where the agent waits at the end of the leg.
    """
    n = len(phase)
    steps = np.arange(1, width + 1)
    xs = np.empty((width, n))
    ys = np.empty((width, n))
    for a in range(n):
        if phase[a] == TRAVEL:
            frac = np.minimum((per_leg - left[a] + steps) / per_leg, 1.0)
            (sx, sy), (ex, ey) = start[a], dest[a]
            xs[:, a] = sx + frac * (ex - sx)
            ys[:, a] = sy + frac * (ey - sy)
        else:
            xs[:, a], ys[:, a] = pos[a]
    return xs, ys


def simulate(config: NetConfig, initial: Partition, density: Density,
             perf: PerformanceFunction, duration: float, *,
             snapshot_times=()) -> NetTrace:
    """Run the network for the given duration of simulated time.

    Agents start at their region's reference point, hold still (HOLD)
    for their clock offset, uniform over one leg, then loop through the
    epoch machine. Each simulation step advances motion first and then
    flips a coin per in-range pair for a trade. A geometry failure, in
    a trade (a vanished region) or in a waypoint draw (a region with no
    internal boundary to draw near), aborts the run with
    DegenerateEvolution at its step, the partial trace attached. A delta
    beyond the environment's diameter/10, or a duration that is not
    finite and >= 0, raises ValueError before the first draw.

    The loop goes a window at a time: the steps up to and including the
    next one at which an agent starts a leg (or the horizon). Until
    then motion depends on the step alone, and no agent starts a leg
    later than the end of its HOLD, of its WAIT_2, or of the WAIT_1
    that may end in one. So one _window_positions call gives the
    positions up to the first such step and one np.hypot test their
    in-range (step, pair) entries. The phase ends inside go in step
    order, then agent order, as one step at a time would: one
    rng.random call draws the coins of the entries before the step
    (rng.random(m) is the same stream as m single draws) and their
    trades run, then the step's transitions are made. A TRAVEL end
    draws nothing and a WAIT_1 end draws its coin, and the window goes
    on past both unless the coin starts a leg. A leg start draws its
    waypoint and cuts the window at its step; the rows past it go
    unused. A last call draws the coins up to the window's end. Every
    trade is one gp.partial_gossip_step call, in (step, pair) order,
    and a snapshot is taken before the first trade at or after its
    step.
    """
    env = initial.env
    n = initial.n
    check_fleet(config, n)
    gp.check_delta(env, config.delta)
    if not 0.0 <= geo._number(duration) < math.inf:  # NaN too
        raise ValueError(f"duration must be finite and >= 0, got {duration!r}")
    leg = leg_time(env, config)
    per_leg = _steps_per_leg(env, config)
    dt = leg / per_leg
    p_comm = 1.0 - math.exp(-config.comm_rate * dt)
    rng = np.random.default_rng(config.seed)
    current = initial
    trace = NetTrace(config=config, leg=leg, dt=dt)
    counts = trace.transitions

    # agent state; positions are (x, y) pairs of Python floats
    phase, left, pos = [], [], []
    for i in range(n):
        pos.append(tuple(_start_position(current.regions[i]).tolist()))
        hold = int(rng.integers(per_leg))
        phase.append(HOLD if hold > 0 else TRAVEL)
        left.append(hold if hold > 0 else per_leg)

    def degenerate(exc, step, t):
        """The abort of a geometry failure at the step, at time t."""
        trace.final = current
        trace.termination = "degenerate"
        trace.elapsed = t
        return DegenerateEvolution(str(exc), step=step, trace=trace)

    def waypoint(a, step, t):
        try:
            return random_destination(waypoint_table(current.regions[a], env),
                                      config.waypoint_margin, rng)
        except GeometryError as exc:
            raise degenerate(exc, step, t) from exc

    start, dest = list(pos), list(pos)
    for a in range(n):
        if phase[a] == TRAVEL:
            dest[a] = waypoint(a, 0, 0.0)

    pairs = pt.all_pairs(n)
    first, second = np.array(pairs).T
    snap_times = sorted(float(t) for t in snapshot_times)
    snap_idx = 0
    total_steps = max(0, round(duration / dt))
    new_event = tuple.__new__  # CommEvent's own __new__ is a Python call

    def contacts(lo, hi):
        """Draw the coins of the window's in-range entries lo:hi and
        run their trades."""
        nonlocal current, snap_idx
        trade = rng.random(hi - lo) < p_comm
        for r, c in zip(rows[lo:hi][trade].tolist(),
                        cols[lo:hi][trade].tolist()):
            step = k + r
            while (snap_idx < len(snap_times)
                   and snap_times[snap_idx] <= step * dt + 0.5 * dt):
                trace.snapshots.append((snap_times[snap_idx], current))
                snap_idx += 1
            t = (step + 1) * dt
            i, j = pairs[c]
            try:
                out = gp.partial_gossip_step(current, i, j, config.delta,
                                             density, perf)
            except GeometryError as exc:
                raise degenerate(exc, step, t) from exc
            current = out.partition
            trace.events.append(new_event(CommEvent, (
                t, (i, j), out.changed, out.traded_area, out.h_after)))
        return hi

    k = 0
    while k < total_steps:
        # the (step, agent) phase ends up to each agent's latest leg
        # start: after its travel and both waits, or at the end of a hold
        ends, width = [], total_steps - k
        for a in range(n):
            count = _PHASES_TO_LEG[phase[a]]
            ends += [(left[a] - 1 + q * per_leg, a) for q in range(count)]
            width = min(width, left[a] + (count - 1) * per_leg)
        ends = sorted(e for e in ends if e[0] < width)
        xs, ys = _window_positions(width, per_leg, phase, left, pos, start,
                                   dest)
        rows, cols = np.nonzero(np.hypot(xs[:, first] - xs[:, second],
                                         ys[:, first] - ys[:, second])
                                <= config.comm_radius)
        drawn = 0
        for r, a in ends:
            if r >= width:  # past the step a leg start cut the window at
                break
            drawn = contacts(drawn, int(np.searchsorted(rows, r)))
            if phase[a] == HOLD:
                nxt = TRAVEL
            else:
                nxt = epoch_transition(phase[a], rng)
                key = (phase[a], nxt)
                counts[key] = counts.get(key, 0) + 1
            if nxt == TRAVEL:
                start[a] = (float(xs[r, a]), float(ys[r, a]))
                dest[a] = waypoint(a, k + r, (k + r + 1) * dt)
                width = r + 1
            phase[a] = nxt
            left[a] = r + 1 + per_leg  # counted from the window's start
        contacts(drawn, int(np.searchsorted(rows, width)))
        pos = list(zip(xs[width - 1].tolist(), ys[width - 1].tolist()))
        left = [s - width for s in left]
        k += width
    while snap_idx < len(snap_times):
        trace.snapshots.append((snap_times[snap_idx], current))
        snap_idx += 1
    trace.final = current
    trace.elapsed = total_steps * dt
    return trace


# ---------------------------------------------------------------------------
# log analysis

def analyze_log(events, duration: float, window: float, pairs) -> dict:
    """switching.window_statistics of each pair's contacts over a
    finished run."""
    if window <= 0.0 or duration <= 0.0:
        raise ValueError("duration and window must be positive")
    times = {tuple(sorted(p)): [] for p in pairs}
    for e in events:
        key = tuple(sorted(e.pair))
        if key in times:
            times[key].append(e.time)
    return {key: window_statistics(ts, duration, window)
            for key, ts in times.items()}


def write_comm_log(trace: NetTrace, path_or_file):
    """Line format: time i j changed h (shared with the step traces)."""
    with pt._opened(path_or_file, "w") as f:
        f.write("# time i j changed h\n")
        for e in trace.events:
            f.write(f"{e.time!r} {e.pair[0]} {e.pair[1]} "
                    f"{int(e.changed)} {e.h!r}\n")
        f.write(f"# termination {trace.termination} elapsed {trace.elapsed!r}\n")
        if trace.final is not None:
            pt.write_snapshot(trace.final, f)
