"""Pair schedulers, the asynchronous evolution loop, and switching
diagnostics.

A scheduler picks which region pair exchanges at each step. The runner
applies the chosen exchange map, records the coverage cost and
degeneracy monitors, and stops on convergence (small fixed-point
residual), on budget exhaustion, or when a region degenerates.

Also included: per-pair window statistics of contact times, and a
pair of radial maps on the plane whose switched iterations show why
convergence needs persistent switching. The radius never increases
under either map, yet an adversarial schedule keeps the state circling
the unit circle forever instead of settling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import gossip as gp
from . import partition as pt
from .geometry import (Density, GeometryError, PerformanceFunction,
                       check_adjacency_delta)
from .partition import DegenerateEvolution, Partition, all_pairs


class RoundRobin:
    """Cycles through all pairs in lexicographic order."""

    def __init__(self, n: int):
        self.pairs = all_pairs(n)

    def select(self, t: int, partition: Partition) -> tuple[int, int]:
        return self.pairs[t % len(self.pairs)]


class Periodic:
    """Repeats a fixed pair sequence forever."""

    def __init__(self, sequence):
        self.sequence = [tuple(sorted(p)) for p in sequence]
        if not self.sequence:
            raise ValueError("periodic schedule needs at least one pair")

    def select(self, t: int, partition: Partition) -> tuple[int, int]:
        return self.sequence[t % len(self.sequence)]


class ExplicitSchedule:
    """Plays out a finite pair list; the run ends when it is exhausted."""

    def __init__(self, pairs):
        self.pairs = [tuple(sorted(p)) for p in pairs]

    def select(self, t: int, partition: Partition):
        if t >= len(self.pairs):
            return None
        return self.pairs[t]


class UniformRandom:
    """Independently uniform over all pairs."""

    def __init__(self, n: int, seed: int):
        self.pairs = all_pairs(n)
        self.rng = np.random.default_rng(seed)

    def select(self, t: int, partition: Partition) -> tuple[int, int]:
        return self.pairs[int(self.rng.integers(len(self.pairs)))]


class AdjacentRandom:
    """Uniform over pairs currently within delta of each other."""

    def __init__(self, seed: int, delta: float):
        check_adjacency_delta(delta)
        self.delta = float(delta)
        self.rng = np.random.default_rng(seed)

    def select(self, t: int, partition: Partition):
        pairs = pt.adjacency_pairs(partition, self.delta)
        if not pairs:
            return None
        return pairs[int(self.rng.integers(len(pairs)))]


class TraceStep(NamedTuple):
    t: int
    pair: tuple[int, int]
    h: float
    residual: float
    min_centroid_gap: float
    min_region_area: float
    max_piece_count: int


@dataclass
class EvolutionTrace:
    steps: list = field(default_factory=list)
    final: Partition | None = None
    termination: str = "step_budget"
    final_residual: float = math.nan
    stop_tol: float = math.nan
    snapshots: list = field(default_factory=list)

    def h_series(self) -> np.ndarray:
        return np.array([s.h for s in self.steps])


def run_evolution(initial: Partition, density: Density,
                  perf: PerformanceFunction, scheduler, *,
                  delta: float | None = None, budget: int = 5000,
                  stop_tol: float | None = None, check_every: int = 5,
                  snapshot_steps=()) -> EvolutionTrace:
    """Evolve a partition by scheduled pairwise exchanges.

    Without delta each step applies the full exchange; with one, the
    distance-limited exchange at that delta. The fixed-point residual is
    evaluated every check_every steps and for the final partition; the
    run stops once it reaches stop_tol (>= 0), which defaults to the
    environment's stop_tol, or when the scheduler returns None. Residual
    entries between evaluations repeat the most recent value. A budget
    not an int >= 0, or a check_every not an int >= 1, raises
    ValueError. A geometry failure inside a step aborts the run with
    DegenerateEvolution carrying the partial trace.
    The partition state is recorded before each step listed in
    snapshot_steps; steps past the end of the run record the final
    state.
    """
    if delta is not None:
        delta = gp.check_delta(initial.env, delta)
    mode = "adjacent" if isinstance(scheduler, AdjacentRandom) else "full"
    near = scheduler.delta if mode == "adjacent" else None

    def residual(p: Partition) -> float:
        return gp.fixed_point_residual(p, density, perf, mode=mode, delta=near)

    def step(t: int, current: Partition):
        choice = scheduler.select(t, current)
        if choice is None:
            return None
        i, j = choice
        if delta is None:
            out = gp.gossip_step(current, i, j, density, perf)
        else:
            out = gp.partial_gossip_step(current, i, j, delta, density, perf)
        return (i, j), out.partition, out.h_after

    return _evolve(initial, density, perf, step, residual, budget=budget,
                   stop_tol=stop_tol, check_every=check_every,
                   snapshot_steps=snapshot_steps)


def run_lloyd(initial: Partition, density: Density,
              perf: PerformanceFunction, *, budget: int = 5000,
              stop_tol: float | None = None,
              snapshot_steps=()) -> EvolutionTrace:
    """Synchronous comparison baseline: every region re-seats at once.

    Records the same trace shape, and stops, snapshots and fails by the
    same rules, as the pairwise runner, with the residual checked every
    step; the pair field is (-1, -1) since all regions move per step.
    """
    def step(t: int, current: Partition):
        nxt = gp.lloyd_step(current, density, perf)
        return (-1, -1), nxt, pt.centroid_cost(nxt, density, perf)

    return _evolve(initial, density, perf, step,
                   lambda p: gp.fixed_point_residual(p, density, perf),
                   budget=budget, stop_tol=stop_tol, check_every=1,
                   snapshot_steps=snapshot_steps)


def _evolve(initial: Partition, density: Density, perf: PerformanceFunction,
            step, residual_of, *, budget: int, stop_tol: float | None,
            check_every: int, snapshot_steps) -> EvolutionTrace:
    """The loop behind run_evolution and run_lloyd.

    step(t, partition) returns (pair, next partition, its cost H), or
    None to end the run; residual_of(partition) is the stop test's
    fixed-point residual. Both runners document the cadence, stop,
    snapshot and failure rules this loop applies.
    """
    stop_tol = initial.env.stop_tol if stop_tol is None else stop_tol
    if not stop_tol >= 0.0:  # NaN too
        raise ValueError(f"stop_tol must be >= 0, got {stop_tol!r}")
    if not (isinstance(budget, Integral) and budget >= 0):
        raise ValueError(f"budget: need an int >= 0, got {budget!r}")
    if not (isinstance(check_every, Integral) and check_every >= 1):
        raise ValueError(f"check_every: need an int >= 1, got {check_every!r}")
    trace = EvolutionTrace(stop_tol=stop_tol)
    current = initial
    snaps = sorted(set(int(s) for s in snapshot_steps))
    for t in range(budget):
        while snaps and snaps[0] <= t:
            trace.snapshots.append((snaps.pop(0), current))
        if t % check_every == 0:
            residual = residual_of(current)
            if residual <= stop_tol:
                break
        try:
            moved = step(t, current)
        except GeometryError as exc:
            trace.termination = "degenerate"
            trace.final = current
            raise DegenerateEvolution(str(exc), step=t, trace=trace) from exc
        if moved is None:
            break
        pair, current, h = moved
        trace.steps.append(TraceStep(
            t, pair, h, residual,
            *pt.degeneracy_report(current, density, perf)))
    residual = residual_of(current)  # read from pair_cache if just checked
    trace.termination = "converged" if residual <= stop_tol else "step_budget"
    trace.final = current
    for s in snaps:
        trace.snapshots.append((s, current))
    trace.final_residual = residual
    return trace


# ---------------------------------------------------------------------------
# trace serialization

def write_trace(trace: EvolutionTrace, path_or_file):
    """Line format: t i j h residual min_gap min_area max_pieces.

    Every float is written as the repr of a Python float, so a numpy
    scalar in a step reads back as the number, not as np.float64(...).
    """
    with pt._opened(path_or_file, "w") as f:
        f.write("# t i j h residual min_centroid_gap min_region_area max_pieces\n")
        for s in trace.steps:
            f.write(f"{s.t} {s.pair[0]} {s.pair[1]} {float(s.h)!r} "
                    f"{float(s.residual)!r} {float(s.min_centroid_gap)!r} "
                    f"{float(s.min_region_area)!r} {s.max_piece_count}\n")
        f.write(f"# termination {trace.termination} "
                f"residual {float(trace.final_residual)!r}\n")
        if trace.final is not None:
            pt.write_snapshot(trace.final, f,
                              step=trace.steps[-1].t if trace.steps else 0)


# ---------------------------------------------------------------------------
# per-pair window statistics

def _wilson(k: int, n: int):
    """(p, low, high): the hit rate k / n with its 95 % Wilson score
    interval. With no trial there is no estimate: p is NaN and the
    interval the whole of [0, 1]."""
    if n == 0:
        return math.nan, 0.0, 1.0
    z = 1.959963984540054
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return p, max(center - half, 0.0), min(center + half, 1.0)


def window_statistics(times, duration: float, window: float) -> dict:
    """One pair's contact statistics over a run of the given duration,
    its contacts at the sorted times: their count, the largest gap
    between consecutive contacts (run boundaries included), and the
    share of the int(duration / window) disjoint windows holding one
    (p) with its 95 % Wilson interval. A run shorter than one window has
    no window to count: p is NaN and the interval [0, 1]."""
    n_windows = int(duration / window)
    bounds = [0.0, *times, duration]
    hits = len({int(x / window) for x in times if x < n_windows * window})
    p, lo, hi = _wilson(hits, n_windows)
    return {"count": len(times),
            "max_gap": float(max(b - a for a, b in zip(bounds, bounds[1:]))),
            "p": p, "ci_low": lo, "ci_high": hi, "windows": n_windows,
            "hits": hits}


# ---------------------------------------------------------------------------
# radial counterexample maps (polar coordinates, angle kept in [0, 2*pi))

TWO_PI = 2.0 * math.pi
POLAR_MODES = ("alternating", "adversarial")


def polar_spiral(rho: float, theta: float) -> tuple[float, float]:
    """Radial contraction that rotates while outside the unit circle."""
    if rho <= 1.0:
        return rho * rho, theta
    return (2.0 * rho - 1.0) / rho, (theta + rho - 1.0) % TWO_PI


def polar_damp(rho: float, theta: float) -> tuple[float, float]:
    """Shrinks the radius on the upper half-plane, identity below."""
    if 0.0 <= theta <= math.pi:
        return (1.0 - math.sin(theta)) * rho, theta
    return rho, theta


@dataclass
class PolarTrace:
    states: np.ndarray  # (n+1, 2) of (rho, theta)
    labels: list  # applied map name per step


def run_polar(mode: str, steps: int, rho0: float,
              theta0: float = 0.0) -> PolarTrace:
    """Switched iteration of the two radial maps.

    "alternating" applies spiral, damp, spiral, ... . "adversarial"
    applies damp only when the angle sits in the lower half-circle and
    the previous applied map was the spiral; there the damp map is the
    identity, so the radius still only decreases through the spiral, and
    the state keeps circling instead of converging.
    """
    if mode not in POLAR_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rho, theta = float(rho0), float(theta0) % TWO_PI
    states = [(rho, theta)]
    labels = []
    last_was_spiral = False
    for t in range(steps):
        if mode == "alternating":
            use_damp = (t % 2 == 1)
        else:
            use_damp = (math.pi <= theta <= TWO_PI) and last_was_spiral
        if use_damp:
            rho, theta = polar_damp(rho, theta)
            last_was_spiral = False
            labels.append("damp")
        else:
            rho, theta = polar_spiral(rho, theta)
            last_was_spiral = True
            labels.append("spiral")
        states.append((rho, theta))
    return PolarTrace(states=np.array(states), labels=labels)


def circular_spread(angles) -> float:
    """Arc length covered: full circle minus the largest angular gap."""
    a = np.sort(np.asarray(angles, dtype=float) % TWO_PI)
    if len(a) < 2:
        return 0.0
    gaps = np.diff(a)
    wrap = a[0] + TWO_PI - a[-1]
    return TWO_PI - max(float(gaps.max()), float(wrap))


def distance_to_polar_limit_set(rho: float, theta: float) -> float:
    """Distance to {radius 1, lower half-circle} union {origin}."""
    theta = theta % TWO_PI
    x = rho * math.cos(theta)
    y = rho * math.sin(theta)
    if math.pi <= theta <= TWO_PI:
        d_arc = abs(rho - 1.0)
    else:
        d_arc = min(math.hypot(x + 1.0, y), math.hypot(x - 1.0, y))
    return min(d_arc, rho)
