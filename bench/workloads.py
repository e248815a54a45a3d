"""Workloads, unit runners and correctness gates of the benchmark.

A unit is one call into the program on one pinned instance: a
run_evolution call for the rect6 workloads, a simulate call for
netsim-strip. Every instance in the panel (panel.json) carries the
fingerprint of its trajectory, recorded by record.py, and every unit
run is checked against it outside the timed region.
"""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import netsim as ns
from gossipcover import partition as pt
from gossipcover import switching as sw

HERE = Path(__file__).resolve().parent
PANEL_PATH = HERE / "panel.json"
FIXTURE_PATH = HERE / "fixtures" / "rect6-adjacent-step300.snapshot"

DENSITY = geo.UniformDensity()
PERF = {"quadratic": geo.quadratic_performance(),
        "linear": geo.linear_performance()}
DELTA = 1e-9         # adjacency threshold of rect6-adjacent
CHECK_EVERY = 5
H_SLACK = 1e-9       # per-step H increase criterion 01 tolerates
REL_H = 1e-7         # fingerprint tolerance on the final cost
REL_RESIDUAL = 1e-4  # fingerprint tolerance on the final residual
# the netsim-strip preset: three agents on a 3x1 rectangle cut at 0.6, 1.9
STRIP_CUTS = (0.6, 1.9)
NET_DEFAULTS = dict(speeds=(1.0, 1.0, 1.0), comm_radius=1.0, comm_rate=2.0,
                    waypoint_margin=0.2, delta=0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str       # "evolution" or "netsim"
    perf: str
    schedule: str   # "adjacent", "round_robin" or "contacts"
    length: dict    # size -> step budget (evolution) or horizon legs (netsim)
    monotone_h: bool  # the program's H is exact, so it must never rise


WORKLOADS = {w.name: w for w in (
    Workload("rect6-adjacent", "evolution", "quadratic", "adjacent",
             {"full": 150, "tiny": 10}, True),
    Workload("netsim-strip", "netsim", "quadratic", "contacts",
             {"full": 500, "tiny": 10}, True),
    # linear cost evaluates H by order-6 quadrature of a kinked integrand,
    # so H may rise; the rises are pinned in the fingerprint instead
    Workload("rect6-linear-rr", "evolution", "linear", "round_robin",
             {"full": 60, "tiny": 10}, False),
)}


class _Stamped:
    """Stamps every select call; the gaps between stamps are the steps.

    Subclassing keeps run_evolution's isinstance choice of residual mode.
    """

    def select(self, t, partition):
        self.stamps.append(perf_counter())
        if self.tracer is None:
            return super().select(t, partition)
        return self.tracer.call("switching.select", super().select,
                                t, partition)


class StampedAdjacent(_Stamped, sw.AdjacentRandom):
    pass


class StampedRoundRobin(_Stamped, sw.RoundRobin):
    pass


def rect6_initial(seed: int) -> pt.Partition:
    """Criterion 01's start: six seeded Voronoi cells of a 2x1 rectangle."""
    env = pt.rectangle(2.0, 1.0)
    rng = np.random.default_rng(seed)
    return pt.voronoi(env, rng.uniform([0.1, 0.1], [1.9, 0.9], (6, 2)))


def strip_initial() -> pt.Partition:
    env = pt.rectangle(3.0, 1.0)
    xs = (0.0,) + STRIP_CUTS + (3.0,)
    return pt.Partition(env, tuple(
        geo.region_of([[a, 0.0], [b, 0.0], [b, 1.0], [a, 1.0]])
        for a, b in zip(xs, xs[1:])))


def build(w: Workload, seed: int):
    """Set-up of one instance: the initial partition, and the scheduler
    (evolution) or network config (netsim) that moves it."""
    if w.kind == "netsim":
        return strip_initial(), ns.NetConfig(seed=seed, **NET_DEFAULTS)
    initial = rect6_initial(seed)
    if w.schedule == "adjacent":
        sched = StampedAdjacent(seed=seed, delta=DELTA)
    else:
        sched = StampedRoundRobin(initial.n)
    return initial, sched


@dataclass
class UnitResult:
    run_s: float
    step_s: list
    fingerprint: dict
    final: pt.Partition
    snapshots: list


def run_unit(w: Workload, seed: int, length: int, tracer=None,
             snapshot_steps=()) -> UnitResult:
    """One timed call into the program; the fingerprint is taken after.

    length is the step budget of an evolution or the horizon in legs of
    a netsim run.
    """
    initial, dynamics = build(w, seed)
    perf = PERF[w.perf]
    if w.kind == "evolution":
        dynamics.stamps, dynamics.tracer = [], tracer
        start = perf_counter()
        trace = sw.run_evolution(initial, DENSITY, perf, dynamics,
                                 budget=length, check_every=CHECK_EVERY,
                                 snapshot_steps=snapshot_steps)
        run_s = perf_counter() - start
        step_s = np.diff(dynamics.stamps).tolist()
        fp = {"steps": len(trace.steps), "termination": trace.termination,
              "residual": float(trace.final_residual),
              "max_pieces": max(s.max_piece_count for s in trace.steps)}
    else:
        step_s = []
        duration = length * ns.leg_time(initial.env, dynamics)
        original = gp.partial_gossip_step
        if tracer is None:
            def timed(*args, **kwargs):
                t0 = perf_counter()
                out = original(*args, **kwargs)
                step_s.append(perf_counter() - t0)
                return out
            gp.partial_gossip_step = timed
        try:
            start = perf_counter()
            trace = ns.simulate(dynamics, initial, DENSITY, perf, duration)
            run_s = perf_counter() - start
        finally:
            gp.partial_gossip_step = original
        fp = {"contacts": len(trace.events), "termination": trace.termination,
              "changed": sum(e.changed for e in trace.events),
              "max_pieces": max(len(r.pieces) for r in trace.final.regions)}
    # taken after the timed call, so that it cannot warm the cost memo
    h0 = pt.centroid_cost(initial, DENSITY, perf)
    hs = np.concatenate([[h0], trace.h_series()])
    rises = np.diff(hs)
    fp["h"] = float(hs[-1])
    fp["h_rises"] = int(np.count_nonzero(rises > H_SLACK))
    if w.kind == "evolution":
        # an exchange that trades nothing leaves the partition, and so the
        # memoized cost, exactly as it was
        fp["changed"] = int(np.count_nonzero(rises != 0.0))
    return UnitResult(run_s, step_s, fp, trace.final, trace.snapshots)


def fingerprint_mismatches(observed: dict, expected: dict) -> list:
    """Keys whose observed value differs from the recorded one."""
    bad = []
    for key, want in expected.items():
        got = observed.get(key)
        if key == "h":
            ok = got is not None and math.isclose(got, want, rel_tol=REL_H)
        elif key == "residual":
            ok = got is not None and math.isclose(got, want,
                                                  rel_tol=REL_RESIDUAL)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key}: got {got!r}, recorded {want!r}")
    return bad


def invariant_failures(w: Workload, unit: UnitResult) -> list:
    """Checks that hold for every run, recorded or not."""
    bad = []
    if w.monotone_h and unit.fingerprint["h_rises"]:
        bad.append(f"H rose on {unit.fingerprint['h_rises']} steps")
    try:
        unit.final.validate()
    except geo.GeometryError as exc:
        bad.append(f"final partition invalid: {exc}")
    if (w.name == "rect6-adjacent"
            and unit.fingerprint["termination"] == "converged"
            and not pt.is_centroidal_voronoi(
                unit.final, DENSITY, PERF[w.perf],
                tol=1e-5 * unit.final.env.area)):
        bad.append("converged partition is not centroidal Voronoi")
    return bad


def load_panel() -> dict:
    with open(PANEL_PATH) as f:
        return json.load(f)


def draw_units(entries: list, seconds: float, rng) -> list:
    """Seeded panel instances whose recorded times fill the given seconds.

    The panel is cut into as many strata of similar recorded unit time
    as there are units to draw, and one instance is drawn from each, in
    seeded order, so every draw holds the same mix of cheap and costly
    instances. The count follows from the recorded times alone: a slower
    machine runs the same units, only for longer. Beyond one unit per
    panel instance, the draw goes round the panel again.
    """
    ordered = sorted(entries, key=lambda e: (e["ref_s"], e["seed"]))
    n = max(1, round(seconds / statistics.fmean(e["ref_s"] for e in ordered)))
    units = []
    while len(units) < n:
        k = min(n - len(units), len(ordered))
        groups = np.array_split(np.arange(len(ordered)), k)
        units += [ordered[int(rng.choice(groups[i]))]
                  for i in rng.permutation(k)]
    return units


def calibrate(reps: int = 8000) -> float:
    """Seconds a fixed kernel takes: interpreter work and small numpy calls.

    The kernel is the benchmark's own code, in the program's mix of
    Python and tiny arrays, so a change to the program leaves it alone.
    On a shared host the machine's speed drifts by tens of percent
    within minutes; dividing by this kernel's time against the recorded
    one removes most of that drift from the end-to-end times. It takes
    about 0.2 s, long enough to average over bursts of contention.
    """
    v = np.arange(12.0).reshape(6, 2)
    acc = 0.0
    start = perf_counter()
    for k in range(reps):
        w = np.roll(v, -1, axis=0)
        acc += float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))
        acc += sum(i * 0.5 for i in range(10)) + len({"k": k})
    return perf_counter() - start


# ---------------------------------------------------------------------------
# layer pass on the fixed fixture partition

def _fixture():
    partition, _ = pt.read_snapshot(FIXTURE_PATH)
    return partition


def fixture_results(p: pt.Partition) -> dict:
    """Every layer's answer on the fixture, for the gate and the record."""
    quad, lin = PERF["quadratic"], PERF["linear"]
    pairs = pt.adjacency_pairs(p, DELTA)
    cs = pt.centroids(p, DENSITY, quad)
    moved = []
    for i, j in pairs:
        ri, rj = pt.pair_rebalanced(p, i, j, cs[i], cs[j])
        moved.append(geo.symdiff_area(p.regions[i], ri)
                     + geo.symdiff_area(p.regions[j], rj))
    return {
        "adjacency_pairs": [list(q) for q in pairs],
        "moved": moved,
        "residual_adjacent": gp.fixed_point_residual(
            p, DENSITY, quad, mode="adjacent", delta=DELTA),
        "residual_full": gp.fixed_point_residual(p, DENSITY, quad),
        "centroids_linear": pt.centroids(p, DENSITY, lin).tolist(),
        "max_pieces": max(len(r.pieces) for r in p.regions),
    }


def fixture_mismatches(observed: dict, expected: dict) -> list:
    bad = []
    for key, want in expected.items():
        got = observed[key]
        if isinstance(want, float):
            ok = math.isclose(got, want, rel_tol=REL_RESIDUAL)
        elif key in ("moved", "centroids_linear"):
            ok = np.allclose(got, want, rtol=REL_RESIDUAL, atol=1e-12)
        else:
            ok = got == want
        if not ok:
            bad.append(f"fixture {key}: got {got!r}, recorded {want!r}")
    return bad


def time_fixture(reps: int) -> tuple[dict, list]:
    """Median milliseconds of each layer call on a fresh fixture copy.

    Region objects memoize centroids and interior distances, so every
    timed call gets a partition read afresh from the snapshot. The
    symmetric differences compare each region with its own split, as an
    exchange does, so pieces the split kept whole match by identity.
    """
    quad, lin = PERF["quadratic"], PERF["linear"]
    probe = _fixture()
    pairs = pt.adjacency_pairs(probe, DELTA)
    cs = pt.centroids(probe, DENSITY, quad)

    def rebalanced(p):
        return [(i, j, *pt.pair_rebalanced(p, i, j, cs[i], cs[j]))
                for i, j in pairs]

    # name -> (untimed preparation or None, timed call)
    ops = {
        "adjacency_pairs": (None, lambda p, _: pt.adjacency_pairs(p, DELTA)),
        "residual_adjacent": (None, lambda p, _: gp.fixed_point_residual(
            p, DENSITY, quad, mode="adjacent", delta=DELTA)),
        "residual_full": (None, lambda p, _: gp.fixed_point_residual(
            p, DENSITY, quad)),
        "pair_rebalanced": (None, lambda p, _: rebalanced(p)),
        "symdiff_area": (rebalanced, lambda p, splits: [
            geo.symdiff_area(p.regions[i], ri)
            + geo.symdiff_area(p.regions[j], rj)
            for i, j, ri, rj in splits]),
        "centroids_linear": (None, lambda p, _: pt.centroids(p, DENSITY, lin)),
    }
    timings = {}
    for name, (prepare, op) in ops.items():
        samples = []
        for _ in range(reps):
            p = _fixture()
            arg = prepare(p) if prepare else None
            start = perf_counter()
            op(p, arg)
            samples.append(perf_counter() - start)
        timings[name] = 1e3 * float(np.median(samples))
    return timings, fixture_mismatches(fixture_results(_fixture()),
                                       load_panel()["fixture"])
