"""Experiment runner: config parsing, orchestration, artifact emission.

Configs are single YAML files (see the shipped presets). The `run`
command executes one experiment: its mode's runner computes and returns
a Run record, and _finish alone writes the record's files, SVG
snapshots and plain-text summary into the output directory and prints
its lines. `compare` runs several exchange algorithms from the same
start and emits their cost series side by side through _finish.

Exit codes: 0 success, 2 bad config, 3 degenerate evolution, 4 budget
or horizon exhausted without convergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from collections import namedtuple
from functools import partial
from importlib import resources
from itertools import chain, zip_longest

import numpy as np
import yaml

from . import dyadic as dy
from . import geometry as geo
from . import gossip as gp
from . import netsim as ns
from . import partition as pt
from . import svg
from . import switching as sw
from .partition import DegenerateEvolution, Environment, Partition

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4


class ConfigError(Exception):
    """Config problem, message prefixed with the offending field path."""


# ---------------------------------------------------------------------------
# config loading and parsing

# Every key a config may hold, by section ("" is the top level), as (kind,
# default): _check reads the value as its kind. A section's keys are the
# union over its kinds, and a kind ignores the keys it does not use.
KEYS = {
    "": {"description": ("text", ""), "out": ("text", None),
         "seed": ("whole", 0), "n": ("count", None),
         "budget": ("count", 5000), "stop_tol": ("nonneg", None),
         "check_every": ("count", 5), "snapshots": ("any", None),
         **dict.fromkeys(("environment", "initial", "density", "performance",
                          "algorithm", "scheduler"), ("section", None))},
    "environment": {"rectangle": (["pos", 2], None),
                    "vertices": ("any", None)},
    "initial": {"kind": ("any", None), "seed": ("whole", None),
                "cuts": (["number"], None), "regions": ("any", None)},
    # a grid's fields are checked within the section, as "density: values"
    "density": {"kind": ("any", "uniform"), "value": ("pos", 1.0),
                "extent": ("any", None), "values": ("any", None)},
    "performance": {"kind": ("any", "quadratic")},
    "algorithm": {"kind": ("any", "gossip"), "delta": ("pos", None),
                  "horizon_legs": ("pos", 500.0),
                  "speeds": (["number"], None), "comm_radius": ("pos", None),
                  "comm_rate": ("pos", None), "waypoint_margin": ("pos", None),
                  "time_step": ("number", None), "mode": ("any", None),
                  "steps": ("count", None), "rho0": ("pos", None),
                  "theta0": ("number", 0.0), "levels": ("count", 12)},
    "scheduler": {"kind": ("any", "adjacent_random"), "delta": ("pos", 1e-9),
                  "sequence": ([["whole", 2]], None)},
}
# the parsed settings: read-only, one field per key of their section;
# environment, density and performance parse to the library's objects,
# and start is the initial partition, None for polar and comb runs
Settings = namedtuple("Settings", [*KEYS[""], "start"])
Initial = namedtuple("Initial", KEYS["initial"])
Algorithm = namedtuple("Algorithm", KEYS["algorithm"])
Scheduler = namedtuple("Scheduler", KEYS["scheduler"])
# the algorithm keys netsim passes to NetConfig, which owns their defaults
_NET_KEYS = ("speeds", "comm_radius", "comm_rate", "waypoint_margin",
             "delta", "time_step")


def _check(val, path: str, kind):
    """val read as a KEYS kind, or a ConfigError on path. A list kind
    [k] takes a list of k, and [k, m] exactly m of them, as a tuple."""
    if isinstance(kind, list):
        each, *size = kind
        if not isinstance(val, list) or size not in ([], [len(val)]):
            count = size[0] if size else "a list of"
            what = "lists" if isinstance(each, list) else "numbers"
            raise ConfigError(f"{path}: expected {count} {what}, got {val!r}")
        return tuple(_check(x, f"{path}[{k}]", each)
                     for k, x in enumerate(val))
    if kind == "any" or kind == "text" and isinstance(val, str) and \
            "\n" not in val:  # a summary line holds it
        return val
    if kind == "text":
        raise ConfigError(f"{path}: expected one line of text, got {val!r}")
    # a count is a whole number > 0; whole and nonneg take 0 too
    whole, nonneg = kind in ("count", "whole"), kind in ("whole", "nonneg")
    if isinstance(val, bool) or not isinstance(val, (int, float)) or \
            whole and isinstance(val, float) and not val.is_integer() or \
            nonneg and val < 0:
        raise ConfigError(f"{path}: expected a {'whole ' * whole}number"
                          f"{' >= 0' * nonneg}, got {val!r}")
    # false for NaN, infinities and ints beyond the largest float
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    if kind in ("pos", "count") and val <= 0:
        raise ConfigError(f"{path}: must be positive")
    return int(val) if whole else float(val) + 0.0  # -0.0 becomes 0.0


def _section(cfg: dict, name: str) -> dict:
    """Every key of the section: its checked value, else its default. A
    null section or value is absent, and an unknown key is refused."""
    node = cfg.get(name) if name else cfg
    if node is None:
        node = {}
    if not isinstance(node, dict):
        raise ConfigError(f"{name}: expected a mapping, got {node!r}")
    known, prefix = KEYS[name], f"{name}." if name else ""
    for key in node:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown key (known: "
                              f"{', '.join(known)})")
    return {key: default if node.get(key) is None or kind == "section"
            else _check(node[key], prefix + key, kind)
            for key, (kind, default) in known.items()}


def _need(val, path: str):
    """The value of a required key, which an absent one leaves None."""
    if val is None:
        raise ConfigError(f"{path}: missing required field")
    return val


def parse(cfg: dict, seed=None, snapshots=None, out=None) -> Settings:
    """The settings of a config from load_config. seed, snapshots and out
    are the --seed, --snapshots (its text) and --out flags: given, they
    replace the config's values, and seed and snapshots are checked
    before any section. Snapshot times are whole steps for a stepwise
    run and legs for netsim; polar and comb runs take none."""
    node = cfg.get("algorithm")
    kind = (node if isinstance(node, dict) else {}).get("kind", "gossip")
    if seed is not None:
        _check(seed, "--seed", "whole")
    where, times = "snapshots", cfg.get("snapshots")
    if snapshots is not None:
        try:
            where, times = "--snapshots", [
                float(tok) for tok in snapshots.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--snapshots: {exc}") from exc
    if kind in ("polar", "comb") and times is not None:
        raise ConfigError(f"{where}: {kind} runs take no snapshots")
    snapshots = _check([] if times is None else times, where,
                       ["nonneg" if kind == "netsim" else "whole"])
    sec = {name: _section(cfg, name) for name in KEYS}
    top = sec[""]
    top.update(snapshots=snapshots, out=out or top["out"],
               seed=top["seed"] if seed is None else seed)
    if kind not in ("polar", "comb"):  # the runs that draw a partition
        env = top["environment"] = _environment(sec["environment"])
        top["initial"], start = _initial(sec["initial"], env, top["n"],
                                         top["seed"])
        top.update(start=start, n=start.n)
        top["density"] = _density(sec["density"])
        try:
            top["performance"] = geo.PerformanceFunction(**sec["performance"])
        except ValueError as exc:
            raise ConfigError(f"performance.kind: {exc}") from exc
        top["scheduler"] = Scheduler(**sec["scheduler"])
        build_scheduler(top["scheduler"], top["n"], top["seed"])
    top["algorithm"] = _algorithm(sec["algorithm"], top["environment"],
                                  top["n"], top["seed"])
    return Settings(**{"start": None, **top})


def preset_names() -> list:
    root = resources.files("gossipcover") / "presets"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_config(path_or_name: str) -> dict:
    """Read a YAML config from a file path or a shipped preset name."""
    if os.path.exists(path_or_name):
        try:
            with open(path_or_name, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"config: cannot read {path_or_name!r} ({exc})") from exc
    else:
        res = resources.files("gossipcover") / "presets" / f"{path_or_name}.yaml"
        if not res.is_file():
            raise ConfigError(
                f"config: no file {path_or_name!r} and no preset of that name "
                f"(presets: {', '.join(preset_names())})")
        text = res.read_text()
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a mapping")
    return cfg


# ---------------------------------------------------------------------------
# building blocks from config sections

def _environment(sec: dict) -> Environment:
    if sec["rectangle"] is not None:
        return pt.rectangle(*sec["rectangle"])
    if sec["vertices"] is not None:
        try:
            return pt.environment(sec["vertices"])
        except (ValueError, geo.GeometryError) as exc:
            raise ConfigError(f"environment.vertices: {exc}") from exc
    raise ConfigError("environment: needs rectangle or vertices")


def _density(sec: dict):
    if sec["kind"] == "uniform":
        return geo.UniformDensity(sec["value"])
    if sec["kind"] == "grid":
        try:
            extent = _check(sec["extent"], "extent", ["number", 4])
            values = _check(sec["values"], "values", [["pos"]])
            return geo.GridDensity(*extent, values)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"density: {exc}") from exc
    raise ConfigError(f"density.kind: unknown kind {sec['kind']!r}")


def strip_partition(env: Environment, cuts) -> Partition:
    """Vertical strip split of a convex environment at the given x cuts."""
    xs = sorted(float(c) for c in cuts)
    lo = float(env.polygon.vertices[:, 0].min())
    hi = float(env.polygon.vertices[:, 0].max())
    bounds = [lo] + xs + [hi]
    regions = []
    for a, b in zip(bounds, bounds[1:]):
        piece = geo.clip(env.polygon, (geo.HalfPlane((1.0, 0.0), b),
                                       geo.HalfPlane((-1.0, 0.0), -a)),
                         0.0, env.sliver_area)
        if piece is None:
            raise ConfigError(f"initial.cuts: empty strip [{a}, {b}]")
        regions.append(geo.Region((piece,)))
    return Partition(env, tuple(regions))


# rejection draws for one generator before sampling gives up
_MAX_GENERATOR_DRAWS = 10_000


def random_generators(env: Environment, n: int, seed: int) -> np.ndarray:
    """n points uniform over the environment, kept 1e-3 of its diameter
    off the boundary; a ConfigError when a point takes more than
    _MAX_GENERATOR_DRAWS draws."""
    rng = np.random.default_rng(seed)
    v = env.polygon.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    margin = -1e-3 * env.diameter
    out = []
    for _ in range(n):
        for _ in range(_MAX_GENERATOR_DRAWS):
            cand = rng.uniform(lo, hi, size=2)
            if bool(env.polygon.contains(cand, tol=margin)[0]):
                out.append(cand)
                break
        else:
            raise ConfigError(
                f"initial: no generator {-margin:.3g} inside the environment "
                f"in {_MAX_GENERATOR_DRAWS} draws")
    return np.array(out)


def _initial(sec: dict, env: Environment, n, seed: int) -> tuple:
    """The start's settings and the partition they draw; n, when given,
    must be its region count."""
    init = Initial(**{**sec, "seed": seed if sec["seed"] is None
                      else sec["seed"]})
    kind = _need(init.kind, "initial.kind")
    if kind in ("random_voronoi", "strips"):
        # far from the origin, rounding can leave a drawn start short of
        # tiling the environment
        try:
            if kind == "random_voronoi":
                start = pt.voronoi(env, random_generators(
                    env, _need(n, "n"), init.seed))
            else:
                start = strip_partition(env, _need(init.cuts, "initial.cuts"))
        except geo.GeometryError as exc:
            raise ConfigError(f"initial: {exc}") from exc
        where, what = "initial.cuts", "strips"
    elif kind == "pieces":
        try:
            regions = tuple(geo.region_of(*rings) for rings in
                            _need(init.regions, "initial.regions"))
            start = Partition(env, regions).validate()
        except (TypeError, ValueError, geo.GeometryError) as exc:
            raise ConfigError(f"initial.regions: {exc}") from exc
        init = init._replace(regions=regions)
        where, what = "initial.regions", "regions"
    else:
        raise ConfigError(f"initial.kind: unknown kind {kind!r}")
    if n is not None and start.n != n:
        raise ConfigError(f"{where}: {start.n} {what} but n={n}")
    return init, start


def build_scheduler(sched: Scheduler, n: int, seed: int):
    """A fresh pair scheduler: each run draws its own pairs."""
    if sched.kind == "round_robin":
        return sw.RoundRobin(n)
    if sched.kind == "uniform_random":
        return sw.UniformRandom(n, seed)
    if sched.kind == "adjacent_random":
        return sw.AdjacentRandom(seed=seed, delta=sched.delta)
    if sched.kind == "periodic":
        try:
            periodic = sw.Periodic(_need(sched.sequence,
                                         "scheduler.sequence"))
        except ValueError as exc:
            raise ConfigError(f"scheduler.sequence: {exc}") from exc
        for i, j in periodic.sequence:
            if not i < j < n:
                raise ConfigError(f"scheduler.sequence: {[i, j]} is not "
                                  f"two distinct region indices below {n}")
        return periodic
    raise ConfigError(f"scheduler.kind: unknown kind {sched.kind!r}")


def _partial_delta(env: Environment, delta, where: str) -> float:
    """The distance-limited exchange's delta checked against env; a
    rejected one is a ConfigError on the `where` field."""
    try:
        return gp.check_delta(env, _need(delta, "algorithm.delta"))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _algorithm(sec: dict, env, n, seed: int) -> Algorithm:
    """The algorithm section; a netsim one takes NetConfig's defaults."""
    algo, choices = Algorithm(**sec), sorted(_RUNNERS)
    if algo.kind not in choices:  # a list, not a dict: any value compares
        raise ConfigError(f"algorithm.kind: unknown kind {algo.kind!r} "
                          f"(choices: {', '.join(choices)})")
    if algo.kind == "partial":
        _partial_delta(env, algo.delta, "algorithm")
    if algo.kind == "netsim":
        given = {"speeds": (1.0,) * n,
                 **{k: sec[k] for k in _NET_KEYS if sec[k] is not None}}
        try:
            net = ns.NetConfig(seed=seed, **given)
            ns.check_fleet(net, n)
        except ValueError as exc:
            raise ConfigError(f"algorithm: {exc}") from exc
        _partial_delta(env, net.delta, "algorithm")
        algo = algo._replace(**{k: getattr(net, k) for k in _NET_KEYS})
    if algo.kind == "polar":
        for key in ("mode", "steps", "rho0"):
            _need(getattr(algo, key), f"algorithm.{key}")
        if algo.mode not in sw.POLAR_MODES:
            raise ConfigError(f"algorithm.mode: unknown mode {algo.mode!r}")
    if algo.levels > dy.MAX_LEVEL:
        raise ConfigError(f"algorithm.levels: above limit {dy.MAX_LEVEL}")
    return algo


# ---------------------------------------------------------------------------
# output: runners return a Run, and _finish emits it

# what a run mode ran: its exit code, the notes printed before its files,
# its summary entries in order, its files as name -> writer(path), its
# (time, partition) snapshots and its closing line (None for none)
Run = namedtuple("Run", "code notes entries files snapshots closing")


def _cell(x) -> str:
    """One CSV cell: a float as the repr of a Python float, so a numpy
    float64 reads back as its number, and NaN or None as an empty cell."""
    if isinstance(x, float):
        return "" if math.isnan(x) else repr(float(x))
    return "" if x is None else str(x)


def _write_csv(header, rows, path: str):
    with open(path, "w") as f:
        f.writelines(",".join(map(_cell, row)) + "\n"
                     for row in chain([header], rows))


def write_h_csv(trace: sw.EvolutionTrace, path: str):
    _write_csv(("t", "h", "residual"),
               [(s.t, s.h, s.residual) for s in trace.steps], path)


def _echo(section, path: str):
    """(path.<key>, value) for every key of a settings section, the
    sections within it expanded in turn."""
    for key, val in section._asdict().items():
        if key == "start":  # drawn from the initial settings
            continue
        if isinstance(val, (Initial, Algorithm, Scheduler)):
            yield from _echo(val, f"{path}.{key}")
        else:
            yield f"{path}.{key}", val


def _finish(run: Run, s: Settings, out_dir: str, prefix: str) -> int:
    """Emit a run into out_dir and return its exit code. Prints its
    notes; writes its files, an SVG per snapshot (printing its area
    residue) and summary.txt: the entries, then one config.<path> line
    per setting the run ran with, defaults included; then prints the
    closing line. Every printed line starts with prefix."""
    for note in run.notes:
        print(prefix + note)
    # called after the config is read, so a rejected one leaves no directory
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create {out_dir!r} ({exc})") from exc
    for name, write in run.files.items():
        write(os.path.join(out_dir, name))
    for tag, part in run.snapshots:
        name = f"snapshot-{tag:g}.svg"
        residue = svg.write_svg(
            part, os.path.join(out_dir, name), label=f"t={tag:g}",
            points=pt.centroids(part, s.density, s.performance))
        short, over = part.cover_slack
        print(f"{prefix}{name}: area residue {residue:.3e} "
              f"(budget -{short:.3e}/+{over:.3e})")
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        for k, v in [*run.entries.items(), *_echo(s, "config")]:
            f.write(f"{k} {v}\n")
    if run.closing is not None:
        print(prefix + run.closing)
    return run.code


# ---------------------------------------------------------------------------
# run modes

def _timed(run, *args, **kwargs) -> tuple:
    """(trace, exit code, notes, wall seconds) of one run call; a
    degenerate evolution gives its partial trace, exit 3 and a note."""
    started = time.perf_counter()
    try:
        trace, code, notes = run(*args, **kwargs), EXIT_OK, []
    except DegenerateEvolution as exc:
        trace, code = exc.trace, EXIT_DEGENERATE
        notes = [f"degenerate evolution at step {exc.step}: {exc}"]
    return trace, code, notes, time.perf_counter() - started


def _run_stepwise(s: Settings, algo: str, delta, snapshot_steps) -> tuple:
    """Run a stepwise algorithm ("gossip", "partial" or "lloyd") from the
    settings' start with their budget, stop_tol, check_every and
    scheduler; partial trades within delta. Returns _timed's tuple, a
    run that ends on its step budget with exit 4."""
    given = dict(budget=s.budget, stop_tol=s.stop_tol,
                 snapshot_steps=snapshot_steps)
    if algo == "lloyd":
        trace, code, notes, wall = _timed(sw.run_lloyd, s.start, s.density,
                                          s.performance, **given)
    else:
        trace, code, notes, wall = _timed(
            sw.run_evolution, s.start, s.density, s.performance,
            build_scheduler(s.scheduler, s.n, s.seed), **given,
            delta=delta if algo == "partial" else None,
            check_every=s.check_every)
    if code == EXIT_OK and trace.termination == "step_budget":
        code = EXIT_BUDGET
    return trace, code, notes, wall


def _worst(codes) -> int:
    """One exit code for several runs: degenerate, else budget, else ok."""
    for bad in (EXIT_DEGENERATE, EXIT_BUDGET):
        if bad in codes:
            return bad
    return EXIT_OK


def _run_pairwise(s: Settings) -> Run:
    algo = s.algorithm.kind
    trace, code, notes, wall = _run_stepwise(s, algo, s.algorithm.delta,
                                             s.snapshots)
    steps = trace.steps
    entries = {
        "algorithm": algo, "seed": s.seed, "steps": len(steps),
        "termination": trace.termination,
        "converged": trace.termination == "converged",
        "final_residual": repr(trace.final_residual),
        "stop_tol": repr(trace.stop_tol), "wall_time": f"{wall:.3f}",
        "min_region_area": min((x.min_region_area for x in steps),
                               default=math.nan),
        "min_centroid_gap": min((x.min_centroid_gap for x in steps),
                                default=math.nan),
        "max_piece_count": max((x.max_piece_count for x in steps), default=0),
    }
    files = {"trace.txt": partial(sw.write_trace, trace),
             "h_series.csv": partial(write_h_csv, trace)}
    return Run(code, notes, entries, files, trace.snapshots,
               f"{algo}: {trace.termination} after {len(steps)} steps, "
               f"residual {trace.final_residual:.3e}, {wall:.1f}s")


def _run_netsim(s: Settings) -> Run:
    config = ns.NetConfig(seed=s.seed, **{k: getattr(s.algorithm, k)
                                          for k in _NET_KEYS})
    env, horizon_legs = s.start.env, s.algorithm.horizon_legs
    leg = ns.leg_time(env, config)
    trace, code, notes, wall = _timed(
        ns.simulate, config, s.start, s.density, s.performance,
        horizon_legs * leg, snapshot_times=[t * leg for t in s.snapshots])
    mixed = trace.final is not None and gp.is_mixed_centroidal(
        trace.final, s.density, s.performance, tol=env.end_state_tol)
    if code == EXIT_OK and not mixed:
        code = EXIT_BUDGET
    changed = sum(1 for e in trace.events if e.changed)
    stats = ns.analyze_log(trace.events, trace.elapsed or horizon_legs * leg,
                           5.0 * leg, pt.adjacency_pairs(s.start, config.delta))
    entries = {
        "algorithm": "netsim", "seed": s.seed, "leg_time": repr(leg),
        "events": len(trace.events), "effective_trades": changed,
        "termination": trace.termination, "mixed_centroidal": mixed,
        "wall_time": f"{wall:.3f}",
    }
    for (i, j), st in sorted(stats.items()):
        entries[f"pair_{i}_{j}"] = (
            f"count {st['count']} max_gap {st['max_gap']:.3f} "
            f"hit_p {st['p']:.3f} "
            f"ci [{st['ci_low']:.3f}, {st['ci_high']:.3f}]")
    files = {"comm_log.txt": partial(ns.write_comm_log, trace),
             "h_series.csv": partial(_write_csv, ("time", "h"),
                                     [(e.time, e.h) for e in trace.events])}
    return Run(code, notes, entries, files,
               [(t / leg, p) for t, p in trace.snapshots],
               f"netsim: {len(trace.events)} contacts ({changed} effective), "
               f"mixed centroidal: {mixed}, {wall:.1f}s")


NEAR_CIRCLE_BAND = 0.05


def _run_polar(s: Settings) -> Run:
    a = s.algorithm
    trace = sw.run_polar(a.mode, a.steps, a.rho0, a.theta0)
    rho_f, theta_f = map(float, trace.states[-1])
    near = trace.states[np.abs(trace.states[:, 0] - 1.0) <= NEAR_CIRCLE_BAND]
    spread = sw.circular_spread(near[:, 1])
    entries = {
        "algorithm": "polar", "mode": a.mode, "steps": a.steps,
        "final_rho": repr(rho_f), "final_theta": repr(theta_f),
        "limit_set_distance": repr(
            sw.distance_to_polar_limit_set(rho_f, theta_f)),
        "near_circle_angle_spread": repr(spread),
    }
    # state 0 precedes any applied map; the rows are made as they are
    # written, one pass over the states
    rows = ((t, rho, theta, label) for t, ((rho, theta), label) in
            enumerate(zip(trace.states, ["", *trace.labels])))
    files = {"polar_trace.csv": partial(_write_csv, ("t", "rho", "theta",
                                                     "map"), rows)}
    return Run(EXIT_OK, [], entries, files, [],
               f"polar {a.mode}: final radius {rho_f:.4f}, "
               f"near-circle angle spread {spread:.4f}")


def _run_comb(s: Settings) -> Run:
    levels = s.algorithm.levels
    header = [f.name for f in dataclasses.fields(dy.CombRecord)]
    rows = [dataclasses.astuple(dy.comb_family(t)) for t in range(levels + 1)]
    return Run(EXIT_OK, [], {"algorithm": "comb", "levels": levels},
               {"comb_table.csv": partial(_write_csv, header, rows)}, [],
               f"comb family table for t=0..{levels} written")


_RUNNERS = {"gossip": _run_pairwise, "partial": _run_pairwise,
            "lloyd": _run_pairwise, "netsim": _run_netsim,
            "polar": _run_polar, "comb": _run_comb}


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    s = parse(cfg, args.seed, args.snapshots, args.out)
    out_dir = s.out or "runs/out"
    if args.batch is None:
        return _finish(_RUNNERS[s.algorithm.kind](s), s, out_dir, "")
    if args.batch < 1:
        raise ConfigError("batch: needs at least one run")
    codes = {}
    for k in range(s.seed, s.seed + args.batch):
        # each run's own settings, its seed's draws included
        sk = parse(cfg, k, args.snapshots, args.out)
        codes[k] = _finish(_RUNNERS[sk.algorithm.kind](sk), sk,
                           os.path.join(out_dir, f"seed-{k}"), f"[seed {k}] ")
    for k, code in codes.items():
        print(f"seed {k}: exit {code}")
    return _worst(codes.values())


def _algo_list(text: str):
    """(name, parameter or None) per --algos entry, every name checked
    before any algorithm runs; only partial takes a parameter."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        name, sep, val = tok.partition(":")
        if name not in ("gossip", "partial", "lloyd"):
            raise ConfigError(f"algos: {name!r} not comparable by step")
        if sep and name != "partial":
            raise ConfigError(f"algos: {name!r} takes no parameter, "
                              f"got {tok!r}")
        try:
            out.append((name, float(val) if sep else None))
        except ValueError as exc:
            raise ConfigError(f"algos: bad parameter in {tok!r}") from exc
    if not out:
        raise ConfigError("algos: empty algorithm list")
    return out


def cmd_compare(args) -> int:
    algos = _algo_list(args.algos)
    s = parse(load_config(args.config), args.seed, out=args.out)
    if s.start is None:
        raise ConfigError(f"algorithm.kind: {s.algorithm.kind} runs draw no "
                          f"partition to compare from")
    # partial:<delta> replaces algorithm.delta; every delta is checked
    # before the first run
    deltas = [s.algorithm.delta if param is None else param
              for _, param in algos]
    for (name, _), delta in zip(algos, deltas):
        if name == "partial":
            _partial_delta(s.environment, delta, "algos")

    series, codes = {}, []
    for (name, param), delta in zip(algos, deltas):
        label = name if param is None else f"{name}_{param:g}"
        trace, code, notes, _ = _run_stepwise(s, name, delta, ())
        series[label] = trace
        codes.append(code)
        # each algorithm's lines as its run ends
        for line in (*notes, f"{trace.termination} after {len(trace.steps)} "
                     f"steps, residual {trace.final_residual:.3e}"):
            print(f"{label}: {line}")

    # a run that ended early leaves its later cells empty
    rows = [(t, *hs) for t, hs in enumerate(zip_longest(
        *([x.h for x in tr.steps] for tr in series.values())))]
    entries = {"seed": s.seed, "budget": s.budget}
    for m, tr in series.items():
        entries[m] = (f"termination {tr.termination} steps {len(tr.steps)} "
                      f"residual {tr.final_residual!r}")
    header = ["t", *(f"h_{m}" for m in series)]
    return _finish(Run(_worst(codes), [], entries,
                       {"compare.csv": partial(_write_csv, header, rows)},
                       [], None), s, s.out or "runs/compare", "")


def cmd_presets(args) -> int:
    for name in preset_names():
        s = parse(load_config(name))
        print(f"{name}: {s.algorithm.kind} — {s.description}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipcover",
        description="Pairwise territory-exchange coverage experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None,
                       help="override the output directory")
    p_run.add_argument("--snapshots", default=None,
                       help="comma-separated snapshot steps (legs for netsim)")
    p_run.add_argument("--batch", type=int, default=None,
                       help="fan out this many consecutive seeds")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run several algorithms from one start")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--algos", required=True,
                       help="comma list: gossip, partial[:delta], lloyd")
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(fn=cmd_compare)

    p_pre = sub.add_parser("presets", help="list shipped preset configs")
    p_pre.set_defaults(fn=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
