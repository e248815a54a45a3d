"""Experiment runner: config parsing, orchestration, artifact emission.

Configs are single YAML files (see the shipped presets). The `run`
command executes one experiment and writes a step trace, a coverage
cost CSV, SVG snapshots, and a plain-text summary into the output
directory. `compare` runs several exchange algorithms from the same
start and emits their cost series side by side.

Exit codes: 0 success, 2 bad config, 3 degenerate evolution, 4 budget
or horizon exhausted without convergence.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from importlib import resources

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
# config loading

def _get(cfg: dict, path: str, default=None, required: bool = False):
    """The value at the dotted path; a null section is absent, and any
    other section that is not a mapping is a ConfigError naming it."""
    node = cfg
    parts = path.split(".")
    for depth, part in enumerate(parts):
        if node is not None and not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(parts[:depth])}: expected a "
                              f"mapping, got {node!r}")
        if node is None or part not in node:
            if required:
                raise ConfigError(f"{path}: missing required field")
            return default
        node = node[part]
    return node


def _number(cfg, path, default=None, required=False, positive=False):
    val = _get(cfg, path, default, required)
    return None if val is None else _checked(val, path, positive)


def _numbers(cfg, path, default=None, required=False, positive=False,
             length=None):
    """The list at path with each entry checked as _number checks one;
    length, when given, is the entry count it must have."""
    val = _get(cfg, path, default, required)
    if val is None:
        return None
    if not isinstance(val, list) or length not in (None, len(val)):
        raise ConfigError(f"{path}: expected {length or 'a list of'} numbers, "
                          f"got {val!r}")
    return [_checked(x, f"{path}[{k}]", positive) for k, x in enumerate(val)]


def _checked(val, path, positive) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    # false for NaN, infinities and ints beyond the largest float
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"{path}: must be positive")
    return float(val)


def _count(cfg, path, default=None, required=False):
    """The positive whole number at path as an int; a bool or a
    fraction is a ConfigError on path, not a count."""
    val = _get(cfg, path, default, required)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)) or \
            isinstance(val, float) and not val.is_integer():
        raise ConfigError(f"{path}: expected a whole number, got {val!r}")
    if val <= 0:
        raise ConfigError(f"{path}: must be positive")
    return int(val)


def _seed(val, path) -> int:
    if isinstance(val, bool) or not isinstance(val, int) or val < 0:
        raise ConfigError(f"{path}: expected a non-negative integer, "
                          f"got {val!r}")
    return val


def preset_names() -> list:
    root = resources.files("gossipcover") / "presets"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_config(path_or_name: str) -> dict:
    """Read a YAML config from a file path or a shipped preset name."""
    if os.path.exists(path_or_name):
        with open(path_or_name) as f:
            text = f.read()
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

def build_environment(cfg: dict) -> Environment:
    rect = _numbers(cfg, "environment.rectangle", positive=True, length=2)
    verts = _get(cfg, "environment.vertices")
    if rect is not None:
        return pt.rectangle(*rect)
    if verts is not None:
        try:
            return pt.environment(verts)
        except (ValueError, geo.GeometryError) as exc:
            raise ConfigError(f"environment.vertices: {exc}") from exc
    raise ConfigError("environment: needs rectangle or vertices")


def build_density(cfg: dict):
    kind = _get(cfg, "density.kind", "uniform")
    if kind == "uniform":
        return geo.UniformDensity(_number(cfg, "density.value", 1.0,
                                          positive=True))
    if kind == "grid":
        # every grid error names its field within the density section
        grid = cfg["density"]
        try:
            extent = _numbers(grid, "extent", required=True, length=4)
            rows = _get(grid, "values", required=True)
            if not (isinstance(rows, list)
                    and all(isinstance(row, list) for row in rows)):
                raise ConfigError(f"values: expected a list of rows, "
                                  f"got {rows!r}")
            values = [[_checked(x, f"values[{r}][{c}]", True)
                       for c, x in enumerate(row)]
                      for r, row in enumerate(rows)]
            return geo.GridDensity(*extent, values)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"density: {exc}") from exc
    raise ConfigError(f"density.kind: unknown kind {kind!r}")


def build_performance(cfg: dict):
    kind = _get(cfg, "performance.kind", "quadratic")
    try:
        return geo.PerformanceFunction(kind)
    except ValueError as exc:
        raise ConfigError(f"performance.kind: {exc}") from exc


def strip_partition(env: Environment, cuts) -> Partition:
    """Vertical strip split of a convex environment at the given x cuts."""
    xs = sorted(float(c) for c in cuts)
    lo = float(env.polygon.vertices[:, 0].min())
    hi = float(env.polygon.vertices[:, 0].max())
    bounds = [lo] + xs + [hi]
    regions = []
    for a, b in zip(bounds, bounds[1:]):
        piece = geo.split_convex(env.polygon, geo.HalfPlane((1.0, 0.0), b),
                                 0.0, env.sliver_area)[0]
        if piece is not None:
            piece = geo.split_convex(piece, geo.HalfPlane((-1.0, 0.0), -a),
                                     0.0, env.sliver_area)[0]
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


def build_initial(cfg: dict, env: Environment, seed: int) -> Partition:
    kind = _get(cfg, "initial.kind", required=True)
    n = _count(cfg, "n", required=kind == "random_voronoi")
    init_seed = _seed(_get(cfg, "initial.seed", seed), "initial.seed")
    if kind == "random_voronoi":
        return pt.voronoi(env, random_generators(env, n, init_seed))
    if kind == "strips":
        part = strip_partition(env, _numbers(cfg, "initial.cuts",
                                             required=True))
        if n is not None and part.n != n:
            raise ConfigError(f"initial.cuts: {part.n} strips but n={n}")
        return part
    if kind == "pieces":
        entries = _get(cfg, "initial.regions", required=True)
        try:
            regions = tuple(geo.region_of(*rings) for rings in entries)
            return Partition(env, regions).validate()
        except (TypeError, ValueError, geo.GeometryError) as exc:
            raise ConfigError(f"initial.regions: {exc}") from exc
    raise ConfigError(f"initial.kind: unknown kind {kind!r}")


def build_scheduler(cfg: dict, n: int, seed: int):
    kind = _get(cfg, "scheduler.kind", "adjacent_random")
    if kind == "round_robin":
        return sw.RoundRobin(n)
    if kind == "uniform_random":
        return sw.UniformRandom(n, seed)
    if kind == "adjacent_random":
        delta = _number(cfg, "scheduler.delta", 1e-9, positive=True)
        return sw.AdjacentRandom(seed=seed, delta=delta)
    if kind == "periodic":
        seq = _get(cfg, "scheduler.sequence", required=True)
        try:
            sched = sw.Periodic(seq)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scheduler.sequence: {exc}") from exc
        for pair in sched.sequence:
            if not (len(pair) == 2 and all(type(k) is int for k in pair)
                    and 0 <= pair[0] < pair[1] < n):
                raise ConfigError(f"scheduler.sequence: {list(pair)} is not "
                                  f"two distinct region indices below {n}")
        return sched
    raise ConfigError(f"scheduler.kind: unknown kind {kind!r}")


def _nonnegative(val, path, whole=False) -> float:
    """A finite number >= 0, and a whole number when whole."""
    t = _checked(val, path, False)
    if t < 0 or whole and not t.is_integer():
        kind = "whole number" if whole else "number"
        raise ConfigError(f"{path}: expected a {kind} >= 0, got {val!r}")
    return t + 0.0  # -0.0 becomes 0.0


def parse_snapshot_list(text: str) -> list:
    try:
        times = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--snapshots: {exc}") from exc
    return [_nonnegative(t, f"--snapshots[{k}]")
            for k, t in enumerate(times)]


# ---------------------------------------------------------------------------
# artifact writers

def _ensure_out(out_dir: str):
    # runners call it after reading the config, so a rejected one leaves none
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create {out_dir!r} ({exc})") from exc


def write_h_csv(trace: sw.EvolutionTrace, path: str):
    with open(path, "w") as f:
        f.write("t,h,residual\n")
        for s in trace.steps:
            res = "" if math.isnan(s.residual) else repr(float(s.residual))
            f.write(f"{s.t},{float(s.h)!r},{res}\n")


def write_snapshots(snapshots, out_dir: str, density, perf, log):
    for tag, part in snapshots:
        name = f"snapshot-{tag:g}.svg"
        cs = pt.centroids(part, density, perf)
        residue = svg.write_svg(part, os.path.join(out_dir, name), points=cs,
                                label=f"t={tag:g}")
        log(f"{name}: area residue {residue:.3e} "
            f"(budget {part.n * part.env.tol_area:.3e})")


def _trace_minima(trace: sw.EvolutionTrace) -> dict:
    if not trace.steps:
        return {"min_region_area": math.nan, "min_centroid_gap": math.nan,
                "max_piece_count": 0}
    return {
        "min_region_area": min(s.min_region_area for s in trace.steps),
        "min_centroid_gap": min(s.min_centroid_gap for s in trace.steps),
        "max_piece_count": max(s.max_piece_count for s in trace.steps),
    }


def write_summary(path: str, entries: dict):
    with open(path, "w") as f:
        for k, v in entries.items():
            f.write(f"{k} {v}\n")


# ---------------------------------------------------------------------------
# run modes

def _build_start(cfg: dict, seed: int) -> tuple:
    """The config's (density, performance, initial partition)."""
    env = build_environment(cfg)
    return build_density(cfg), build_performance(cfg), \
        build_initial(cfg, env, seed)


def _snapshots(cfg: dict, args, whole: bool) -> list:
    """The times of --snapshots, else of the config's snapshots, each
    checked by _nonnegative; whole for a stepwise run."""
    if args.snapshot_list is not None:
        where, times = "--snapshots", args.snapshot_list
    else:
        where, times = "snapshots", _numbers(cfg, "snapshots", [])
    return [_nonnegative(t, f"{where}[{k}]", whole)
            for k, t in enumerate(times)]


def _no_snapshots(cfg: dict, args, algo: str):
    """Refuse snapshots to a run that has no partition to draw."""
    for where, times in (("--snapshots", args.snapshot_list),
                         ("snapshots", _get(cfg, "snapshots"))):
        if times is not None:
            raise ConfigError(f"{where}: {algo} runs take no snapshots")


def _partial_delta(cfg: dict, delta, env: Environment, where: str) -> float:
    """The distance-limited exchange's delta, given or else the config's
    algorithm.delta, checked against env; a rejected one becomes a
    ConfigError on the `where` field."""
    if delta is None:
        delta = _number(cfg, "algorithm.delta", required=True, positive=True)
    try:
        return gp.check_delta(env, delta)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _run_stepwise(cfg: dict, algo: str, delta, start: tuple, seed: int,
                  log, where: str, snapshot_steps) -> tuple:
    """Run a stepwise algorithm ("gossip", "partial" or "lloyd") from
    start with the config's budget, stop_tol, check_every and scheduler;
    for "partial", delta, when given, replaces algorithm.delta.

    Returns the trace and its exit code. A rejected setting becomes a
    ConfigError on the `where` field.
    """
    density, perf, initial = start
    budget = _count(cfg, "budget", 5000)
    stop_tol = _get(cfg, "stop_tol")
    stop_tol = None if stop_tol is None else _nonnegative(stop_tol, "stop_tol")
    check_every = _count(cfg, "check_every", 5)
    try:
        if algo == "lloyd":
            trace = sw.run_lloyd(initial, density, perf, budget=budget,
                                 stop_tol=stop_tol,
                                 snapshot_steps=snapshot_steps)
        else:
            delta = _partial_delta(cfg, delta, initial.env, where) \
                if algo == "partial" else None
            scheduler = build_scheduler(cfg, initial.n, seed)
            trace = sw.run_evolution(
                initial, density, perf, scheduler, delta=delta,
                budget=budget, stop_tol=stop_tol, check_every=check_every,
                snapshot_steps=snapshot_steps)
    except DegenerateEvolution as exc:
        log(f"degenerate evolution at step {exc.step}: {exc}")
        return exc.trace, EXIT_DEGENERATE
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return trace, EXIT_BUDGET if trace.termination == "step_budget" \
        else EXIT_OK


def _worst(codes) -> int:
    """One exit code for several runs: degenerate, else budget, else ok."""
    for bad in (EXIT_DEGENERATE, EXIT_BUDGET):
        if bad in codes:
            return bad
    return EXIT_OK


def _run_pairwise(cfg, args, out_dir, seed, log) -> int:
    start = _build_start(cfg, seed)
    density, perf, _ = start
    algo = _get(cfg, "algorithm.kind", "gossip")
    snaps = [int(s) for s in _snapshots(cfg, args, whole=True)]

    started = time.perf_counter()
    trace, code = _run_stepwise(cfg, algo, None, start, seed, log,
                                "algorithm", snaps)
    wall = time.perf_counter() - started

    _ensure_out(out_dir)
    sw.write_trace(trace, os.path.join(out_dir, "trace.txt"))
    write_h_csv(trace, os.path.join(out_dir, "h_series.csv"))
    write_snapshots(trace.snapshots, out_dir, density, perf, log)
    entries = {
        "algorithm": algo, "seed": seed, "steps": len(trace.steps),
        "termination": trace.termination,
        "converged": trace.termination == "converged",
        "final_residual": repr(trace.final_residual),
        "stop_tol": repr(trace.stop_tol), "wall_time": f"{wall:.3f}",
    }
    entries.update(_trace_minima(trace))
    write_summary(os.path.join(out_dir, "summary.txt"), entries)
    log(f"{algo}: {trace.termination} after {len(trace.steps)} steps, "
        f"residual {trace.final_residual:.3e}, {wall:.1f}s")
    return code


def _run_netsim(cfg, args, out_dir, seed, log) -> int:
    density, perf, initial = _build_start(cfg, seed)
    env = initial.env
    speeds = tuple(_numbers(cfg, "algorithm.speeds", [1.0] * initial.n))
    # NetConfig owns the defaults: pass only the fields the config sets
    given = {name: _number(cfg, f"algorithm.{name}", positive=True)
             for name in ("comm_radius", "comm_rate", "waypoint_margin",
                          "delta")}
    given["time_step"] = _number(cfg, "algorithm.time_step")
    try:
        config = ns.NetConfig(
            speeds=speeds, seed=seed,
            **{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"algorithm: {exc}") from exc
    horizon_legs = _number(cfg, "algorithm.horizon_legs", 500.0, positive=True)
    leg = ns.leg_time(env, config)
    snaps = _snapshots(cfg, args, whole=False)

    started = time.perf_counter()
    code = EXIT_OK
    try:
        trace = ns.simulate(config, initial, density, perf,
                            horizon_legs * leg,
                            snapshot_times=[s * leg for s in snaps])
    except DegenerateEvolution as exc:
        trace = exc.trace
        code = EXIT_DEGENERATE
        log(f"degenerate evolution: {exc}")
    except ValueError as exc:
        raise ConfigError(f"algorithm: {exc}") from exc
    wall = time.perf_counter() - started

    _ensure_out(out_dir)
    ns.write_comm_log(trace, os.path.join(out_dir, "comm_log.txt"))
    with open(os.path.join(out_dir, "h_series.csv"), "w") as f:
        f.write("time,h\n")
        for e in trace.events:
            f.write(f"{e.time!r},{e.h!r}\n")
    write_snapshots([(t / leg, p) for t, p in trace.snapshots], out_dir,
                    density, perf, log)
    mixed = False
    if trace.final is not None:
        mixed = gp.is_mixed_centroidal(trace.final, density, perf,
                                       tol=env.end_state_tol)
    if code == EXIT_OK and not mixed:
        code = EXIT_BUDGET
    changed = sum(1 for e in trace.events if e.changed)
    stats = ns.analyze_log(trace.events, trace.elapsed or horizon_legs * leg,
                           5.0 * leg, pt.adjacency_pairs(initial, config.delta))
    entries = {
        "algorithm": "netsim", "seed": seed, "leg_time": repr(leg),
        "events": len(trace.events), "effective_trades": changed,
        "termination": trace.termination, "mixed_centroidal": mixed,
        "wall_time": f"{wall:.3f}",
    }
    for pair, s in sorted(stats.items()):
        entries[f"pair_{pair[0]}_{pair[1]}"] = (
            f"count {s['count']} max_gap {s['max_gap']:.3f} "
            f"hit_p {s['p']:.3f} ci [{s['ci_low']:.3f}, {s['ci_high']:.3f}]")
    write_summary(os.path.join(out_dir, "summary.txt"), entries)
    log(f"netsim: {len(trace.events)} contacts ({changed} effective), "
        f"mixed centroidal: {mixed}, {wall:.1f}s")
    return code


NEAR_CIRCLE_BAND = 0.05


def _run_polar(cfg, args, out_dir, seed, log) -> int:
    _no_snapshots(cfg, args, "polar")
    mode = _get(cfg, "algorithm.mode", required=True)
    steps = _count(cfg, "algorithm.steps", required=True)
    rho0 = _number(cfg, "algorithm.rho0", required=True, positive=True)
    theta0 = _number(cfg, "algorithm.theta0", 0.0)
    try:
        trace = sw.run_polar(mode, steps, rho0, theta0)
    except ValueError as exc:
        raise ConfigError(f"algorithm.mode: {exc}") from exc
    _ensure_out(out_dir)
    with open(os.path.join(out_dir, "polar_trace.csv"), "w") as f:
        f.write("t,rho,theta,map\n")
        labels = [""] + trace.labels
        for t, (rho, theta) in enumerate(trace.states):
            f.write(f"{t},{rho!r},{theta!r},{labels[t]}\n")
    rho_f, theta_f = trace.states[-1]
    near = trace.states[np.abs(trace.states[:, 0] - 1.0) <= NEAR_CIRCLE_BAND]
    spread = sw.circular_spread(near[:, 1]) if len(near) else 0.0
    entries = {
        "algorithm": "polar", "mode": mode, "steps": steps,
        "final_rho": repr(float(rho_f)), "final_theta": repr(float(theta_f)),
        "limit_set_distance": repr(
            sw.distance_to_polar_limit_set(float(rho_f), float(theta_f))),
        "near_circle_angle_spread": repr(float(spread)),
    }
    write_summary(os.path.join(out_dir, "summary.txt"), entries)
    log(f"polar {mode}: final radius {rho_f:.4f}, "
        f"near-circle angle spread {spread:.4f}")
    return EXIT_OK


def _run_comb(cfg, args, out_dir, seed, log) -> int:
    _no_snapshots(cfg, args, "comb")
    levels = _count(cfg, "algorithm.levels", 12)
    if levels > dy.MAX_LEVEL:
        raise ConfigError(f"algorithm.levels: above limit {dy.MAX_LEVEL}")
    _ensure_out(out_dir)
    with open(os.path.join(out_dir, "comb_table.csv"), "w") as f:
        f.write("t,left_measure,left_cost_at_zero,pair_cost,"
                "hausdorff_to_full,symdiff_to_full\n")
        for t in range(levels + 1):
            rec = dy.comb_family(t)
            f.write(f"{t},{rec.left_measure},{rec.left_cost_at_zero},"
                    f"{rec.pair_cost},{rec.hausdorff_to_full},"
                    f"{rec.symdiff_to_full}\n")
    log(f"comb family table for t=0..{levels} written")
    write_summary(os.path.join(out_dir, "summary.txt"),
                  {"algorithm": "comb", "levels": levels})
    return EXIT_OK


_RUNNERS = {"gossip": _run_pairwise, "partial": _run_pairwise,
            "lloyd": _run_pairwise, "netsim": _run_netsim,
            "polar": _run_polar, "comb": _run_comb}


def run_once(cfg: dict, args, out_dir: str, seed: int, log) -> int:
    algo = _get(cfg, "algorithm.kind", "gossip")
    if algo not in _RUNNERS:
        raise ConfigError(f"algorithm.kind: unknown kind {algo!r} "
                          f"(choices: {', '.join(sorted(_RUNNERS))})")
    return _RUNNERS[algo](cfg, args, out_dir, seed, log)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(args.seed, "--seed") if args.seed is not None else \
        _seed(_get(cfg, "seed", 0), "seed")
    out_dir = args.out or _get(cfg, "out", "runs/out")
    if args.batch is not None:
        if args.batch < 1:
            raise ConfigError("batch: needs at least one run")
        seeds = list(range(seed, seed + args.batch))
        codes = {}
        for s in seeds:
            codes[s] = run_once(cfg, args, os.path.join(out_dir, f"seed-{s}"),
                                s, lambda msg: print(f"[seed {s}] {msg}"))
        for s in seeds:
            print(f"seed {s}: exit {codes[s]}")
        return _worst(codes.values())
    return run_once(cfg, args, out_dir, seed, print)


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
    cfg = load_config(args.config)
    seed = _seed(args.seed, "--seed") if args.seed is not None else \
        _seed(_get(cfg, "seed", 0), "seed")
    out_dir = args.out or _get(cfg, "out", "runs/compare")
    algos = _algo_list(args.algos)
    start = _build_start(cfg, seed)
    for name, param in algos:  # every delta, before the first run
        if name == "partial":
            _partial_delta(cfg, param, start[2].env, "algos")

    series = {}
    codes = []
    for name, param in algos:
        label = name if param is None else f"{name}_{param:g}"
        trace, code = _run_stepwise(cfg, name, param, start, seed,
                                    lambda msg: print(f"{label}: {msg}"),
                                    "algos", ())
        series[label] = trace
        codes.append(code)
        print(f"{label}: {trace.termination} after {len(trace.steps)} steps, "
              f"residual {trace.final_residual:.3e}")

    labels = list(series)
    longest = max((len(t.steps) for t in series.values()), default=0)
    _ensure_out(out_dir)
    with open(os.path.join(out_dir, "compare.csv"), "w") as f:
        f.write("t," + ",".join(f"h_{m}" for m in labels) + "\n")
        for t in range(longest):
            row = [str(t)]
            for m in labels:
                steps = series[m].steps
                row.append(repr(steps[t].h) if t < len(steps) else "")
            f.write(",".join(row) + "\n")
    entries = {"seed": seed,
               "budget": _count(cfg, "budget", 5000)}
    for m in labels:
        tr = series[m]
        entries[m] = (f"termination {tr.termination} steps {len(tr.steps)} "
                      f"residual {tr.final_residual!r}")
    write_summary(os.path.join(out_dir, "summary.txt"), entries)
    return _worst(codes)


def cmd_presets(args) -> int:
    for name in preset_names():
        cfg = load_config(name)
        kind = _get(cfg, "algorithm.kind", "gossip")
        print(f"{name}: {kind} — {_get(cfg, 'description', '')}")
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
    if getattr(args, "snapshots", None) is not None:
        try:
            args.snapshot_list = parse_snapshot_list(args.snapshots)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        args.snapshot_list = None
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
