import builtins
import csv
import hashlib
import math
import os
import re
import shlex
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gossipcover import cli
from gossipcover import dyadic as dy
from gossipcover import geometry as geo
from gossipcover import gossip as gp
from gossipcover import netsim as ns
from gossipcover import partition as pt
from gossipcover import switching as sw
from gossipcover.partition import DegenerateEvolution

QUICK_PAIRWISE = """\
environment:
  rectangle: [2.0, 1.0]
n: 2
initial:
  kind: random_voronoi
density:
  kind: uniform
performance:
  kind: quadratic
algorithm:
  kind: gossip
scheduler:
  kind: round_robin
budget: 200
check_every: 1
seed: 0
"""

NETSIM_SHORT = """\
environment:
  rectangle: [3.0, 1.0]
initial:
  kind: strips
  cuts: [1.0, 2.0]
density:
  kind: uniform
performance:
  kind: quadratic
algorithm:
  kind: netsim
  speeds: [1.0, 1.0, 1.0]
  comm_radius: 1.0
  comm_rate: 2.0
  waypoint_margin: 0.2
  delta: 0.2
  time_step: 0.06
  horizon_legs: 3
seed: 0
"""


def write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# CLI contracts, one row per command line. This module imports whichever
# gossipcover is on the path: src/ under tier-1's PYTHONPATH, and the
# installed package in CI's package job.

Contract = namedtuple("Contract", "config argv code expect files checks")


def contract(name, config, argv, code, expect=None, files=(), checks=()):
    """A row: the config text or bytes (None when argv names no file) and
    the argv after `gossipcover`, {cfg} standing for the config's path,
    {tmp} for the row's own directory, and --out appended for run and
    compare unless argv gives one; the exit code; regexes, one or a tuple
    of them, that "stdout", "stderr" or an output file must match; the
    files the output directory must hold, none meaning that no output
    directory exists; and checks called with the output directory."""
    return pytest.param(Contract(config, argv, code, expect or {}, files,
                                 checks), id=name)


def _h(out) -> list:
    with open(out / "h_series.csv") as f:
        return [float(row["h"]) for row in csv.DictReader(f)]


def h_series(rows=None, rise=None):
    """A check: h_series.csv holds `rows` finite H values (more than one
    when None), and none is more than `rise` above the one before it."""
    def check(out):
        h = _h(out)
        assert len(h) == rows if rows else len(h) > 1, h
        assert all(map(math.isfinite, h)), h
        if rise is not None:
            assert max(b - a for a, b in zip(h, h[1:])) <= rise, h
    return check


def contact_log(out):
    """comm_log.txt holds one "time i j changed h" row per contact, as
    many as the summary's events, the last h that of h_series.csv."""
    lines = (out / "comm_log.txt").read_text().splitlines()
    end = next(k for k, ln in enumerate(lines)
               if ln.startswith("# termination"))
    rows = [ln.split() for ln in lines[1:end]]
    events = re.search(r"^events (\d+)$", (out / "summary.txt").read_text(),
                       re.M)
    assert len(rows) == int(events[1])
    for row in rows:
        assert len(row) == 5 and row[3] in ("0", "1"), row
        float(row[0]), int(row[1]), int(row[2]), float(row[4])
    assert float(rows[-1][4]) == _h(out)[-1]


def no_pair_estimate(out):
    """A netsim run shorter than the 5-leg window gives no pair an
    estimate (hit_p nan, ci [0.000, 1.000]), and some pair made a
    contact."""
    pairs = [ln for ln in (out / "summary.txt").read_text().splitlines()
             if ln.startswith("pair_")]
    assert pairs and all(ln.endswith(" hit_p nan ci [0.000, 1.000]")
                         for ln in pairs), pairs
    assert any(" count 0 " not in ln for ln in pairs), pairs


def sha256(name, digest):
    """A check: the output file's bytes have this SHA-256 digest."""
    def check(out):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            digest, name
    return check


def no_numpy_repr(out):
    """No cell of polar_trace.csv is a numpy repr."""
    assert "np." not in (out / "polar_trace.csv").read_text()


STRIP3 = """\
environment: {rectangle: [3, 1]}
initial: {kind: strips, cuts: [0.6, 1.9]}
"""
VORONOI4 = """\
environment: {rectangle: [2, 1]}
n: 4
initial: {kind: random_voronoi}
"""
VORONOI6 = VORONOI4.replace("n: 4", "n: 6")
# three steps per leg and four strips: travel ends and first waits fall
# inside the motion windows
FOUR_AGENTS = """\
environment: {rectangle: [3, 1]}
n: 4
initial: {kind: strips, cuts: [0.7, 1.5, 2.2]}
algorithm: {kind: netsim, speeds: [1, 1, 1, 1], comm_rate: 40,
            time_step: 1.0540925533894598, horizon_legs: 30}
"""
LINEAR_RR = VORONOI4 + """\
performance: {kind: linear}
scheduler: {kind: round_robin}
budget: 20
"""
# the rect6 setup a thousand units from the origin: at step 774 of seed
# 3 the hull of two slivers rounds to no positive area
FAR_RECT6 = """\
environment: {vertices: [[1000, 1000], [1002, 1000], [1002, 1001],
                        [1000, 1001]]}
n: 6
initial: {kind: random_voronoi}
scheduler: {kind: adjacent_random, delta: 1.0e-9}
check_every: 5
seed: 3
"""
# a random six-gon far from unit size: at step 182 an agent starts a leg
# in a region of two pieces, one a needle (area 0.006, 981 long, so
# 1.29e-5 wide against a wall_tol of 7.31e-5) along the other's edges;
# a needle covers no edge, so the other piece's inner edges stay
# internal boundary and the waypoint is drawn there
NEEDLE_NETSIM = """\
environment: {vertices: [[2333.0826030037583, 1118.73464631604],
                         [1010.7960523144022, 1176.5965362580173],
                         [-2526.3884244193487, 1106.052071617124],
                         [-4067.6878951087447, 958.1586521178565],
                         [-3422.650540130155, -1031.1134723554337],
                         [2958.9978625474873, -1073.345989085738]]}
n: 5
initial: {kind: random_voronoi, seed: 83}
algorithm: {kind: netsim, horizon_legs: 3.0, comm_radius: 6863.692908515731,
            waypoint_margin: 686.3692908515732, delta: 343.1846454257866}
budget: 120
check_every: 5
seed: 78
"""
PAIRWISE_FILES = ("trace.txt", "h_series.csv", "summary.txt")
NETSIM_FILES = ("comm_log.txt", "h_series.csv", "summary.txt")
COMPARE_FILES = ("compare.csv", "summary.txt")
HORIZON_MIXED = ("^termination horizon$", "^mixed_centroidal True$")

CONTRACTS = [
    # exit 0: the bundled presets, each mode's files and end state
    contract("presets", None, "presets", cli.EXIT_OK, {"stdout": (
        "^interval-comb: ", "^netsim-strip: ", "^polar-switching: ",
        "^rect6: ")}),
    contract("preset-interval-comb", None, "run interval-comb", cli.EXIT_OK,
             files=("comb_table.csv", "summary.txt"), checks=[sha256(
                 "comb_table.csv", "fbbeab14cb497ecbbf6f02201557930243f9e2"
                                   "924f3454f584ae79a7ab25c617")]),
    contract("preset-polar-switching", None, "run polar-switching",
             cli.EXIT_OK, files=("polar_trace.csv", "summary.txt"),
             checks=[no_numpy_repr]),
    contract("pairwise-converges", QUICK_PAIRWISE, "run {cfg} --snapshots 0",
             cli.EXIT_OK, {"summary.txt": "^termination converged$",
                           "h_series.csv": r"\At,h,residual\n."},
             files=(*PAIRWISE_FILES, "snapshot-0.svg")),
    contract("compare-converges", QUICK_PAIRWISE,
             "compare {cfg} --algos gossip,lloyd", cli.EXIT_OK,
             {"compare.csv": r"\At,h_gossip,h_lloyd\n.", "summary.txt": (
                 "^gossip termination converged ",
                 "^lloyd termination converged ")}, files=COMPARE_FILES),
    # the strip start is already pairwise balanced, so the mixed check holds
    contract("netsim-short", NETSIM_SHORT, "run {cfg}", cli.EXIT_OK,
             {"summary.txt": ("^mixed_centroidal True$", "^pair_0_1 ")},
             files=NETSIM_FILES, checks=[no_pair_estimate]),
    contract("netsim-strip-20-legs",
             STRIP3 + "algorithm: {kind: netsim, horizon_legs: 20}\n",
             "run {cfg} --snapshots 0,10,20", cli.EXIT_OK,
             {"summary.txt": HORIZON_MIXED},
             files=(*NETSIM_FILES, "snapshot-0.svg", "snapshot-10.svg",
                    "snapshot-20.svg"),
             checks=[h_series(rise=1e-9), contact_log]),
    contract("netsim-four-agents", FOUR_AGENTS, "run {cfg}", cli.EXIT_OK,
             {"summary.txt": HORIZON_MIXED}, files=NETSIM_FILES,
             checks=[h_series(rise=1e-9), contact_log]),
    # exit 2: refused before anything runs or any directory is made; the
    # MALFORMED table below holds the config faults
    contract("polar-preset-snapshots", None,
             "run polar-switching --snapshots 1", cli.EXIT_CONFIG,
             {"stderr": "^error: --snapshots: polar runs take no snapshots"}),
    contract("snapshots-not-a-number", VORONOI4, "run {cfg} --snapshots x",
             cli.EXIT_CONFIG, {"stderr": "^error: --snapshots: could not "
                                         "convert string to float: 'x'$"}),
    contract("config-is-a-directory", None, "run {tmp}", cli.EXIT_CONFIG,
             {"stderr": "^error: config: cannot read .*Is a directory"}),
    contract("config-not-utf8", b"n: 2\nseed: \xff\n", "run {cfg}",
             cli.EXIT_CONFIG, {"stderr": "^error: config: cannot read .*"
                                         "'utf-8' codec can't decode"}),
    contract("environment-not-convex", VORONOI4.replace(
        "{rectangle: [2, 1]}",
        "{vertices: [[0, 0], [2, 0], [1, 0.2], [2, 1], [0, 1]]}"),
        "run {cfg}", cli.EXIT_CONFIG,
        {"stderr": "^error: environment.vertices: polygon is not convex$"}),
    contract("environment-empty", "environment: {}\nn: 2\n", "run {cfg}",
             cli.EXIT_CONFIG, {"stderr": "^error: environment: needs "
                                         "rectangle or vertices$"}),
    contract("density-kind-unknown", VORONOI4 + "density: {kind: bogus}\n",
             "run {cfg}", cli.EXIT_CONFIG,
             {"stderr": "^error: density.kind: unknown kind 'bogus'$"}),
    contract("cuts-empty-strip", STRIP3.replace("[0.6, 1.9]", "[1, 1]"),
             "run {cfg}", cli.EXIT_CONFIG,
             {"stderr": r"^error: initial.cuts: empty strip \[1.0, 1.0\]$"}),
    contract("initial-kind-unknown", VORONOI4.replace(
        "random_voronoi", "bogus"), "run {cfg}", cli.EXIT_CONFIG,
        {"stderr": "^error: initial.kind: unknown kind 'bogus'$"}),
    contract("sequence-empty", VORONOI4 + "scheduler: {kind: periodic, "
             "sequence: []}\n", "run {cfg}", cli.EXIT_CONFIG,
             {"stderr": "^error: scheduler.sequence: periodic schedule "
                        "needs at least one pair$"}),
    contract("scheduler-kind-unknown", VORONOI4 + "scheduler: {kind: bogus}\n",
             "run {cfg}", cli.EXIT_CONFIG,
             {"stderr": "^error: scheduler.kind: unknown kind 'bogus'$"}),
    contract("polar-mode-unknown", VORONOI4 + "algorithm: {kind: polar, "
             "mode: bogus, steps: 2, rho0: 1.5}\n", "run {cfg}",
             cli.EXIT_CONFIG,
             {"stderr": "^error: algorithm.mode: unknown mode 'bogus'$"}),
    # the run is made before its directory; a file stands in the way
    contract("out-cannot-be-created", VORONOI4 + "budget: 1\n",
             "run {cfg} --out {cfg}/sub", cli.EXIT_CONFIG,
             {"stderr": "^error: out: cannot create .*Not a directory"}),
    contract("batch-zero", VORONOI4, "run {cfg} --batch 0", cli.EXIT_CONFIG,
             {"stderr": "^error: batch: needs at least one run$"}),
    contract("compare-no-algos", VORONOI4, 'compare {cfg} --algos ","',
             cli.EXIT_CONFIG,
             {"stderr": "^error: algos: empty algorithm list$"}),
    contract("compare-polar", None, "compare polar-switching --algos gossip",
             cli.EXIT_CONFIG, {"stderr": "^error: algorithm.kind: polar runs "
                                         "draw no partition to compare from$"}),
    # exit 3: a refused fused hull ends the run with its partial trace
    contract("refused-fused-hull", FAR_RECT6, "run {cfg}",
             cli.EXIT_DEGENERATE,
             {"stdout": "^degenerate evolution at step 774: fused hull ",
              "summary.txt": ("^termination degenerate$", "^steps 774$")},
             files=PAIRWISE_FILES),
    # a region whose second piece is a needle still has a boundary to
    # draw waypoints near, and the run reaches its horizon
    contract("netsim-needle-draws-waypoints", NEEDLE_NETSIM, "run {cfg}",
             cli.EXIT_OK,
             {"summary.txt": HORIZON_MIXED + ("^events 6000$",)},
             files=NETSIM_FILES, checks=[contact_log]),
    # exit 4: the step budget or the horizon ends the run
    contract("budget-exhausted", QUICK_PAIRWISE.replace("budget: 200",
                                                        "budget: 1"),
             "run {cfg}", cli.EXIT_BUDGET,
             {"summary.txt": "^termination step_budget$"},
             files=PAIRWISE_FILES),
    contract("compare-budget", VORONOI4 + "budget: 40\n",
             "compare {cfg} --algos gossip,lloyd", cli.EXIT_BUDGET,
             {"compare.csv": r"\At,h_gossip,h_lloyd$", "summary.txt": (
                 "^gossip termination ", "^lloyd termination ")},
             files=COMPARE_FILES),
    contract("linear-round-robin", LINEAR_RR, "run {cfg}", cli.EXIT_BUDGET,
             {"summary.txt": "^steps 20$"}, files=PAIRWISE_FILES),
    # H never rises by more than the 1e-9 that criterion 01 allows
    contract("adjacent-random", VORONOI6 + "scheduler: {kind: adjacent_random"
             ", delta: 1.0e-9}\nbudget: 30\n", "run {cfg}", cli.EXIT_BUDGET,
             {"summary.txt": "^steps 30$"}, files=PAIRWISE_FILES,
             checks=[h_series(30, rise=1e-9)]),
    contract("distance-limited", VORONOI6 + "algorithm: {kind: partial, "
             "delta: 0.2}\nscheduler: {kind: uniform_random}\nbudget: 30\n",
             "run {cfg}", cli.EXIT_BUDGET, {"summary.txt": "^steps 30$"},
             files=PAIRWISE_FILES, checks=[h_series(30, rise=1e-9)]),
    # a grid density can raise H, so only its finiteness is checked
    contract("grid-density-linear", LINEAR_RR + "density: {kind: grid, "
             "extent: [0, 0, 2, 1], values: [[1, 3], [2, 0.5]]}\n",
             "run {cfg}", cli.EXIT_BUDGET, {"summary.txt": "^steps 20$"},
             files=PAIRWISE_FILES, checks=[h_series(20)]),
    # 3 legs are shorter than the 5-leg window of the pair statistics
    contract("netsim-horizon-short",
             STRIP3 + "algorithm: {kind: netsim, horizon_legs: 3}\n",
             "run {cfg}", cli.EXIT_BUDGET, {"summary.txt": (
                 "^termination horizon$", "^mixed_centroidal False$")},
             files=NETSIM_FILES, checks=[no_pair_estimate]),
]


@pytest.mark.parametrize("c", CONTRACTS)
def test_contract(tmp_path, capsys, c):
    out = tmp_path / "out"
    cfg = None if c.config is None else write_cfg(tmp_path, c.config)
    argv = shlex.split(c.argv.format(cfg=cfg, tmp=tmp_path))
    if argv[0] != "presets" and "--out" not in argv:
        argv += ["--out", str(out)]
    # main returns the code: a traceback would fail the row here
    assert cli.main(argv) == c.code
    std = capsys.readouterr()
    streams = {"stdout": std.out, "stderr": std.err}
    for where, patterns in c.expect.items():
        text = streams[where] if where in streams else \
            (out / where).read_text()
        for pattern in [patterns] if isinstance(patterns, str) else patterns:
            assert re.search(pattern, text, re.M), (where, pattern, text)
    if c.code == cli.EXIT_CONFIG:
        assert std.out == ""  # nothing ran
    for name in c.files:
        assert (out / name).is_file(), name
    assert c.files or not out.exists()
    for check in c.checks:
        check(out)


def test_contracts_cover_every_exit_code_and_command():
    rows = [param.values[0] for param in CONTRACTS]
    assert {c.code for c in rows} >= {cli.EXIT_OK, cli.EXIT_CONFIG,
                                      cli.EXIT_DEGENERATE, cli.EXIT_BUDGET}
    assert {c.argv.split()[0] for c in rows} >= {"run", "compare", "presets"}
    # a row that lists no files checks that no output directory exists
    assert not any(c.files for c in rows if c.code == cli.EXIT_CONFIG)


# ---------------------------------------------------------------------------
# drawn configs: every key of cli.KEYS, every algorithm and scheduler,
# environments at any size, aspect and offset. A run exits 0, 2, 3 or 4
# and never raises; a refused config leaves no output directory. Tier-1
# draws a dozen; HYPOTHESIS_PROFILE=config-search (tests/conftest.py)
# runs the long search:
#   HYPOTHESIS_PROFILE=config-search PYTHONPATH=src timeout 600 \
#       python -m pytest tests/test_cli.py -k drawn_config \
#       --hypothesis-seed=N

def _log_uniform(lo: float, hi: float):
    """10**u for u uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


@st.composite
def _environment(draw):
    """(environment section, vertices): a rectangle, or a convex 3- to
    8-gon inscribed in an ellipse of aspect 1 to 100 and size 1e-4 to
    1e4, turned and moved up to about 1e5 from the origin."""
    size = draw(_log_uniform(-4.0, 4.0))
    if draw(st.booleans()):
        w, h = size, size / draw(_log_uniform(0.0, 2.0))
        return {"rectangle": [w, h]}, np.array([[0, 0], [w, 0], [w, h],
                                                [0, h]])
    k = draw(st.integers(3, 8))
    t = np.sort(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=k,
                              max_size=k)))
    aspect = draw(_log_uniform(0.0, 2.0))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    cos, sin = math.cos(turn), math.sin(turn)
    x, y = size * np.cos(t), size / aspect * np.sin(t)
    v = np.column_stack((cos * x - sin * y, sin * x + cos * y))
    if draw(st.booleans()):
        away = draw(_log_uniform(-4.0, 5.0))
        at = draw(st.floats(0.0, 2.0 * math.pi))
        v = v + away * np.array([math.cos(at), math.sin(at)])
    return {"vertices": v.tolist()}, v


@st.composite
def drawn_runs(draw):
    """(config, argv after `gossipcover`): {cfg} in argv stands for the
    config's path, and {out} in argv or the config's out for the output
    directory."""
    env, v = draw(_environment())
    lo, hi = v.min(axis=0), v.max(axis=0)
    diam = float(np.hypot(*(hi - lo)))  # of the bounding box
    kind = draw(st.sampled_from(sorted(cli._RUNNERS)))
    cfg = {"environment": env, "seed": draw(st.integers(0, 2**16)),
           "budget": draw(st.integers(1, 30)),
           "check_every": draw(st.integers(1, 5)),
           "algorithm": {"kind": kind}}
    start = draw(st.sampled_from(["random_voronoi", "strips", "pieces"]))
    if start == "random_voronoi":
        n = draw(st.integers(1, 8))
        cfg.update(n=n, initial={"kind": start})
    elif start == "strips":
        fracs = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=7,
                              unique=True))
        n = len(fracs) + 1
        cfg["initial"] = {"kind": start, "cuts": sorted(
            float(lo[0] + f * (hi[0] - lo[0])) for f in fracs)}
    else:
        # the environment as one region, or a rectangle cut in two
        regions = [[v.tolist()]]
        if "rectangle" in env and draw(st.booleans()):
            (w, h), x = hi.tolist(), float(hi[0] * draw(st.floats(0.01,
                                                                  0.99)))
            regions = [[[[0, 0], [x, 0], [x, h], [0, h]]],
                       [[[x, 0], [w, 0], [w, h], [x, h]]]]
        n = len(regions)
        cfg["initial"] = {"kind": start, "regions": regions}
    if draw(st.booleans()):
        cfg["initial"]["seed"] = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        cfg["stop_tol"] = draw(_log_uniform(-12.0, 0.0))
    cfg["performance"] = {"kind": draw(st.sampled_from(["quadratic",
                                                       "linear"]))}
    if draw(st.booleans()):
        cfg["density"] = {"kind": "uniform",
                          "value": draw(_log_uniform(-3.0, 3.0))}
    else:
        rows, cols = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        cfg["density"] = {"kind": "grid", "extent": [*lo.tolist(),
                                                     *hi.tolist()],
                          "values": draw(st.lists(st.lists(
                              _log_uniform(-2.0, 2.0), min_size=cols,
                              max_size=cols), min_size=rows, max_size=rows))}
    sched = draw(st.sampled_from(["round_robin", "uniform_random",
                                  "adjacent_random", "periodic"]))
    cfg["scheduler"] = {"kind": sched}
    if sched == "adjacent_random" and draw(st.booleans()):
        cfg["scheduler"]["delta"] = diam * draw(_log_uniform(-12.0, 0.0))
    if sched == "periodic":
        cfg["scheduler"]["sequence"] = draw(st.lists(st.lists(
            st.integers(0, max(n - 1, 1)), min_size=2, max_size=2,
            unique=True).map(
                sorted), min_size=1, max_size=6))
    algo = cfg["algorithm"]
    if kind == "partial":
        algo["delta"] = diam * draw(_log_uniform(-4.0, -0.5))
    if kind == "netsim":
        algo["horizon_legs"] = draw(st.floats(0.05, 2.0))
        speeds = draw(st.lists(_log_uniform(-1.0, 1.0), min_size=n,
                               max_size=n))
        if draw(st.booleans()):
            algo["speeds"] = speeds
        # NetConfig's defaults fit a unit environment, so its lengths
        # scale with the drawn one: a delta up to diameter/10, margin
        # and delta below a quarter of the radius
        radius = diam * draw(_log_uniform(-2.0, 1.0))
        algo.update(comm_radius=radius, waypoint_margin=radius * draw(
            st.floats(0.01, 0.24)), delta=min(radius / 4.0, diam / 10.0)
            * draw(st.floats(0.01, 0.99)))
        if draw(st.booleans()):
            algo["comm_rate"] = draw(_log_uniform(-1.0, 2.0))
        if draw(st.booleans()):
            slowest = min(speeds) if "speeds" in algo else 1.0
            algo["time_step"] = diam / slowest / draw(st.integers(1, 40))
    if kind == "polar":
        algo.update(mode=draw(st.sampled_from(sw.POLAR_MODES)),
                    steps=draw(st.integers(1, 30)),
                    rho0=draw(_log_uniform(-2.0, 1.0)),
                    theta0=draw(st.floats(-10.0, 10.0)))
    if kind == "comb":
        # the table's cost doubles per level: 10 take 0.3 s; 11 stands
        # for one above the limit
        levels = draw(st.integers(1, 11))
        algo["levels"] = levels if levels <= 10 else dy.MAX_LEVEL + 1
    if kind not in ("polar", "comb"):  # which take no snapshots
        if draw(st.booleans()):
            cfg["snapshots"] = draw(st.lists(st.integers(0, 30), max_size=2))
    if draw(st.booleans()):
        cfg["description"] = draw(st.text(max_size=12))
    argv = "run {cfg}"
    if kind not in ("polar", "comb") and draw(st.integers(0, 3)) == 0:
        argv = "compare {cfg} --algos " + ",".join(draw(st.lists(
            st.sampled_from(["gossip", "lloyd", "partial",
                             f"partial:{diam * 0.05!r}"]),
            min_size=1, max_size=3)))
    # the output directory comes from the config or from --out
    if draw(st.booleans()):
        cfg["out"] = "{out}"
    else:
        argv += " --out {out}"
    return cfg, argv


CONFIG_SEARCH = settings.get_current_profile_name() == "config-search"


@settings(max_examples=settings.default.max_examples if CONFIG_SEARCH
          else 12, deadline=None)
@given(drawn_runs())
def test_drawn_config_exits_with_a_code(run):
    cfg, argv = run
    for name, node in [("", cfg), *((k, cfg[k]) for k in cfg
                                    if isinstance(cfg[k], dict))]:
        assert set(node) <= set(cli.KEYS[name])
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.yaml"), os.path.join(tmp, "out")
        with open(path, "w") as f:
            yaml.safe_dump({**cfg, "out": out} if "out" in cfg else cfg, f)
        code = cli.main(shlex.split(argv.format(cfg=path, out=out)))
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DEGENERATE,
                        cli.EXIT_BUDGET)
        assert code != cli.EXIT_CONFIG or not os.path.exists(out)


# ---------------------------------------------------------------------------
# config loading

def test_h_series_reads_back_numpy_scalars(tmp_path):
    # numpy scalars in a step are written as their numbers, so the file
    # parses back to the same floats
    h, res = np.float64(0.1) / 3, np.float64(2e-7)
    trace = sw.EvolutionTrace(steps=[sw.TraceStep(
        np.int64(0), (0, 1), h, res, np.float64(0.5), np.float64(0.25), 1)])
    cli.write_h_csv(trace, str(tmp_path / "h.csv"))
    row = (tmp_path / "h.csv").read_text().splitlines()[1].split(",")
    assert row == ["0", repr(float(h)), repr(float(res))]


def test_preset_names_ship_with_package():
    assert cli.preset_names() == ["interval-comb", "netsim-strip",
                                  "polar-switching", "rect6"]
    for name in cli.preset_names():
        cfg = cli.load_config(name)
        assert isinstance(cfg, dict)


def test_presets_parse_with_known_keys_only():
    # parse refuses an unknown key, so every shipped preset names only
    # keys of the table
    for name in cli.preset_names():
        cfg = cli.load_config(name)
        settings = cli.parse(cfg)
        assert settings.algorithm.kind == cfg["algorithm"]["kind"]
        assert settings.description == cfg["description"]


def test_load_config_rejections(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config("no-such-preset")
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [1, 2\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(bad))
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(listy))


def test_readme_command_lines_parse():
    # every example of the README's "Command line" block must parse
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("gossipcover ")]
    assert len(lines) >= 4
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "gossipcover"
        args = cli.build_parser().parse_args(argv[1:])
        if args.command in ("run", "compare"):
            assert args.config in cli.preset_names() or \
                args.config.endswith(".yaml")


# ---------------------------------------------------------------------------
# run command

def test_run_seed_override_and_reproducibility(tmp_path):
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["run", cfg, "--out", str(out), "--seed", "3"]) == 0
        outs.append(out)
    assert (outs[0] / "h_series.csv").read_bytes() == \
        (outs[1] / "h_series.csv").read_bytes()
    assert (outs[0] / "trace.txt").read_bytes() == \
        (outs[1] / "trace.txt").read_bytes()


def test_run_batch_fans_out_seeds(tmp_path):
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    out = tmp_path / "batch"
    assert cli.main(["run", cfg, "--out", str(out), "--batch", "2"]) == 0
    assert (out / "seed-0" / "summary.txt").is_file()
    assert (out / "seed-1" / "summary.txt").is_file()


def test_summary_states_the_settings_it_ran(tmp_path):
    # run and compare keep their summary lines and then list every
    # setting, defaults included, as config.<path> <value>
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["compare", cfg, "--algos", "gossip",
                     "--out", str(tmp_path / "cmp")]) == 0
    for out, head in (("run", "algorithm gossip"), ("cmp", "seed 0")):
        lines = (tmp_path / out / "summary.txt").read_text().splitlines()
        assert lines[0] == head
        settings = lines[[line.startswith("config.")
                          for line in lines].index(True):]
        for line in ("config.budget 200", "config.check_every 1",
                     "config.stop_tol None", "config.n 2",
                     "config.scheduler.kind round_robin",
                     "config.algorithm.levels 12",
                     "config.density UniformDensity(value=1.0)",
                     "config.performance PerformanceFunction("
                     "kind='quadratic', refine=1)"):
            assert line in settings
        assert f"config.out {tmp_path / out}" in settings  # the flag's
        assert all(line.startswith("config.") for line in settings)


def test_step_geometry_failure_is_degenerate(tmp_path, monkeypatch):
    # a piece budget overflow inside the fourth exchange (t = 3) ends the
    # run as a degenerate evolution that keeps its partial trace
    real = gp.gossip_step
    calls = []

    def failing(*args, **kwargs):
        if len(calls) == 3:
            raise geo.PieceBudgetExceeded("257 pieces exceed budget 256")
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(gp, "gossip_step", failing)
    initial = pt.voronoi(pt.rectangle(2.0, 1.0),
                         [[0.3, 0.2], [0.5, 0.8], [1.7, 0.4]])
    with pytest.raises(DegenerateEvolution) as info:
        sw.run_evolution(initial, geo.UniformDensity(),
                         geo.quadratic_performance(), sw.RoundRobin(3),
                         budget=50, check_every=100)
    assert info.value.step == 3
    assert len(info.value.trace.steps) == 3
    calls.clear()
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 3
    summary = (out / "summary.txt").read_text().splitlines()
    assert "termination degenerate" in summary
    assert "steps 3" in summary


def test_run_unknown_algorithm_returns_2(tmp_path):
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE.replace("kind: gossip",
                                                     "kind: quantum"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


def test_run_fault_is_not_a_config_error(tmp_path, monkeypatch):
    # a ValueError inside a run is a fault of the program: it leaves
    # main as itself, not as exit 2 blaming the algorithm section
    def broken(*args, **kwargs):
        raise ValueError("fault inside the run")

    monkeypatch.setattr(sw, "run_evolution", broken)
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    with pytest.raises(ValueError, match="fault inside the run"):
        cli.main(["run", cfg, "--out", str(tmp_path / "o")])


def test_run_thin_environment_without_generators_returns_2(tmp_path, capsys):
    # no point lies 1e-3 of the diameter inside a 1 x 1e-4 rectangle, so
    # generator sampling must give up instead of drawing forever
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE.replace(
        "rectangle: [2.0, 1.0]", "rectangle: [1.0, 0.0001]").replace(
        "n: 2", "n: 3"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: initial") and "Traceback" not in err


TWO_STRIPS = """\
environment: {rectangle: [2, 1]}
n: 2
initial: {kind: strips, cuts: [0.5]}
"""
MALFORMED = [
    pytest.param("rectangle: [2, 1]", "rectangle: [0, 1]",
                 "environment.rectangle[0]", id="rectangle-zero"),
    pytest.param("rectangle: [2, 1]", 'rectangle: ["a", 1]',
                 "environment.rectangle[0]", id="rectangle-string"),
    pytest.param("cuts: [0.5]", 'cuts: "abc"', "initial.cuts",
                 id="cuts-string"),
    pytest.param("{kind: strips, cuts: [0.5]}",
                 "{kind: pieces, regions: [[[[0,0],[1,0],[1,1]]], 5]}",
                 "initial.regions", id="regions-number"),
    pytest.param("n: 2", "n: 2\nscheduler: {kind: periodic, "
                 "sequence: [[0, 5]]}", "scheduler.sequence",
                 id="sequence-out-of-range"),
    pytest.param("n: 2", "n: 2\nscheduler: {kind: periodic, "
                 "sequence: [[0, 0]]}", "scheduler.sequence",
                 id="sequence-same-index"),
    pytest.param("n: 2", 'n: 2\nsnapshots: ["x"]', "snapshots[0]",
                 id="snapshots-string"),
    pytest.param("n: 2", 'n: 2\nalgorithm: {kind: netsim, speeds: [1, "x"], '
                 "horizon_legs: 2}", "algorithm.speeds[1]",
                 id="speeds-string"),
    pytest.param("n: 2", 'n: 2\nseed: "abc"', "seed", id="seed-string"),
    pytest.param("n: 2", "n: 2\nseed: -1", "seed", id="seed-negative"),
    pytest.param("{kind: strips, cuts: [0.5]}",
                 "{kind: random_voronoi}\nseed: -1", "seed",
                 id="seed-negative-voronoi"),
    pytest.param("cuts: [0.5]}", "cuts: [0.5], seed: -1}", "initial.seed",
                 id="initial-seed-negative"),
    pytest.param("{kind: strips, cuts: [0.5]}",
                 "{kind: random_voronoi, seed: -1}", "initial.seed",
                 id="initial-seed-negative-voronoi"),
    # counts are whole numbers: no bool, no fraction, no truncation
    pytest.param("n: 2\ninitial: {kind: strips, cuts: [0.5]}",
                 "n: true\ninitial: {kind: random_voronoi}", "n",
                 id="n-bool-voronoi"),
    pytest.param("n: 2", "n: 2.5", "n", id="n-fraction"),
    pytest.param("n: 2", "n: 2\nbudget: 2.5", "budget", id="budget-fraction"),
    pytest.param("n: 2", "n: 2\nbudget: 0.5", "budget",
                 id="budget-below-one"),
    pytest.param("n: 2", "n: 2\nbudget: true", "budget", id="budget-bool"),
    pytest.param("n: 2", "n: 2\ncheck_every: 1.5", "check_every",
                 id="check-every-fraction"),
    # no residual reaches a negative tolerance; checked before the run
    pytest.param("n: 2", "n: 2\nstop_tol: -1\nbudget: 5", "stop_tol",
                 id="stop-tol-negative"),
    # so a one-region round robin, which has no pair, never starts
    pytest.param("n: 2\ninitial: {kind: strips, cuts: [0.5]}",
                 "n: 1\ninitial: {kind: random_voronoi}\nstop_tol: -1\n"
                 "scheduler: {kind: round_robin}", "stop_tol",
                 id="stop-tol-negative-one-region"),
    pytest.param("n: 2", "n: 2\nalgorithm: {kind: polar, mode: alternating, "
                 "steps: 2.5, rho0: 1.5}", "algorithm.steps",
                 id="polar-steps-fraction"),
    pytest.param("n: 2", "n: 2\nalgorithm: {kind: comb, levels: true}",
                 "algorithm.levels", id="comb-levels-bool"),
    # each level of the comb table costs about twice the last
    pytest.param("n: 2", "n: 2\nalgorithm: {kind: comb, levels: 17}",
                 "algorithm.levels", id="comb-levels-above-limit"),
    # numbers are finite, and a pieces start tiles the environment
    pytest.param("rectangle: [2, 1]", "rectangle: [.inf, 1]",
                 "environment.rectangle[0]", id="rectangle-inf"),
    pytest.param("cuts: [0.5]", "cuts: [.nan]", "initial.cuts[0]",
                 id="cuts-nan"),
    pytest.param("{rectangle: [2, 1]}",
                 "{vertices: [[0, 0], [2, 0], [2, .inf], [0, 1]]}",
                 "environment.vertices", id="vertices-inf"),
    pytest.param("{kind: strips, cuts: [0.5]}",
                 "{kind: pieces, regions: [[[[0, 0], [1, 0], [1, .nan], "
                 "[0, 1]]], [[[1, 0], [2, 0], [2, 1], [1, 1]]]]}",
                 "initial.regions", id="pieces-nan"),
    pytest.param("n: 2", "n: 2\nscheduler: {kind: adjacent_random, "
                 f"delta: {10 ** 400}}}", "scheduler.delta",
                 id="delta-int-beyond-float"),
    pytest.param("n: 2", "n: 2\nscheduler: {kind: adjacent_random, "
                 "delta: .nan}", "scheduler.delta", id="delta-nan"),
    pytest.param("n: 2", "n: 2\ndensity: {kind: uniform, value: .nan}",
                 "density.value", id="density-value-nan"),
    pytest.param("n: 2", "n: 2\ndensity: {kind: grid, extent: [0, 0, 2, 1], "
                 "values: [[1, .nan], [1, 1]]}", "density",
                 id="grid-values-nan"),
    pytest.param("n: 2", "n: 2\ndensity: {kind: grid, "
                 "extent: [0, 0, .inf, 1], values: [[1, 1], [1, 1]]}",
                 "density", id="grid-extent-inf"),
    pytest.param("{kind: strips, cuts: [0.5]}",
                 "{kind: pieces, regions: [[[[0, 0], [1.2, 0], [1.2, 1], "
                 "[0, 1]]], [[[1, 0], [1.8, 0], [1.8, 1], [1, 1]]]]}",
                 "initial.regions", id="pieces-overlap"),
    # a section given as a scalar is refused, not read as absent
    pytest.param("n: 2", "n: 2\nperformance: linear", "performance",
                 id="performance-scalar"),
    pytest.param("n: 2", "n: 2\nperformance: {kind: cubic}",
                 "performance.kind", id="performance-unknown-kind"),
    pytest.param("n: 2", "n: 2\nalgorithm: netsim", "algorithm",
                 id="algorithm-scalar"),
    pytest.param("n: 2", "n: 2\nscheduler: round_robin", "scheduler",
                 id="scheduler-scalar"),
    pytest.param("n: 2", "n: 2\ndensity: grid", "density",
                 id="density-scalar"),
    # grid fields are numbers like every other; errors name the entry
    pytest.param("n: 2", "n: 2\ndensity: {kind: grid, extent: [0, 0, 2, 1], "
                 "values: [[true, 1], [1, 1]]}", "density: values[0][0]",
                 id="grid-values-bool"),
    pytest.param("n: 2", "n: 2\ndensity: {kind: grid, "
                 "extent: [0, 0, true, 1], values: [[1, 1], [1, 1]]}",
                 "density: extent[2]", id="grid-extent-bool"),
    pytest.param("n: 2", "n: 2\ndensity: {kind: grid, extent: [0, 0, 2], "
                 "values: [[1, 1], [1, 1]]}", "density: extent",
                 id="grid-extent-short"),
    # snapshot times are finite and >= 0, whole steps when stepwise
    pytest.param("n: 2", "n: 2\nsnapshots: [2.5]", "snapshots[0]",
                 id="snapshots-fraction"),
    pytest.param("n: 2", "n: 2\nsnapshots: [0, -3]", "snapshots[1]",
                 id="snapshots-negative"),
    pytest.param("n: 2", "n: 2\nalgorithm: {kind: netsim, horizon_legs: 2}"
                 "\nsnapshots: [.inf]", "snapshots[0]",
                 id="netsim-snapshots-inf"),
    pytest.param("n: 2", "n: 2\nalgorithm: {kind: netsim, horizon_legs: 2}"
                 "\nsnapshots: [-1]", "snapshots[0]",
                 id="netsim-snapshots-negative"),
    # polar and comb runs draw no partition, so they take no snapshots
    pytest.param("n: 2", "n: 2\nalgorithm: {kind: polar, mode: alternating, "
                 "steps: 3, rho0: 1.5}\nsnapshots: [1]", "snapshots",
                 id="polar-snapshots"),
    pytest.param("n: 2", "n: 2\nalgorithm: {kind: comb, levels: 2}"
                 "\nsnapshots: [3, 1.5]", "snapshots", id="comb-snapshots"),
    # an unknown key, at the top level or in a section, is refused, not
    # ignored in favour of its default
    pytest.param("n: 2", "n: 2\nbudjet: 5", "budjet", id="unknown-top-key"),
    pytest.param("n: 2", "n: 2\nscheduler: {kind: round_robin, dleta: 1}",
                 "scheduler.dleta", id="unknown-section-key"),
    pytest.param("n: 2", "n: 2\nperformance: {kind: linear, refine: 3}",
                 "performance.refine", id="performance-refine"),
    # text is one line, as the summary echoes it
    pytest.param("n: 2", 'n: 2\ndescription: "two\\nlines"', "description",
                 id="description-two-lines"),
    # a pieces start has the region count n names, as strips do
    pytest.param("n: 2\ninitial: {kind: strips, cuts: [0.5]}",
                 "n: 5\ninitial: {kind: pieces, regions: [[[[0, 0], [1, 0], "
                 "[1, 1], [0, 1]]], [[[1, 0], [2, 0], [2, 1], [1, 1]]]]}",
                 "initial.regions", id="pieces-count"),
]


@pytest.mark.parametrize("old, new, field", MALFORMED)
def test_run_malformed_config_names_its_field(tmp_path, capsys, old, new,
                                              field):
    # one changed key of a working config: exit 2 on the key's path
    cfg = write_cfg(tmp_path, TWO_STRIPS.replace(old, new))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old, new, field", [
    p for p in MALFORMED if p.id in ("vertices-inf", "pieces-nan")])
def test_run_non_finite_vertex_gives_its_own_reason(tmp_path, capsys, old,
                                                    new, field):
    # refused before the dedupe drops the vertex and counts too few
    cfg = write_cfg(tmp_path, TWO_STRIPS.replace(old, new))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"error: {field}: polygon vertices must be finite\n"


def test_comb_levels_above_the_limit_name_it(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_STRIPS.replace(
        "n: 2", f"n: 2\nalgorithm: {{kind: comb, levels: {dy.MAX_LEVEL + 1}}}"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"error: algorithm.levels: above limit {dy.MAX_LEVEL}\n"


@pytest.mark.parametrize("algorithm, flag", [
    *(("gossip", f) for f in ("inf", "nan", "-3", "0,1.7")),
    *(("netsim", f) for f in ("inf", "nan", "-3")),
    *((a, f) for a in ("polar", "comb") for f in ("3,1.5", "1", "")),
])
def test_run_snapshot_flag_names_its_entry(tmp_path, capsys, algorithm,
                                           flag):
    # stepwise snapshots are whole steps; netsim ones may fall mid-leg
    cfg = write_cfg(tmp_path, TWO_STRIPS + f"algorithm: {{kind: {algorithm}, "
                    "horizon_legs: 2}\n")
    out = tmp_path / "o"
    assert cli.main(["run", cfg, "--out", str(out),
                     f"--snapshots={flag}"]) == 2
    err = capsys.readouterr().err
    if algorithm in ("polar", "comb"):
        # no partition to draw: any list is refused, not dropped
        assert err.startswith("error: --snapshots: ")
    else:
        entry = 1 if "," in flag else 0
        assert err.startswith(f"error: --snapshots[{entry}]: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("initial", ["{kind: strips, cuts: [0.5]}",
                                     "{kind: random_voronoi}"],
                         ids=["strips", "voronoi"])
@pytest.mark.parametrize("command", [["run"], ["compare", "--algos", "gossip"]],
                         ids=["run", "compare"])
def test_negative_seed_flag_returns_2(tmp_path, capsys, command, initial):
    cfg = write_cfg(tmp_path, TWO_STRIPS.replace(
        "{kind: strips, cuts: [0.5]}", initial))
    assert cli.main([command[0], cfg, *command[1:], "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed: ") and "Traceback" not in err


@pytest.mark.parametrize("command, old, new", [
    (["run"], "rectangle: [2, 1]", "rectangle: [0, 1]"),
    (["run"], "n: 2", "n: 2\nseed: -1"),
    (["compare", "--algos", "gossip"], "rectangle: [2, 1]",
     "rectangle: [0, 1]"),
    (["compare", "--algos", "gossip"], "n: 2", "n: 2\nseed: -1"),
    (["compare", "--algos", "quantum"], "n: 2", "n: 2"),
], ids=["run-rectangle", "run-seed", "compare-rectangle", "compare-seed",
        "compare-algos"])
def test_rejected_config_leaves_no_output_directory(tmp_path, command, old,
                                                    new):
    cfg = write_cfg(tmp_path, TWO_STRIPS.replace(old, new))
    out = tmp_path / "out-bad"
    assert cli.main([command[0], cfg, *command[1:], "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("env", [pt.rectangle(2.0, 1.0),
                                 pt.rectangle(1.0, 0.01),
                                 pt.environment([[0, 0], [3, 0], [0.2, 1]])],
                         ids=["rect", "thin-rect", "triangle"])
def test_random_generators_keep_their_draws(env):
    for seed in range(3):
        got = cli.random_generators(env, 6, seed)
        want = oracles.random_generators_ref(env, 6, seed)
        assert got.tobytes() == want.tobytes()


def test_run_missing_config_returns_2(tmp_path):
    assert cli.main(["run", "definitely-not-a-preset",
                     "--out", str(tmp_path / "o")]) == 2


def test_run_netsim_bad_delta_returns_2(tmp_path, capsys):
    # 0.5 reaches comm_radius/4; 0.4 with comm_radius 2.0 stays below it
    # but passes the 3x1 strip's diameter/10 (0.316): both are refused at
    # the parse, before any output
    for radius, delta, why in (("1.0", "0.5", "comm_radius/4"),
                               ("2.0", "0.4", "diameter/10")):
        cfg = write_cfg(tmp_path, NETSIM_SHORT.replace(
            "comm_radius: 1.0", f"comm_radius: {radius}").replace(
            "delta: 0.2", f"delta: {delta}"))
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: algorithm: ") and why in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()


FAR = "vertices: [[1e6, 1e6], [1000002.0, 1e6], [1000002.0, 1000001.0], " \
      "[1e6, 1000001.0]]"


@pytest.mark.parametrize("initial", [
    "n: 6\ninitial: {kind: random_voronoi}",
    "initial: {kind: strips, cuts: [1000000.1]}"], ids=["voronoi", "strips"])
def test_run_start_that_does_not_tile_returns_2(tmp_path, capsys, initial):
    # a million units from the origin the cells' areas round past the
    # cover check: the start is a config error, not a traceback
    cfg = write_cfg(tmp_path, f"environment: {{{FAR}}}\n{initial}\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: initial: regions cover ")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


NETSIM_TWO_SPEEDS = NETSIM_SHORT.replace("speeds: [1.0, 1.0, 1.0]",
                                         "speeds: [1.0, 1.0]")
NETSIM_ONE_REGION = NETSIM_SHORT.replace(
    "cuts: [1.0, 2.0]", "cuts: []").replace(
    "speeds: [1.0, 1.0, 1.0]", "speeds: [1.0]") + "n: 1\n"


@pytest.mark.parametrize("text, named", [(NETSIM_TWO_SPEEDS, "speeds"),
                                         (NETSIM_ONE_REGION, "n = 1")])
def test_run_netsim_region_mismatch_returns_2(tmp_path, capsys, text, named):
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: algorithm: ") and named in err
    assert "Traceback" not in err


class _Stop(Exception):
    pass


def test_run_netsim_leaves_defaults_to_netconfig(tmp_path, monkeypatch):
    # a config that sets no motion or radio field runs NetConfig's own
    # defaults, with one unit speed per region
    seen = []

    def stop(config, *args, **kwargs):
        seen.append(config)
        raise _Stop

    monkeypatch.setattr(ns, "simulate", stop)
    text = "".join(line for line in NETSIM_SHORT.splitlines(keepends=True)
                   if line.split(":")[0].strip() not in {
                       "speeds", "comm_radius", "comm_rate",
                       "waypoint_margin", "delta", "time_step"})
    cfg = write_cfg(tmp_path, text.replace("seed: 0", "seed: 4"))
    with pytest.raises(_Stop):
        cli.main(["run", cfg, "--out", str(tmp_path / "o")])
    assert seen == [ns.NetConfig(speeds=(1.0,) * 3, seed=4)]


def test_run_polar(tmp_path):
    cfg = write_cfg(tmp_path, """\
algorithm:
  kind: polar
  mode: alternating
  steps: 400
  rho0: 1.7
""")
    out = tmp_path / "polar"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rows = (out / "polar_trace.csv").read_text().splitlines()
    assert rows[0] == "t,rho,theta,map"
    assert len(rows) == 402
    assert rows[1].endswith(",")  # state 0 precedes any applied map
    assert rows[2].endswith(",spiral")
    summary = (out / "summary.txt").read_text()
    assert "limit_set_distance" in summary


def test_polar_trace_reads_back_the_states(tmp_path):
    # every rho and theta cell is a plain float, not a numpy repr
    cfg = write_cfg(tmp_path, "algorithm: {kind: polar, mode: adversarial, "
                    "steps: 50, rho0: 1.7, theta0: 0.3}\n")
    out = tmp_path / "polar"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rows = (out / "polar_trace.csv").read_text().splitlines()[1:]
    got = [[float(x) for x in row.split(",")[1:3]] for row in rows]
    assert got == sw.run_polar("adversarial", 50, 1.7, 0.3).states.tolist()


def test_run_comb_exact_table(tmp_path):
    cfg = write_cfg(tmp_path, """\
algorithm:
  kind: comb
  levels: 4
""")
    out = tmp_path / "comb"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rows = (out / "comb_table.csv").read_text().splitlines()
    assert rows[0] == ("t,left_measure,left_cost_at_zero,pair_cost,"
                       "hausdorff_to_full,symdiff_to_full")
    assert rows[1] == "0,1,3/4,1,1/2,1"
    assert rows[2] == "1,1,1/2,1,1/4,1"
    assert rows[5] == "4,1,1/2,1,1/32,1"


# ---------------------------------------------------------------------------
# compare command

def test_compare_series_matches_run(tmp_path):
    # compare reads the same config keys as run, check_every included
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["compare", cfg, "--algos", "gossip",
                     "--out", str(tmp_path / "cmp")]) == 0
    ran = (tmp_path / "run" / "h_series.csv").read_text().splitlines()
    compared = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
    assert compared[0] == "t,h_gossip"
    assert [row.split(",")[:2] for row in ran[1:]] == \
        [row.split(",") for row in compared[1:]]


def test_compare_rejects_unknown_algo(tmp_path):
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    assert cli.main(["compare", cfg, "--algos", "netsim",
                     "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["compare", cfg, "--algos", "partial:zilch",
                     "--out", str(tmp_path / "o")]) == 2


def test_compare_rejects_unknown_algo_before_running(tmp_path, capsys):
    # gossip and lloyd come first in the list but must not run
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    out = tmp_path / "o"
    assert cli.main(["compare", cfg, "--algos", "gossip,lloyd,quantum",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: algos: 'quantum'")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("algos, field", [
    ("gossip,lloyd:7", "'lloyd' takes no parameter"),
    ("gossip:0.3,lloyd", "'gossip' takes no parameter"),
    ("gossip,partial:-1", "delta must lie in"),
    ("lloyd,partial:0.3", "delta must lie in"),
], ids=["lloyd-parameter", "gossip-parameter", "partial-negative",
        "partial-too-far"])
def test_compare_rejects_bad_parameter_before_running(tmp_path, capsys,
                                                      algos, field):
    # the 2x1 rectangle's delta bound is diameter/10, about 0.224
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    out = tmp_path / "o"
    assert cli.main(["compare", cfg, "--algos", algos,
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: algos: {field}")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_gossip_config_delta_keeps_the_full_exchange(tmp_path, monkeypatch):
    # algorithm.delta is read only by the partial algorithm
    def refuse(*args, **kwargs):
        raise AssertionError("distance-limited exchange ran")

    monkeypatch.setattr(gp, "partial_gossip_step", refuse)
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE.replace(
        "kind: gossip", "kind: gossip\n  delta: 0.1"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0


# ---------------------------------------------------------------------------
# one output path: runners return a record, _finish writes and prints it

MODES = {
    "gossip": QUICK_PAIRWISE,
    "partial": QUICK_PAIRWISE.replace("kind: gossip",
                                      "kind: partial\n  delta: 0.1"),
    "lloyd": QUICK_PAIRWISE.replace("kind: gossip", "kind: lloyd"),
    "netsim": NETSIM_SHORT,
    "polar": "algorithm: {kind: polar, mode: alternating, steps: 20, "
             "rho0: 1.7}\n",
    "comb": "algorithm: {kind: comb, levels: 3}\n",
}
FILES = {"gossip": ["trace.txt", "h_series.csv"],
         "netsim": ["comm_log.txt", "h_series.csv"],
         "polar": ["polar_trace.csv"], "comb": ["comb_table.csv"]}


@pytest.mark.parametrize("mode", MODES)
def test_runners_write_nothing(monkeypatch, mode):
    # a runner opens no file and makes no directory: it returns its record
    settings = cli.parse(yaml.safe_load(MODES[mode]), snapshots="0"
                         if mode not in ("polar", "comb") else None)

    def refuse(*args, **kwargs):
        raise AssertionError("a runner wrote")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(os, "makedirs", refuse)
    run = cli._RUNNERS[mode](settings)
    monkeypatch.undo()
    assert isinstance(run, cli.Run) and run.code == 0
    assert list(run.files) == FILES.get(mode, FILES["gossip"])
    assert len(run.snapshots) == (mode not in ("polar", "comb"))
    assert run.notes == [] and run.closing and run.entries["algorithm"] == mode


@pytest.mark.parametrize("batch", [None, 2], ids=["single", "batch"])
def test_printed_lines_keep_their_order(tmp_path, monkeypatch, capsys, batch):
    # the degenerate note, then the snapshot lines, then the closing line,
    # each with its seed's prefix in a batch
    real = gp.gossip_step
    calls = []

    def failing(*args, **kwargs):
        if len(calls) == 3:  # the fourth exchange of each run
            calls.clear()
            raise geo.PieceBudgetExceeded("257 pieces exceed budget 256")
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(gp, "gossip_step", failing)
    cfg = write_cfg(tmp_path, QUICK_PAIRWISE)
    argv = ["run", cfg, "--out", str(tmp_path / "o"), "--snapshots", "0,2"]
    seeds = [None] if batch is None else range(batch)
    assert cli.main(argv + ([] if batch is None else
                            ["--batch", str(batch)])) == 3
    lines = capsys.readouterr().out.splitlines()
    want = []
    for k in seeds:
        prefix = "" if k is None else re.escape(f"[seed {k}] ")
        want += [prefix + "degenerate evolution at step 3: 257 pieces "
                 "exceed budget 256",
                 prefix + r"snapshot-0\.svg: area residue \S+ \(budget \S+\)",
                 prefix + r"snapshot-2\.svg: area residue \S+ \(budget \S+\)",
                 prefix + r"gossip: degenerate after 3 steps, residual nan, "
                 r"\d+\.\ds"]
    want += [f"seed {k}: exit 3" for k in seeds if k is not None]
    assert len(lines) == len(want)
    for line, pattern in zip(lines, want):
        assert re.fullmatch(pattern, line), (line, pattern)


def test_netsim_degenerate_note_names_its_step(tmp_path, monkeypatch,
                                              capsys):
    # netsim's note reads as the stepwise one, and comes first
    real = gp.partial_gossip_step
    calls = []

    def failing(*args, **kwargs):
        if len(calls) == 2:
            raise geo.PieceBudgetExceeded("257 pieces exceed budget 256")
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(gp, "partial_gossip_step", failing)
    out = tmp_path / "net"
    assert cli.main(["run", write_cfg(tmp_path, NETSIM_SHORT), "--out",
                     str(out), "--snapshots", "0"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"degenerate evolution at step \d+: 257 pieces "
                        r"exceed budget 256", lines[0])
    assert lines[1].startswith("snapshot-0.svg: area residue ")
    assert lines[2].startswith("netsim: 2 contacts (")
    assert len(lines) == 3
    assert "termination degenerate" in (out / "summary.txt").read_text()


def test_netsim_failed_waypoint_table_exits_degenerate(tmp_path, monkeypatch,
                                                      capsys):
    # a table that fails at a leg start in mid-run ends the run at exit 3
    # with the partial trace, as a failed trade does
    real = ns.waypoint_table
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 5:
            raise ns.SamplingExhausted("region has no internal boundary")
        return real(*args)

    monkeypatch.setattr(ns, "waypoint_table", failing)
    out = tmp_path / "net"
    assert cli.main(["run", write_cfg(tmp_path, FOUR_AGENTS), "--out",
                     str(out)]) == cli.EXIT_DEGENERATE
    note = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"degenerate evolution at step [1-9]\d*: region has "
                        r"no internal boundary", note), note
    assert "termination degenerate" in (out / "summary.txt").read_text()
    contact_log(out)


def test_netsim_h_series_reads_back_the_events(tmp_path, monkeypatch):
    runs = []
    real = ns.simulate

    def keep(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ns, "simulate", keep)
    out = tmp_path / "net"
    assert cli.main(["run", write_cfg(tmp_path, NETSIM_SHORT),
                     "--out", str(out)]) == 0
    rows = (out / "h_series.csv").read_text().splitlines()
    assert rows[0] == "time,h"
    assert [tuple(map(float, row.split(","))) for row in rows[1:]] == \
        [(e.time, e.h) for e in runs[0].events]
    assert len(rows) > 1
