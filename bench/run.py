"""End-to-end and per-layer benchmark of gossipcover.

Usage, from the repository root:

    python3 bench/run.py --workload rect6-adjacent --seed 0 --seconds 30 \
        --trace 0

Workloads: rect6-adjacent, netsim-strip, rect6-linear-rr (see
bench/README.md). A run draws pinned panel instances from --seed, one
per cost stratum, as many as their recorded unit times fit in
--seconds. Every unit is checked against its recorded fingerprint and
the invariants, outside the timed region.

--trace 0 prints the end-to-end metrics. Their times are scaled to the
recorded machine speed by a calibration kernel run between units; the
raw wall times are printed as wall.* lines. --trace 1 times the layers
on the fixture partition, then runs units untraced and traced in turn,
with every public layer function wrapped, and prints the per-layer
metrics. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only
when every unit passed its checks.
"""
import os

# one BLAS thread: set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
STEP_PERCENTILE = 95.0  # leaves at least 10 steps beyond it on every workload
SETUP_PROBES = {"full": 7, "tiny": 3}
FIXTURE_REPS = {"full": 3, "tiny": 1}
TRACE_ALLOWANCE = 1.1  # traced over untraced unit time, as measured
# units get this share of --seconds by their recorded times; set-up
# probes, calibration and the correctness gates take the rest
UNIT_SHARE = 0.8
# a machine far slower than the recording one stops early, past this
# multiple of --seconds, so that a run still ends in bounded time
CAP = 1.4
TRACE_SHARE = 0.85  # of --seconds for the traced units; the fixture takes the rest


def import_program():
    """The package from this checkout's src, then the workload module."""
    sys.path.insert(0, str(SRC))
    import gossipcover
    found = Path(gossipcover.__file__).resolve().parent
    if found != (SRC / "gossipcover").resolve():
        raise ImportError(f"gossipcover came from {found}, not {SRC}")
    import workloads
    return workloads


def setup_probe(workload: str, seed: int):
    """Child-process body: import the package and build one instance."""
    start = perf_counter()
    wl = import_program()
    wl.build(wl.WORKLOADS[workload], seed)
    print(repr(perf_counter() - start))


def measure_setup(workload: str, seed: int, probes: int) -> float:
    """Median set-up time over fresh interpreters, each with cold imports."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload",
             workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def blas_threads() -> int:
    """Threads numpy's bundled OpenBLAS reports, else the pinned setting."""
    import ctypes
    import numpy as np
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__),
                                       os.pardir, "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


class Runner:
    """Runs units, checks them, and counts attempts and failures."""

    def __init__(self, wl, workload, size):
        self.wl = wl
        self.w = wl.WORKLOADS[workload]
        self.length = self.w.length[size]
        self.attempted = 0
        self.failures = []

    def unit(self, entry, tracer=None):
        self.attempted += 1
        try:
            unit = self.wl.run_unit(self.w, entry["seed"], self.length, tracer)
            bad = (self.wl.fingerprint_mismatches(unit.fingerprint,
                                                  entry["fingerprint"])
                   + self.wl.invariant_failures(self.w, unit))
        except Exception as exc:  # a raising unit is a failed run
            traceback.print_exc()
            bad, unit = [f"{type(exc).__name__}: {exc}"], None
        if bad:
            self.failures.append(f"seed {entry['seed']}: {'; '.join(bad)}")
            return None
        return unit


def end_to_end(setup_s, units, speeds) -> dict:
    """Times scaled to the recorded machine speed, and peak memory.

    speeds[k] is the machine's speed factor around units[k]; set-up is
    scaled by their mean.
    """
    import numpy as np
    steps_ms = 1e3 * np.concatenate(
        [np.asarray(u.step_s) / f for u, f in zip(units, speeds)])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s / statistics.fmean(speeds), "s"),
        "run_s": (statistics.fmean(u.run_s / f
                                   for u, f in zip(units, speeds)), "s"),
        "step_ms_p50": (float(np.median(steps_ms)), "ms"),
        "step_ms_p95": (float(np.percentile(steps_ms, STEP_PERCENTILE)), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(traced, overhead, fixture_ms) -> dict:
    from tracer import COUNTERS, SPANS
    n = len(traced)
    run_total = sum(u.run_s for _, u in traced)
    out = {}
    for span in SPANS:
        incl = sum(t.inclusive[span] for t, _ in traced)
        out[f"{span}.calls"] = (sum(t.calls[span] for t, _ in traced) / n,
                                "count")
        out[f"{span}.s"] = (incl / n, "s")
        out[f"{span}.self_s"] = (sum(t.self_time[span] for t, _ in traced) / n,
                                 "s")
        out[f"{span}.share"] = (incl / run_total, "ratio")
    out["netsim.motion_s"] = out["netsim.simulate.self_s"]
    totals = {c: sum(t.counters[c] for t, _ in traced) for c in COUNTERS}
    for c in COUNTERS:
        out[c] = (totals[c] / n, "count")
    out["gossip.useful_ratio"] = (
        totals["gossip.exchange.changed"]
        / max(totals["gossip.exchange.attempted"], 1), "ratio")
    out["partition.max_pieces"] = (
        float(max(t.max_pieces for t, _ in traced)), "count")
    out["traced.run_s"] = (run_total / n, "s")
    out["trace_overhead_ratio"] = (statistics.median(overhead), "ratio")
    for name, ms in fixture_ms.items():
        out[f"fixture.{name}_ms"] = (ms, "ms")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: short units, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    started = perf_counter()
    try:
        wl = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import numpy as np
    from tracer import Tracer

    runner = Runner(wl, args.workload, args.size)
    panel_doc = wl.load_panel()
    panel = panel_doc[args.workload][args.size]
    rng = np.random.default_rng(args.seed)
    picks = wl.draw_units(panel, UNIT_SHARE * args.seconds, rng)
    cap = CAP * args.seconds

    def overdue():
        return perf_counter() - started > cap

    print("# env " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": blas_threads()}))

    metrics = {}
    if args.trace:
        fixture_ms, bad = wl.time_fixture(FIXTURE_REPS[args.size])
        runner.attempted += 1
        if bad:
            runner.failures.append("fixture: " + "; ".join(bad))
        # each traced unit also runs untraced, for the overhead ratio
        budget = TRACE_SHARE * args.seconds / (1.0 + TRACE_ALLOWANCE)
        traced, overhead = [], []
        for entry in picks:
            budget -= entry["ref_s"]
            if traced and (budget < 0.0 or overdue()):
                break
            plain = runner.unit(entry)
            tracer = Tracer()
            with tracer:
                unit = runner.unit(entry, tracer)
            if plain is not None and unit is not None:
                traced.append((tracer, unit))
                overhead.append(unit.run_s / plain.run_s)
        if traced:
            metrics = per_layer(traced, overhead, fixture_ms)
    else:
        setup_s = measure_setup(args.workload, picks[0]["seed"],
                                SETUP_PROBES[args.size])
        # a calibration on each side of a unit gives the machine's speed
        # over the stretch of time the unit ran in
        units, speeds = [], []
        before = wl.calibrate()
        for entry in picks:
            if units and overdue():
                break
            unit = runner.unit(entry)
            after = wl.calibrate()
            if unit is not None:
                units.append(unit)
                speeds.append(0.5 * (before + after)
                              / panel_doc["calibration_s"])
            before = after
        if units:
            metrics = end_to_end(setup_s, units, speeds)
            raw = end_to_end(setup_s, units, [1.0] * len(units))
            print("# speed_factors " + " ".join(f"{f:.3f}" for f in speeds))
            for name in ("setup_s", "run_s", "step_ms_p50", "step_ms_p95"):
                print(f"# wall.{name} = {raw[name][0]:.6g} {raw[name][1]}")

    for failure in runner.failures:
        print(f"# FAILED {failure}")
    print(f"# units {runner.attempted}, failed {len(runner.failures)}, "
          f"failed_ratio {len(runner.failures) / runner.attempted:.4f}, "
          f"wall {perf_counter() - started:.1f}s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    correct = not runner.failures and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
