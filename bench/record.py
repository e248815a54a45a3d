"""Record the benchmark's panel: instance fingerprints and the fixture.

Usage, from the repository root:

    python3 bench/record.py          # rewrite bench/panel.json and the fixture
    python3 bench/record.py --check  # recompute and compare, write nothing

For every workload and size it runs each panel instance once, checks
the run's invariants, and stores the trajectory fingerprint with the
unit's wall time (used only to size a run and cut the panel into
strata of similar cost). It stores the calibration kernel's median time
as the reference machine speed. It also reruns the long reference trajectories of the workload
definitions and checks them against their published fingerprints:
rect6-adjacent instance 0 run to convergence, whose state at step 300
is the layer fixture, and rect6-linear-rr instance 0 over 300 steps.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gossipcover import partition as pt  # noqa: E402

import workloads as wl  # noqa: E402

PANEL_SEEDS = {"full": range(32), "tiny": range(4)}
FIXTURE_STEP = 300
CALIBRATIONS = 101
# the long trajectories that define the workloads, with their fingerprints
REFERENCE = {
    "rect6-adjacent": dict(length=5000, steps=1490, termination="converged",
                           residual=1.7066e-06, h=0.1157234884),
    "rect6-linear-rr": dict(length=300, steps=300, termination="step_budget",
                            residual=4.9742e-03, h=0.4518408766),
    "netsim-strip": dict(length=500, contacts=5247, changed=127,
                         termination="horizon"),
}


def _close(got, want) -> bool:
    if isinstance(want, float):
        digits = len(repr(want).split("e")[0].replace(".", "").lstrip("0"))
        return math.isclose(got, want, rel_tol=10.0 ** (1 - digits))
    return got == want


def _record_unit(w, seed, length, **kwargs):
    unit = wl.run_unit(w, seed, length, **kwargs)
    bad = wl.invariant_failures(w, unit)
    if bad:
        raise SystemExit(f"{w.name} seed {seed}: {'; '.join(bad)}")
    return unit


def reference_runs() -> dict:
    out = {}
    for name, ref in REFERENCE.items():
        w = wl.WORKLOADS[name]
        snaps = (FIXTURE_STEP,) if name == "rect6-adjacent" else ()
        unit = _record_unit(w, 0, ref["length"], snapshot_steps=snaps)
        fp = unit.fingerprint
        bad = [f"{k}: got {fp[k]!r}, published {v!r}"
               for k, v in ref.items() if k != "length"
               and not _close(fp[k], v)]
        if bad:
            raise SystemExit(f"{name} reference: {'; '.join(bad)}")
        print(f"{name} reference ok: {fp} in {unit.run_s:.1f}s", flush=True)
        out[name] = {"seed": 0, "length": ref["length"], "fingerprint": fp}
        if snaps:
            step, partition = unit.snapshots[0]
            out[name]["fixture_step"] = step
            fixture = partition
    return out, fixture


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed panel, write nothing")
    args = ap.parse_args(argv)
    panel = {}
    for name, w in wl.WORKLOADS.items():
        panel[name] = {}
        for size, seeds in PANEL_SEEDS.items():
            entries = []
            for seed in seeds:
                unit = _record_unit(w, seed, w.length[size])
                entries.append({"seed": seed, "ref_s": round(unit.run_s, 4),
                                "fingerprint": unit.fingerprint})
                print(f"{name} {size} seed {seed}: {unit.fingerprint} "
                      f"{unit.run_s:.2f}s", flush=True)
            panel[name][size] = entries
    panel["calibration_s"] = statistics.median(
        wl.calibrate() for _ in range(CALIBRATIONS))
    panel["reference"], fixture = reference_runs()
    panel["fixture"] = wl.fixture_results(fixture)
    if args.check:
        old = wl.load_panel()
        bad = []
        for name in wl.WORKLOADS:
            for size in PANEL_SEEDS:
                for new_e, old_e in zip(panel[name][size], old[name][size]):
                    bad += [f"{name} {size} seed {old_e['seed']} {m}"
                            for m in wl.fingerprint_mismatches(
                                new_e["fingerprint"], old_e["fingerprint"])]
        for name, ref in old["reference"].items():
            bad += [f"{name} reference {m}" for m in wl.fingerprint_mismatches(
                panel["reference"][name]["fingerprint"], ref["fingerprint"])]
        bad += wl.fixture_mismatches(panel["fixture"], old["fixture"])
        print("\n".join(bad) if bad else "panel matches")
        return 1 if bad else 0
    pt.write_snapshot(fixture, wl.FIXTURE_PATH, step=FIXTURE_STEP)
    # the committed fixture is what runs load, so record its read-back
    panel["fixture"] = wl.fixture_results(wl._fixture())
    with open(wl.PANEL_PATH, "w") as f:
        json.dump(panel, f, indent=1)
        f.write("\n")
    print(f"wrote {wl.PANEL_PATH} and {wl.FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
