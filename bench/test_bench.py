"""Smoke check of the benchmark itself.

Run from the repository root with

    python3 -m pytest -q bench/test_bench.py

Each workload runs at the tiny size, traced and untraced, and must emit
exactly the metrics BENCHMARK.json declares, each with its declared
unit. A perturbed fingerprint must be rejected, and so must a run in a
directory that holds the benchmark but not the program.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, BENCH["command"][1], "--seed", "1", "--seconds", "1",
         *extra], capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(ROOT, "--workload", workload, "--trace", str(trace),
               "--size", "tiny")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())


def test_perturbed_fingerprint_is_rejected():
    w = wl.WORKLOADS["rect6-adjacent"]
    entry = wl.load_panel()[w.name]["tiny"][0]
    unit = wl.run_unit(w, entry["seed"], w.length["tiny"])
    recorded = entry["fingerprint"]
    assert wl.fingerprint_mismatches(unit.fingerprint, recorded) == []
    for key, value in (("h", recorded["h"] * (1.0 + 1e-6)),
                       ("residual", recorded["residual"] * 1.01),
                       ("steps", recorded["steps"] + 1),
                       ("changed", recorded["changed"] - 1),
                       ("termination", "converged")):
        perturbed = dict(recorded, **{key: value})
        assert wl.fingerprint_mismatches(unit.fingerprint, perturbed)


def test_run_with_a_perturbed_panel_fails(monkeypatch, capsys):
    panel = wl.load_panel()
    for entry in panel["netsim-strip"]["tiny"]:
        entry["fingerprint"]["contacts"] += 1
    monkeypatch.setattr(wl, "load_panel", lambda: panel)
    code = run.main(["--workload", "netsim-strip", "--seconds", "1",
                     "--trace", "1", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", BENCH["workloads"][0]["name"])
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
