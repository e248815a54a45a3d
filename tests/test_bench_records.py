"""The committed bench records (BENCH_*.json at the repository root).

Each record holds, per workload of BENCHMARK.json, the last JSON line
of `bench/run.py --trace 0` from each alternating parent/change pair
that was run, with both commits and the date. Every record must name
every workload and every end-to-end metric, so that a later reader can
compare records without guessing what is missing.
"""
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
METRICS = [m["name"] for m in SPEC["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_every_workload_and_metric(path):
    record = json.loads(path.read_text())
    assert record["parent"] and record["change"] and record["date"]
    assert set(record["workloads"]) == WORKLOADS
    for name, pairs in record["workloads"].items():
        assert pairs, name
        for pair in pairs:
            assert pair["first"] in ("parent", "change")
            for side in ("parent", "change"):
                line = pair[side]
                assert {"correct", "attempted", "failed"} <= set(line)
                for metric in METRICS:
                    value = line["metrics"][metric]["value"]
                    assert math.isfinite(value), (name, side, metric)
