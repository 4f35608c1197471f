"""Every ``BENCH_<n>.json`` at the repository root records the benchmark that
``BENCHMARK.json`` declares: each workload, and for each its end-to-end
metrics with their units, the parent's and the change's medians, the number
of run pairs and the seeds.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_some_bench_file_exists():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_records_every_workload_and_end_to_end_metric(path):
    data = json.loads(path.read_text())
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert sorted(data["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for name, run in data["workloads"].items():
        assert type(run["pairs"]) is int and run["pairs"] >= 1, name
        assert run["seeds"] and all(type(s) is int for s in run["seeds"]), name
        assert {m: rec["unit"] for m, rec in run["metrics"].items()} == units, name
        for metric, rec in run["metrics"].items():
            for side in ("parent_median", "change_median"):
                value = rec[side]
                assert type(value) in (int, float) and math.isfinite(value) and value > 0, \
                    (name, metric, side, value)
