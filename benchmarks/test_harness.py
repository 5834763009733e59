"""Smoke test of the benchmark harness at a tiny shape: the result schema, and
every metric BENCHMARK.json declares present with its unit. No timing bounds."""
import json
import math
import re

import pytest

import run

run.load_program()
from workloads import WORKLOADS, tiny  # noqa: E402  (needs rrsitr on the path)

with open(run.ROOT / "BENCHMARK.json") as f:
    SPEC = json.load(f)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_reports_every_declared_metric(name, trace, tmp_path):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    result = run.run(tiny(WORKLOADS[name]), seed=3, seconds=0, trace=trace,
                     workdir=str(tmp_path), declared=declared)
    json.dumps(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])


def test_unknown_workload_exits_2(monkeypatch):
    for var in run.BLAS_THREAD_VARS:  # main() pins them; restore after the test
        monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "nope", "--seed", "0", "--seconds", "0"]) == 2
