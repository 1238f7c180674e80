"""Tests of the benchmark itself.

Run: ``PYTHONPATH=src python -m pytest -q perfbench`` (outside the
tier-1 ``testpaths``; each workload runs at a tiny size, a couple of
minutes in all).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: str, trace: bool, tmp: Path) -> workloads.Outcome:
    if workload == "campaign":
        return workloads.campaign(7, 0.1, trace, tmp, configs=1)
    return workloads.serve(7, 1.0, trace, tmp, requests=200)


def test_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    line = run.result_line(tiny(workload, trace, tmp_path), trace)
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_traced_campaign_layers_account_for_wall_time(tmp_path):
    metrics = tiny("campaign", True, tmp_path).metrics
    assert metrics["execution.kernels.compile_pair.calls"] == 61
    assert metrics["execution.kernels.compiles"] == 61
    assert metrics["execution.kernels.scalar_fallbacks"] == 0
    assert metrics["core.executor.pools_started"] == 0
    # The layers' self times cover the traced sweep; a 61-pair campaign
    # is too short for its overhead ratio to be more than positive.
    assert 0.9 * metrics["trace.wall_s"] <= metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
    assert metrics["trace.overhead_ratio"] > 0


def test_self_times_subtract_child_spans():
    spans = [
        (1, 0, "child", 10, 40),
        (2, 0, "child", 50, 60),
        (0, -1, "root", 0, 100),
    ]
    times = layers.self_times(spans)
    assert times["root"]["self_s"] == pytest.approx(60e-9)
    assert times["child"]["calls"] == 2
    assert times["child"]["self_s"] == pytest.approx(40e-9)


def _one_record() -> dict:
    from repro.core.study import Study
    from repro.hardware.configurations import all_configurations
    from repro.workloads.catalog import benchmark

    config = all_configurations()[3]
    (result,) = Study(vectorize=True).run_pairs([(benchmark("xalan"), config)])
    return result.as_record()


def _flip_digit(data: bytes) -> bytes:
    """``data`` with one digit of its ``seconds`` value changed."""
    at = data.index(b'"seconds": ') + len(b'"seconds": ') + 2
    digit = data[at : at + 1]
    return data[:at] + (b"1" if digit != b"1" else b"2") + data[at + 1 :]


def test_a_record_with_one_flipped_byte_is_caught():
    record = _one_record()
    key = checks.pair_key(record["configuration"], record["benchmark"])
    pinned = checks.load_expected()["records"]
    good = checks.record_bytes(record)
    bad = _flip_digit(good)
    assert checks.wrong_records([record], pinned) == []
    assert checks.wrong_records([json.loads(bad)], pinned) == [key]
    served = workloads._Call("new", key, 200, good, 0.01)
    assert workloads._call_ok(served, pinned)
    assert not workloads._call_ok(workloads._Call("new", key, 200, bad, 0.01), pinned)

    def listing(*records) -> workloads._Call:
        body = json.dumps({"count": len(records), "results": list(records)}).encode()
        return workloads._Call("results", key, 200, body, 0.01)

    assert workloads._call_ok(listing(record), pinned)
    assert not workloads._call_ok(listing(json.loads(bad)), pinned)
    # A listing that lost the pair served before it is a failure too.
    assert not workloads._call_ok(listing(), pinned)


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
