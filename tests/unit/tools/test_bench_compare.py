"""tools/bench_compare.py: a committed trajectory point passes, and the
same point with one regressed metric or one more failure does not."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
POINT = ROOT / "BENCH_16.json"


def _compare(path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_compare.py"), str(path)],
        capture_output=True, text=True, timeout=60,
    )


def _result(point: dict, side: str, workload: str) -> dict:
    (run,) = [
        run for run in point["runs"]
        if run["side"] == side and run["workload"] == workload
        and run["trace"] == 0
    ]
    return run["result"]


def _set_change(point: dict, workload: str, metric: str, ratio: float) -> None:
    """Make the change read ``ratio`` times the parent's value."""
    parent = _result(point, "parent", workload)["metrics"][metric]["value"]
    _result(point, "change", workload)["metrics"][metric]["value"] = parent * ratio


def test_committed_point_passes():
    done = _compare(POINT)
    assert done.returncode == 0, done.stdout
    assert "throughput_per_s" in done.stdout and "serve" in done.stdout


def test_a_metric_past_its_bound_fails(tmp_path):
    point = json.loads(POINT.read_text())
    _set_change(point, "serve", "latency_p50_ms", 1.3)  # bound 0.25
    regressed = tmp_path / "BENCH_regressed.json"
    regressed.write_text(json.dumps(point))
    done = _compare(regressed)
    assert done.returncode == 1
    assert "latency_p50_ms" in done.stdout and "WORSE" in done.stdout


def test_a_metric_inside_its_bound_passes(tmp_path):
    point = json.loads(POINT.read_text())
    _set_change(point, "campaign", "peak_rss_mib", 1.05)  # bound 0.1
    _set_change(point, "campaign", "throughput_per_s", 0.8)  # bound 0.25
    nudged = tmp_path / "BENCH_nudged.json"
    nudged.write_text(json.dumps(point))
    assert _compare(nudged).returncode == 0


def test_a_grown_failed_share_fails(tmp_path):
    point = json.loads(POINT.read_text())
    _result(point, "change", "campaign")["failed"] = 1
    failing = tmp_path / "BENCH_failing.json"
    failing.write_text(json.dumps(point))
    done = _compare(failing)
    assert done.returncode == 1
    assert "MORE operations failed" in done.stdout
