"""The repository benchmark: one command, two workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign|serve \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing in any
process; ``--trace 1`` is a separate run that installs the layer
wrappers (see ``layers.py``) and reports the per-layer metrics and the
tracing overhead.  Every run checks the bytes of every record it saw.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a line before it
carries the host-speed diagnostics.  The exit code is 0 only when every
output was correct.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

#: End-to-end metrics, reported with ``--trace 0``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics, reported with ``--trace 1``.
PER_LAYER_UNITS = {
    "execution.kernels.compile_pair.calls": "count",
    "execution.kernels.compile_pair.self_s": "s",
    "execution.kernels.compiles": "count",
    "execution.engine.execution_plan.self_s": "s",
    "execution.kernels.run_pair.self_s": "s",
    "measurement.meter.measure_kernel.self_s": "s",
    "core.statistics.confidence_interval.self_s": "s",
    "execution.kernels.cache_bytes": "bytes",
    "execution.kernels.scalar_fallbacks": "count",
    "core.study.run_pairs.self_s": "s",
    "core.study.measure.self_s": "s",
    "core.study.cache_hit_ratio": "ratio",
    "core.executor.run_pairs.calls": "count",
    "core.executor.run_pairs.self_s": "s",
    "core.executor.SweepPool.init_s": "s",
    "core.executor.SweepPool.close_s": "s",
    "core.executor.pools_started": "count",
    "execution.engine.kernel_snapshot.self_s": "s",
    "core.executor.worker_peak_rss_mib": "MiB",
    "service.stage.admission.p50_ms": "ms",
    "service.stage.schedule.p50_ms": "ms",
    "service.stage.batch.p50_ms": "ms",
    "service.stage.store.p50_ms": "ms",
    "service.batch_pairs.mean": "pairs",
    "service.coalesced": "count",
    "service.store.reads": "count",
    "service.store.writes": "count",
    "service.http.results.p50_ms": "ms",
    "host.ref_loop_ms": "ms",
    "host.raw.setup_s": "s",
    "host.raw.throughput_per_s": "1/s",
    "host.raw.latency_p50_ms": "ms",
    "host.raw.latency_tail_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
}


def result_line(outcome, trace: bool) -> dict:
    """The final JSON object: every metric of the run's kind, by name,
    with its unit."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT} holds no repro sources (src/repro); run the "
            "benchmark from a repository checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import workloads

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, float(args.seconds), bool(args.trace), tmp
        )
    except workloads.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"diagnostics": outcome.diagnostics}))
    print(json.dumps(result_line(outcome, bool(args.trace))))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
