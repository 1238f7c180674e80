"""Throughput benchmark for the parallel sweep executor (ISSUE 4).

Runs the paper's stock campaign — every benchmark over the eight stock
configurations, full repetition protocol — once sequentially and once
through the process-pool executor, reports the wall-clock speedup, and
always verifies the two datasets are record-for-record identical (the
executor's core guarantee; a speedup that changed the data would be a
bug, not a win).

Two environment variables shape the run:

* ``REPRO_BENCH_JOBS`` — worker count for the parallel side (default:
  the machine's CPU count);
* ``REPRO_BENCH_MIN_SPEEDUP`` — when set, the benchmark *asserts* at
  least this speedup (e.g. ``2.0`` on a 4-core CI runner).  Unset, it
  reports and passes: single-core containers run the pool oversubscribed
  and legitimately see < 1x, but the equivalence check still bites.

``test_vectorized_vs_scalar`` is the compiled-kernel microbenchmark
(ISSUE 9): a *single-process* warm stock sweep on the scalar path versus
the compiled-kernel path, datasets verified identical, with an optional
``REPRO_BENCH_MIN_KERNEL_SPEEDUP`` floor (CI pins ``3.0``).  Unlike the
pool speedup this one is machine-independent in kind — it is pure
Python-versus-numpy dispatch on one core — so the floor is meaningful
even on small runners.

Run directly:
``PYTHONPATH=src python -m pytest -q -s benchmarks/bench_campaign_sweep.py``
(kept out of the tier-1 ``testpaths`` so machine-dependent timing never
blocks unrelated changes).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.normalization import References  # noqa: E402
from repro.core.study import Study  # noqa: E402
from repro.execution.engine import default_engine  # noqa: E402
from repro.hardware.configurations import stock_configurations  # noqa: E402
from repro.workloads.catalog import BENCHMARKS  # noqa: E402

#: Timed sweeps per side; the best of each side is compared, so one
#: preempted sweep cannot sink (or fake) the speedup.
_REPS = 3


def _timed_sweep(
    references: References, jobs, vectorize: bool = True
) -> tuple[float, list[dict]]:
    """One fresh-study sweep; returns (seconds, result records)."""
    study = Study(
        references=references, invocation_scale=1.0, vectorize=vectorize
    )
    configs = stock_configurations()
    start = time.perf_counter()
    results = study.run(configs, BENCHMARKS, jobs=jobs)
    elapsed = time.perf_counter() - start
    return elapsed, [result.as_record() for result in results]


def test_parallel_sweep_throughput():
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or (os.cpu_count() or 1)
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "0"))

    references = References(default_engine())
    # Warm the process-wide state the timed sides share: instruction
    # calibration, meter construction, protocol lookups.  Workers pay
    # their own per-process warm-up inside the timed parallel sweep —
    # that cost is real and belongs in the number.
    _timed_sweep(references, jobs=None)

    sequential_times: list[float] = []
    parallel_times: list[float] = []
    sequential_records = parallel_records = None
    for _ in range(_REPS):
        elapsed, sequential_records = _timed_sweep(references, jobs=None)
        sequential_times.append(elapsed)
        elapsed, parallel_records = _timed_sweep(references, jobs=jobs)
        parallel_times.append(elapsed)

    assert parallel_records == sequential_records, (
        "parallel sweep diverged from the sequential dataset"
    )

    best_seq = min(sequential_times)
    best_par = min(parallel_times)
    speedup = best_seq / best_par
    pairs = len(stock_configurations()) * len(BENCHMARKS)
    print(
        f"\n{pairs} pairs, full protocol: sequential {best_seq:.2f}s, "
        f"jobs={jobs} {best_par:.2f}s -> {speedup:.2f}x "
        f"(datasets identical)"
    )
    if min_speedup > 0:
        assert speedup >= min_speedup, (
            f"speedup {speedup:.2f}x below the "
            f"REPRO_BENCH_MIN_SPEEDUP={min_speedup:g}x floor at jobs={jobs}"
        )


def test_vectorized_vs_scalar():
    """Warm single-process stock sweep: compiled kernels versus the
    scalar invocation loop, byte-identical datasets required."""
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_KERNEL_SPEEDUP", "0"))

    references = References(default_engine())
    # Warm everything both sides share — instruction calibration, the
    # execution-plan cache, meters — *and* each side's own warm state:
    # the kernel cache for the vectorized path, each kernel holding its
    # kept per-invocation state (its per-sample arrays are rebuilt on
    # every replay, so the timed sweeps pay for them).
    # A warm sweep is the steady-state shape of a long-lived campaign
    # server, and it is the regime the >=3x floor is declared for.
    _timed_sweep(references, jobs=None, vectorize=False)
    _timed_sweep(references, jobs=None, vectorize=True)

    scalar_times: list[float] = []
    vector_times: list[float] = []
    scalar_records = vector_records = None
    for _ in range(_REPS):
        elapsed, scalar_records = _timed_sweep(
            references, jobs=None, vectorize=False
        )
        scalar_times.append(elapsed)
        elapsed, vector_records = _timed_sweep(
            references, jobs=None, vectorize=True
        )
        vector_times.append(elapsed)

    assert vector_records == scalar_records, (
        "vectorized sweep diverged from the scalar dataset"
    )

    best_scalar = min(scalar_times)
    best_vector = min(vector_times)
    speedup = best_scalar / best_vector
    pairs = len(stock_configurations()) * len(BENCHMARKS)
    print(
        f"\n{pairs} pairs, full protocol, single process: scalar "
        f"{best_scalar:.2f}s, kernels {best_vector:.2f}s -> {speedup:.2f}x "
        f"(datasets identical)"
    )
    if min_speedup > 0:
        assert speedup >= min_speedup, (
            f"kernel speedup {speedup:.2f}x below the "
            f"REPRO_BENCH_MIN_KERNEL_SPEEDUP={min_speedup:g}x floor"
        )
