"""Overhead budget for the observability layer.

Interleaves individual uncached ``Study.measure`` calls between two
plain studies over the same engine — one with every instrument live
(metrics + tracing enabled) and one with telemetry switched off the only
way the library offers (global metrics switch off, tracer disabled) —
and asserts the median per-pair ratio stays within 3%.  The baseline
still opens a disabled span and makes no-op counter calls, so the
number is the cost of *recording* telemetry, not of the call sites.
Each attempt also prints that cost in microseconds per pair, because
the percentage moves with the denominator: a slower measurement makes
the same recording cost read smaller.

Pairing at the granularity of a single ``measure`` call is what makes the
number stable on noisy shared hosts: the two sides of each ratio run
microseconds apart, so thermal drift, governor changes, and page-cache
state cancel inside the pair instead of biasing a whole sweep; the order
within each pair alternates so neither side systematically pays the
cold-branch cost; and the median over ~60 pairs discards the scheduler
outliers that make sweep-level comparisons swing by tens of percent.

Run directly: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_obs_overhead.py``
(kept out of the tier-1 ``testpaths`` so timing noise on shared CI
runners never blocks unrelated changes).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.normalization import References  # noqa: E402
from repro.core.study import Study  # noqa: E402
from repro.execution.engine import default_engine  # noqa: E402
from repro.hardware.catalog import ATOM_45, CORE_I7_45  # noqa: E402
from repro.hardware.config import stock  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.obs.tracing import default_tracer  # noqa: E402
from repro.workloads.catalog import BENCHMARKS  # noqa: E402

#: The acceptance budget: instrumentation may cost at most this much.
MAX_OVERHEAD = 0.03

#: Every other benchmark over the two extreme machines gives ~60 pairs —
#: enough for a stable median without a minutes-long run.
_PAIR_STRIDE = 2

#: Timed passes per pair; each pass contributes one ratio, so a single
#: preempted invocation poisons one ratio out of pairs x passes.
_REPS = 3

#: A shared host can inflate a whole attempt's median (load landing
#: disproportionately on one side's runs), so the budget holds if any
#: attempt comes in under it; the attempts re-measure from scratch.
_ATTEMPTS = 3


def _timed_measure(study: Study, benchmark, config, telemetry: bool) -> float:
    """One uncached measure with telemetry on or off, timed.

    The study's cache is cleared first, so repeated calls re-measure."""
    tracer = default_tracer()
    metrics.set_enabled(telemetry)
    if telemetry:
        tracer.enable()
    else:
        tracer.disable()
    try:
        study.ledger.clear_cache()
        start = time.perf_counter()
        study.measure(benchmark, config)
        return time.perf_counter() - start
    finally:
        metrics.set_enabled(True)
        tracer.disable()


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _measure_overhead(
    baseline: Study, instrumented: Study, pairs
) -> tuple[float, float, float]:
    """One full overhead estimate: (median overhead, median base seconds,
    median recording cost in seconds per pair)."""
    pass_ratios: list[list[float]] = [[] for _ in pairs]
    pass_costs: list[list[float]] = [[] for _ in pairs]
    base_times: list[float] = []
    for rep in range(_REPS):
        for index, (bench, config) in enumerate(pairs):
            # ABBA within each pass: both sides run twice back-to-back
            # with the order flipped per pair and per pass.  Summing a
            # side's two runs centres both sums on the same midpoint in
            # time, so linear drift (thermal, governor) cancels exactly,
            # and each side gets one warm slot.
            instrumented_first = (index + rep) % 2 == 0
            # One untimed run first: the quartet's opening slot would
            # otherwise face cold benchmark-specific state (the previous
            # quartet measured a different pair), and with an odd pass
            # count that cold cost lands unevenly across the two orders.
            _timed_measure(baseline, bench, config, telemetry=False)
            total = {True: 0.0, False: 0.0}
            order = (
                (True, False, False, True)
                if instrumented_first
                else (False, True, True, False)
            )
            for side in order:
                study = instrumented if side else baseline
                total[side] += _timed_measure(
                    study, bench, config, telemetry=side
                )
            pass_ratios[index].append(total[True] / total[False])
            # Each side ran twice: half the difference is one run's cost.
            pass_costs[index].append((total[True] - total[False]) / 2.0)
            base_times.append(total[False] / 2.0)
    default_tracer().clear()

    # Median per pair (one preempted pass cannot poison its pair), then
    # median across pairs.
    ratios = [_median(per_pair) for per_pair in pass_ratios]
    costs = [_median(per_pair) for per_pair in pass_costs]
    return _median(ratios) - 1.0, _median(base_times), _median(costs)


def test_instrumentation_overhead_under_budget():
    references = References(default_engine())
    baseline = Study(references=references)
    instrumented = Study(references=references)
    configs = (stock(CORE_I7_45), stock(ATOM_45))
    pairs = [
        (bench, config)
        for config in configs
        for bench in BENCHMARKS[::_PAIR_STRIDE]
    ]

    # Warm every process-wide cache (instruction calibration, meter
    # construction and calibration) so the timed passes compare
    # steady-state measurement cost only.
    for bench, config in pairs:
        baseline.measure(bench, config)

    overheads: list[float] = []
    costs: list[float] = []
    for attempt in range(_ATTEMPTS):
        overhead, base, cost = _measure_overhead(baseline, instrumented, pairs)
        overheads.append(overhead)
        costs.append(cost)
        print(
            f"\nattempt {attempt + 1}: {len(pairs)} pairs x {_REPS} passes, "
            f"median measure {base * 1e3:.2f} ms, "
            f"median overhead {overhead * 100:+.2f}% "
            f"({cost * 1e6:+.1f} us per pair)"
        )
        if overhead <= MAX_OVERHEAD:
            break

    assert min(overheads) <= MAX_OVERHEAD, (
        f"instrumentation overhead {min(overheads) * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% budget in {_ATTEMPTS} attempts "
        f"(all: {[f'{o * 100:+.2f}%' for o in overheads]}; "
        f"per pair: {[f'{c * 1e6:+.1f} us' for c in costs]})"
    )
