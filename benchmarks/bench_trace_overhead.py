"""End-to-end overhead budget for request tracing (ISSUE 6 acceptance).

Drives ``CampaignServer.handle`` directly — no sockets — with the study
cache cleared before every request, so each ``POST /measure`` exercises
the whole pipeline (admission, scheduling, a real measurement, the
store write, and the response encode).  Each request runs twice with
the default tracer armed and twice disarmed in ABBA order, and the
median per-request ratio must stay within 5%: tracing a request may
not cost more than a twentieth of serving it.  Each attempt also
prints the tracing cost in microseconds per request, which does not
move with the request's own cost as the percentage does.

The pairing discipline is the same as ``bench_obs_overhead.py``: both
sides of a ratio run microseconds apart so host noise cancels inside
the pair, the order alternates so neither side systematically pays the
cold-branch cost, and the budget holds if any attempt lands under it.

Run directly:
``PYTHONPATH=src python -m pytest -q benchmarks/bench_trace_overhead.py``
(kept out of the tier-1 ``testpaths`` so timing noise on shared CI
runners never blocks unrelated changes).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import sys
import time
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.normalization import References  # noqa: E402
from repro.core.study import Study  # noqa: E402
from repro.execution.engine import default_engine  # noqa: E402
from repro.obs.tracing import default_tracer  # noqa: E402
from repro.service.server import CampaignServer, Request  # noqa: E402

#: The acceptance budget: tracing a request may cost at most this much
#: of serving it end to end.
MAX_OVERHEAD = 0.05

#: (benchmark, processor) cells cycled across requests.  The slowest
#: cells in the catalog (tens of ms end to end at full scale), so the
#: executor wake-up jitter both sides pay stays small relative to the
#: measured work and the ratio's noise floor sits well under the budget.
_CELLS = (
    ("pjbb2005", "atom_45"),
    ("tomcat", "atom_45"),
    ("h2", "atom_45"),
    ("eclipse", "i7_45"),
    ("pmd", "atom_45"),
    ("sunflow", "atom_45"),
)

#: Timed passes per cell; each pass contributes one ratio.
_REPS = 5

#: A shared host can inflate a whole attempt's median, so the budget
#: holds if any attempt comes in under it.
_ATTEMPTS = 3

_client = itertools.count()


def _request(benchmark: str, processor: str) -> Request:
    return Request(
        method="POST",
        path="/measure",
        query={},
        headers={"x-client-id": f"bench-{next(_client)}"},
        body=json.dumps(
            {"benchmark": benchmark, "processor": processor}
        ).encode("utf-8"),
        peer="bench",
    )


def _timed_handle(
    loop: asyncio.AbstractEventLoop,
    server: CampaignServer,
    study: Study,
    cell: tuple[str, str],
    traced: bool,
) -> float:
    """One uncached end-to-end request under either configuration."""
    tracer = default_tracer()
    if traced:
        tracer.enable()
    else:
        tracer.disable()
    try:
        study.clear_cache()
        request = _request(*cell)
        start = time.perf_counter()
        response = loop.run_until_complete(server.handle(request))
        elapsed = time.perf_counter() - start
        assert response.status == 200, response.body
        return elapsed
    finally:
        tracer.disable()


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _measure_overhead(
    loop: asyncio.AbstractEventLoop, server: CampaignServer, study: Study
) -> tuple[float, float, float]:
    """One full overhead estimate: (median overhead, median base secs,
    median tracing cost in seconds per request)."""
    pass_ratios: list[list[float]] = [[] for _ in _CELLS]
    pass_costs: list[list[float]] = [[] for _ in _CELLS]
    base_times: list[float] = []
    for rep in range(_REPS):
        for index, cell in enumerate(_CELLS):
            traced_first = (index + rep) % 2 == 0
            # One untimed run absorbs benchmark-specific cold state left
            # by the previous quartet.
            _timed_handle(loop, server, study, cell, traced=False)
            total = {True: 0.0, False: 0.0}
            order = (
                (True, False, False, True)
                if traced_first
                else (False, True, True, False)
            )
            for side in order:
                total[side] += _timed_handle(
                    loop, server, study, cell, traced=side
                )
            pass_ratios[index].append(total[True] / total[False])
            # Each side ran twice: half the difference is one run's cost.
            pass_costs[index].append((total[True] - total[False]) / 2.0)
            base_times.append(total[False] / 2.0)
    default_tracer().clear()

    ratios = [_median(per_cell) for per_cell in pass_ratios]
    costs = [_median(per_cell) for per_cell in pass_costs]
    return _median(ratios) - 1.0, _median(base_times), _median(costs)


def test_request_tracing_overhead_under_budget():
    # Full protocol scale — what `repro serve` runs outside --quick —
    # keeps the per-request denominator representative of real service
    # load rather than of the test fixtures' scaled-down measurements.
    study = Study(references=References(default_engine()))
    server = CampaignServer(study=study)
    tracer = default_tracer()
    was_enabled = tracer.is_enabled
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(server.scheduler.start())

        # Warm every process-wide cache (instruction calibration, meter
        # construction, scheduler dispatch path) before timing.
        for cell in _CELLS:
            _timed_handle(loop, server, study, cell, traced=True)

        overheads: list[float] = []
        costs: list[float] = []
        for attempt in range(_ATTEMPTS):
            overhead, base, cost = _measure_overhead(loop, server, study)
            overheads.append(overhead)
            costs.append(cost)
            print(
                f"\nattempt {attempt + 1}: {len(_CELLS)} cells x "
                f"{_REPS} passes, median request {base * 1e3:.2f} ms, "
                f"median overhead {overhead * 100:+.2f}% "
                f"({cost * 1e6:+.1f} us per request)"
            )
            if overhead <= MAX_OVERHEAD:
                break
    finally:
        loop.run_until_complete(server.shutdown())
        loop.close()
        if was_enabled:
            tracer.enable()
        else:
            tracer.disable()
        tracer.clear()

    assert min(overheads) <= MAX_OVERHEAD, (
        f"request-tracing overhead {min(overheads) * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% budget in {_ATTEMPTS} attempts "
        f"(all: {[f'{o * 100:+.2f}%' for o in overheads]}; "
        f"per request: {[f'{c * 1e6:+.1f} us' for c in costs]})"
    )
