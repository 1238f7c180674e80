"""Parallel campaign execution: sharding a sweep across worker processes.

The paper's headline artifact is a 61-benchmark x 45-configuration
campaign, and every cell of it is *pure*: measurement noise is keyed by
the (configuration, benchmark, invocation) site, fault dice by the site
plus the retry attempt, and nothing else in the pipeline reads ambient
state that differs between processes.  That invariant makes a process
pool safe in the strongest sense — not "statistically equivalent" but
**byte-identical**: a worker measuring a pair produces exactly the floats
the parent would have, so the only work left in the parent is to fold the
outcomes back in a deterministic order.

The protocol:

* the parent pre-warms the normalisation references (which also warms the
  engine's instruction calibration) and ships them to each worker once,
  via the pool initializer, together with the retry policy, the armed
  :class:`~repro.faults.plan.FaultPlan` (fault decisions must survive the
  process boundary), and the metrics-enabled flag;
* uncached pairs are dealt round-robin into chunks (a few per worker, so
  a slow chunk cannot straggle the whole sweep);
* each worker measures its chunk through an ordinary
  :class:`~repro.core.study.Study` and returns the
  :class:`~repro.core.results.RunResult` records plus health deltas —
  retries, MAD re-measures, and the ordered failure-event names — and a
  :func:`~repro.obs.metrics.snapshot_delta` of its metrics registry;
* the parent applies metric deltas in chunk order and replays the pair
  list in sweep order, so the merged result set, campaign health,
  failure-dict insertion order, and checkpoint bytes are identical to a
  sequential run regardless of worker count or completion order.

Workers prefer the ``fork`` start method (the setup rides along for
free); on platforms without it the default context is used and the setup
is pickled — every field is a frozen dataclass or a plain dict, so both
paths work.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.results import RunResult
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.hardware.config import Configuration
from repro.obs.metrics import RegistrySnapshot
from repro.workloads.benchmark import Benchmark

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (study imports us)
    from repro.core.normalization import References

#: Chunks dealt per worker: enough that an unlucky chunk of slow pairs
#: cannot straggle the sweep, few enough that per-chunk overhead (metrics
#: snapshots, pickling) stays negligible.
CHUNKS_PER_WORKER = 4


class ExecutorUnavailable(RuntimeError):
    """No worker pool could be created; the caller should fall back to
    the sequential path (same results, just slower)."""


@dataclass(frozen=True)
class WorkerSetup:
    """Everything a worker process needs, shipped once at pool init."""

    references: "References"
    calibration: dict[Benchmark, float]
    invocation_scale: float
    retry: RetryPolicy
    metrics_enabled: bool
    fault_plan: Optional[FaultPlan]
    #: Arm the worker's tracer so each pair ships its span subtree home
    #: (defaulted so pickled setups from older callers keep working).
    trace_enabled: bool = False
    #: Compiled sweep kernels to preload (an engine ``kernel_snapshot``),
    #: a warm-start hint like ``calibration`` — workers compile missing
    #: entries deterministically.  ``None`` ships nothing.
    kernels: Optional[dict] = None
    #: Route fault-free pairs through compiled kernels in the worker
    #: study (result bytes are identical either way; this only pins
    #: which code path produces them).
    vectorize: bool = True

    def compatible_with(self, other: "WorkerSetup") -> bool:
        """Whether workers built from this setup can serve a sweep that
        asked for ``other`` (the reuse rule of :class:`SweepPool` and the
        supervised fleet).  ``calibration`` and ``kernels`` are warm-start
        hints and never gate; ``vectorize`` does, so a sweep that pins
        the scalar path is really measured on it."""
        return (
            self.references is other.references
            and self.invocation_scale == other.invocation_scale
            and self.retry == other.retry
            and self.metrics_enabled == other.metrics_enabled
            and self.fault_plan == other.fault_plan
            and self.trace_enabled == other.trace_enabled
            and self.vectorize == other.vectorize
        )


@dataclass(frozen=True)
class PairOutcome:
    """One pair's result (or failure) plus its health deltas.

    ``failure_events`` lists the failure type names the pair observed in
    order, so the parent can replay them at the pair's position in the
    sweep and reproduce the sequential failure-dict insertion order."""

    index: int
    result: Optional[RunResult]
    failure: Optional[str]
    retries: int
    remeasures: int
    failure_events: tuple[str, ...]
    #: The pair's finished span subtree (``Span.as_dict`` payloads, in
    #: the worker's finish order) when tracing is armed, else empty.
    spans: tuple[dict, ...] = ()


@dataclass(frozen=True)
class ChunkResult:
    """One chunk's outcomes and its telemetry movement."""

    chunk_index: int
    outcomes: tuple[PairOutcome, ...]
    metrics_delta: RegistrySnapshot
    invocations: int


_WORKER_STUDY = None


def _init_worker(setup: WorkerSetup) -> None:
    """Pool initializer: arm faults, preload calibration, build the
    worker's study.  Self-sufficient under both fork and spawn."""
    global _WORKER_STUDY
    from repro.core.study import Study
    from repro.faults import injector
    from repro.obs.metrics import set_enabled
    from repro.obs.tracing import default_tracer

    set_enabled(setup.metrics_enabled)
    # A forked child inherits the parent tracer's ID base and finished
    # spans; reseed into a fresh ID range and drop the inherited spans so
    # worker span IDs can never alias the coordinator's (or a sibling's).
    tracer = default_tracer()
    tracer.reseed()
    tracer.clear()
    if setup.trace_enabled:
        tracer.enable()
    else:
        tracer.disable()
    # The parent's fault state at dispatch time wins over anything a
    # forked child inherited (or a spawned child's clean slate).
    if setup.fault_plan is not None:
        injector.install(setup.fault_plan)
    else:
        injector.uninstall()
    setup.references.engine.preload_calibration(setup.calibration)
    if setup.kernels:
        setup.references.engine.preload_kernels(setup.kernels)
    _WORKER_STUDY = Study(
        references=setup.references,
        invocation_scale=setup.invocation_scale,
        retry=setup.retry,
        vectorize=setup.vectorize,
    )


def _measure_chunk(
    chunk_index: int,
    chunk: Sequence[tuple[Benchmark, Configuration, int]],
) -> ChunkResult:
    """Measure one chunk of pairs in the worker's study.

    Runs exclusively in a pool process; the registry snapshots bracket
    exactly this chunk's work, so the delta contains the chunk's own
    telemetry movement and nothing else."""
    from repro.core.study import Study  # noqa: F401 - ensures module import
    from repro.faults.errors import MeasurementError
    from repro.obs.metrics import default_registry, snapshot_delta
    from repro.obs.tracing import default_tracer

    study = _WORKER_STUDY
    if study is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker study was never initialised")
    registry = default_registry()
    before = registry.snapshot()
    tracer = default_tracer()
    tracing = tracer.is_enabled
    stats = study._stats
    outcomes: list[PairOutcome] = []
    invocations = 0
    for benchmark, config, index in chunk:
        retries_0 = stats.retries
        remeasures_0 = stats.remeasures
        events_0 = len(stats.events)
        spans_0 = len(tracer.finished)
        result: Optional[RunResult] = None
        failure: Optional[str] = None
        # Each pair's spans nest under one executor.chunk root; the
        # parent adopts that subtree (in sweep order) when it merges.
        with tracer.span(
            "executor.chunk",
            chunk=chunk_index,
            pair=index,
            pid=os.getpid(),
            benchmark=benchmark.name,
            config=config.key,
        ):
            try:
                result = study.measure(benchmark, config)
                invocations += result.invocations
            except MeasurementError as exc:
                failure = str(exc)
        outcomes.append(
            PairOutcome(
                index=index,
                result=result,
                failure=failure,
                retries=stats.retries - retries_0,
                remeasures=stats.remeasures - remeasures_0,
                failure_events=tuple(stats.events[events_0:]),
                spans=tuple(
                    span.as_dict() for span in tracer.finished[spans_0:]
                )
                if tracing
                else (),
            )
        )
    delta = snapshot_delta(registry.snapshot(), before)
    return ChunkResult(
        chunk_index=chunk_index,
        outcomes=tuple(outcomes),
        metrics_delta=delta,
        invocations=invocations,
    )


def _pool_context():
    """Prefer ``fork`` (cheap worker start, setup inherited for free);
    fall back to the platform default where fork does not exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class SweepPool:
    """A keep-alive worker pool for long-lived processes.

    A one-shot sweep builds its pool, measures, and tears it down; the
    campaign server instead dispatches many small batches over hours, so
    it keeps one pool warm (:class:`~repro.core.study.Study` with
    ``reuse_pool=True``) and amortises worker start-up across batches.

    The pool is bound to the :class:`WorkerSetup` its workers were
    initialised with; a sweep may reuse it only when
    :meth:`WorkerSetup.compatible_with` accepts the sweep's setup.
    """

    def __init__(self, setup: WorkerSetup, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.setup = setup
        self.workers = workers
        try:
            self.executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(setup,),
            )
        except (OSError, ValueError, PermissionError) as exc:
            raise ExecutorUnavailable(
                f"cannot create worker pool: {exc}"
            ) from exc

    def close(self) -> None:
        self.executor.shutdown(wait=True, cancel_futures=True)


def run_pairs(
    setup: WorkerSetup,
    pending: Sequence[tuple[Benchmark, Configuration, int]],
    jobs: int,
    progress=None,
    pool: Optional[SweepPool] = None,
) -> list[ChunkResult]:
    """Measure ``pending`` pairs across ``jobs`` worker processes.

    Returns chunk results sorted by chunk index — completion order only
    affects progress ticks, never the merge.  Raises
    :class:`ExecutorUnavailable` if no pool can be created (sandboxed
    environments without process spawning) or if the pool breaks
    mid-sweep; the caller falls back to the sequential path, which is
    safe because nothing is merged until every chunk has returned.

    ``pool`` reuses a caller-owned :class:`SweepPool` instead of building
    (and tearing down) a fresh one; the caller keeps ownership — on
    :class:`ExecutorUnavailable` it should close and drop the pool.
    """
    if jobs < 1:
        raise ValueError(f"need at least one worker, got {jobs}")
    owned = pool is None
    if owned:
        pool = SweepPool(setup, min(jobs, len(pending)) or 1)
    workers = min(pool.workers, len(pending)) or 1
    chunk_count = min(len(pending), workers * CHUNKS_PER_WORKER)
    # Round-robin deal: neighbouring pairs usually share a benchmark (the
    # inner loop of the sweep), so striding spreads each benchmark's
    # protocol cost evenly across chunks.
    chunks = [tuple(pending[i::chunk_count]) for i in range(chunk_count)]
    results: list[ChunkResult] = []
    try:
        futures = [
            pool.executor.submit(_measure_chunk, index, chunk)
            for index, chunk in enumerate(chunks)
        ]
        try:
            for future in as_completed(futures):
                chunk_result = future.result()
                if progress is not None and chunk_result.invocations:
                    progress.advance(chunk_result.invocations)
                results.append(chunk_result)
        except BrokenProcessPool as exc:
            raise ExecutorUnavailable(
                f"worker pool died mid-sweep: {exc}"
            ) from exc
    finally:
        if owned:
            pool.close()
    results.sort(key=lambda chunk_result: chunk_result.chunk_index)
    return results
