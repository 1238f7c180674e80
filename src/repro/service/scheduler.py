"""The campaign server's job scheduler: coalescing, admission, dispatch.

Three queueing ideas turn the batch :class:`~repro.core.study.Study`
into something that can serve heavy concurrent traffic:

**Coalescing.**  Every in-flight job is keyed by (benchmark,
configuration, fault-plan fingerprint); a request whose key is already
in flight awaits the *same* future instead of enqueuing a duplicate.
Because measurements are pure, N concurrent identical requests are one
engine execution whose single result answers all N — and the response
bytes equal the sequential ``Study.run`` record, so coalescing is
invisible to clients.

**Admission control.**  The in-flight table is bounded; past
``max_pending`` jobs a submit fails with :class:`Saturated`, which the
HTTP layer turns into ``429`` plus a ``Retry-After`` derived from the
observed per-job service time.  Backpressure therefore arrives *before*
the measurement queue grows without bound, not after the process OOMs.

**Batched dispatch.**  Jobs that arrive while a batch is measuring are
drained together on the next cycle and dispatched as one
``Study.run_pairs`` sweep — which shards across the existing parallel
executor (``jobs``), keeps the retry/fault-injection stack intact, and
merges deterministically.  All measurement happens on one dedicated
thread; the study is single-threaded by design, and the event loop only
ever awaits it.

Per-request fault plans must be *fail-stop only*: the study cache and
result store are keyed by (benchmark, configuration) alone, which is
sound precisely because retried fail-stop faults reproduce the
fault-free bytes.  A corrupting per-request plan would poison shared
state, so :meth:`CampaignScheduler.submit` rejects it.

PR 8 adds two more:

**Deadline propagation + load shedding.**  A request may carry an
absolute deadline (on the scheduler's injectable clock).  Coalesced
requests relax the shared job's deadline (latest wins; no-deadline
wins outright), and the dispatch loop sheds any job whose deadline has
already passed *before* it reaches the engine — resolved with
:class:`DeadlineExceeded` (HTTP 504), journalled as ``shed``, and
counted in ``repro_requests_shed_total``.  Never a silent drop: an
expired request always produces a response, a journal row, and a
metric increment.

**Journal coupling + recovery priority.**  Jobs carry the journal
request keys riding on them; a batch's keys are marked ``done`` in the
same SQLite transaction that persists its records
(:meth:`ResultStore.commit_batch`), and recovery replays submit with
``recovery=True``, which bypasses the ``max_pending`` admission bound —
under overload the server degrades by priority (finish what it already
owes before taking on more) instead of collapsing.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.core.results import RunResult
from repro.core.study import Study
from repro.faults.injector import coordinator_fault_point, injected
from repro.faults.plan import FaultPlan
from repro.hardware.config import Configuration
from repro.obs.metrics import default_registry
from repro.obs.slo import observe_stage
from repro.obs.tracing import default_tracer, wall_time_of
from repro.service.store import ResultStore
from repro.workloads.benchmark import Benchmark

_REGISTRY = default_registry()
_JOBS = _REGISTRY.counter(
    "repro_service_jobs_total",
    "Unique measurement jobs accepted by the scheduler",
)
_COALESCED = _REGISTRY.counter(
    "repro_service_coalesced_total",
    "Requests answered by an already-in-flight identical job",
)
_REJECTED = _REGISTRY.counter(
    "repro_service_rejected_total",
    "Requests refused by admission control, by reason",
)
_PENDING = _REGISTRY.gauge(
    "repro_service_pending_jobs",
    "Jobs currently queued or measuring in the scheduler",
)
_BATCH_PAIRS = _REGISTRY.histogram(
    "repro_service_batch_pairs",
    "Pairs dispatched per measurement batch",
    buckets=(1, 2, 4, 8, 16, 32, 64),
)
_BATCH_SECONDS = _REGISTRY.histogram(
    "repro_service_batch_seconds",
    "Wall-clock seconds per measurement batch",
)
_JOB_SECONDS = _REGISTRY.histogram(
    "repro_service_job_seconds",
    "Amortised wall seconds per job (batch seconds / batch pairs)",
)
SHED_TOTAL = _REGISTRY.counter(
    "repro_requests_shed_total",
    "Requests shed because their deadline expired before dispatch, by stage",
)

#: Quantile-informed Retry-After needs this many job-seconds samples
#: before the p95 estimate is trusted over the EWMA.
_RETRY_AFTER_MIN_SAMPLES = 8

#: Job identity: what must match for two requests to share one result.
JobKey = tuple[str, str, Optional[str]]


@dataclass
class _Job:
    """One queued measurement plus the trace context that submitted it.

    ``submit_span_id`` is the request's ``service.submit`` span (None
    when tracing is disarmed); the dispatch loop parents each job's
    ``service.schedule`` span under it, so the queue wait and the batch
    work land inside the right request's trace even though they happen
    on other tasks/threads where contextvars cannot carry the parent."""

    key: JobKey
    benchmark: Benchmark
    config: Configuration
    plan: Optional[FaultPlan]
    submit_span_id: Optional[int] = None
    enqueued_perf: float = 0.0
    #: Journal request keys riding this job (the first submitter's plus
    #: every coalescer's) — marked done/shed/failed when it resolves.
    request_keys: list[str] = field(default_factory=list)
    #: Absolute deadline on the scheduler clock; ``None`` = unbounded.
    #: Coalescing relaxes it (latest wins, no-deadline wins outright) so
    #: a shed can never 504 a waiter who asked for no deadline.
    deadline: Optional[float] = None
    #: Recovery replays bypass the admission bound (they are work the
    #: server already owes) and are flagged for the ops view.
    recovery: bool = False
    #: HTTP requests awaiting this job (1 + coalescers), so a shed can
    #: count every affected request, not just the job.
    waiters: int = 1


class SchedulerError(RuntimeError):
    """Base class for submit-time refusals."""


class Saturated(SchedulerError):
    """The bounded job table is full; retry after ``retry_after_s``."""

    def __init__(self, pending: int, retry_after_s: float) -> None:
        super().__init__(
            f"measurement queue is full ({pending} jobs in flight)"
        )
        self.retry_after_s = retry_after_s


class Draining(SchedulerError):
    """The server is shutting down and no longer accepts work."""


class InvalidPlan(SchedulerError):
    """A per-request fault plan that could corrupt shared results."""


class MeasurementFailed(SchedulerError):
    """The pair exhausted its retries and was quarantined."""


class DeadlineExceeded(SchedulerError):
    """The request's deadline expired before its work was dispatched.

    The HTTP layer maps this to 504: the client's budget ran out while
    the job sat in the queue, so the engine was never invoked for it."""


class CampaignScheduler:
    """Bounded, coalescing front-end over one :class:`Study`.

    ``max_pending`` bounds the in-flight job table (queued + measuring).
    ``jobs`` is forwarded to ``Study.run_pairs`` per batch, so batches
    shard across the parallel executor exactly like CLI sweeps do.
    ``store`` (optional) receives every newly measured record and is the
    warm-start source across restarts.
    """

    def __init__(
        self,
        study: Study,
        store: Optional[ResultStore] = None,
        max_pending: int = 64,
        jobs: Optional[int | str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"need max_pending >= 1, got {max_pending}")
        self._study = study
        self._clock = clock
        self._store = store
        self._max_pending = max_pending
        self._jobs = jobs
        self._inflight: dict[JobKey, asyncio.Future] = {}
        self._jobs_meta: dict[JobKey, _Job] = {}
        self._queue: list[_Job] = []
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-measure"
        )
        self._draining = False
        # EWMA of per-job service seconds, seeding Retry-After estimates.
        self._job_seconds = 1.0
        self.completed = 0
        self.coalesced = 0
        self.rejected = 0
        self.failed = 0
        self.shed = 0

    @property
    def study(self) -> Study:
        return self._study

    async def offload(self, fn, *args):
        """Run ``fn(*args)`` on the single measurement thread and await it.

        Every study access in the service funnels through this one-thread
        executor, so ad-hoc work (the ``/project`` frontier search)
        serializes with ``/measure`` batch dispatches instead of racing
        them on the shared study.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._worker, fn, *args)

    def run_projection(self, nodes, samples, budget, seed):
        """Synchronous frontier search with the scheduler's study and
        worker setting; call via :meth:`offload`."""
        from repro.projection import search

        return search(
            study=self._study,
            nodes=nodes,
            samples=samples,
            budget=budget,
            seed=seed,
            jobs=self._jobs,
        )

    def now(self) -> float:
        """The scheduler's clock — the timebase request deadlines live on
        (injectable, so tests can expire deadlines without sleeping)."""
        return self._clock()

    @property
    def pending(self) -> int:
        """Jobs queued or measuring right now."""
        return len(self._inflight)

    @property
    def draining(self) -> bool:
        return self._draining

    def retry_after_s(self) -> float:
        """Suggested client back-off: the queue's estimated drain time.

        Per-job service time comes from the p95 of the observed
        job-seconds histogram once enough samples exist — a tail-aware
        estimate, so clients backing off under load do not return while a
        slow batch is still draining — and falls back to the EWMA while
        the histogram is cold."""
        per_job = self._job_seconds
        if _JOB_SECONDS.count >= _RETRY_AFTER_MIN_SAMPLES:
            per_job = max(per_job, _JOB_SECONDS.quantile(0.95))
        return max(1.0, round(self.pending * per_job, 1))

    def inflight_snapshot(self) -> list[dict[str, object]]:
        """The in-flight job table (queued + measuring) for the ops view."""
        now = time.perf_counter()
        clock_now = self._clock()
        return [
            {
                "benchmark": job.benchmark.name,
                "config": job.config.key,
                "plan": job.key[2],
                "age_s": round(now - job.enqueued_perf, 3),
                "deadline_s": (
                    None
                    if job.deadline is None
                    else round(job.deadline - clock_now, 3)
                ),
                "recovery": job.recovery,
            }
            for job in self._jobs_meta.values()
        ]

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._dispatcher is not None:
            raise RuntimeError("scheduler already started")
        self._wake = asyncio.Event()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-service-dispatch"
        )

    async def drain(
        self, deadline_s: Optional[float] = None
    ) -> dict[str, object]:
        """Stop admitting, finish every in-flight job, release workers.

        ``deadline_s`` bounds how long the drain waits for in-flight
        measurements (measured on the injectable ``clock``): past it the
        dispatcher is cancelled, every unresolved request fails with
        :class:`Draining`, and the measurement thread is abandoned rather
        than joined — a hung measurement can no longer hold SIGTERM
        hostage.  ``None`` preserves the wait-forever behaviour.

        Returns a summary dict for the final health report (including
        ``drain_timed_out`` and ``cancelled``).  Idempotent: a second
        drain returns the same summary without re-draining.
        """
        self._draining = True
        if self._wake is not None:
            self._wake.set()
        timed_out = False
        if self._dispatcher is not None:
            if deadline_s is None:
                await self._dispatcher
            else:
                deadline = self._clock() + deadline_s
                remaining = deadline - self._clock()
                finished = False
                if remaining > 0:
                    done, _ = await asyncio.wait(
                        {self._dispatcher}, timeout=remaining
                    )
                    finished = bool(done)
                if not finished:
                    timed_out = True
                    self._dispatcher.cancel()
                    try:
                        await self._dispatcher
                    except asyncio.CancelledError:
                        pass
            self._dispatcher = None
        cancelled = 0
        if timed_out:
            # Escalate: fail whatever is still unresolved and walk away
            # from the measurement thread instead of joining a hung one.
            error = Draining("drain deadline exceeded; measurement cancelled")
            for key in list(self._inflight):
                self._resolve(key, error=error)
                cancelled += 1
            self._queue.clear()
            self._worker.shutdown(wait=False, cancel_futures=True)
        else:
            self._worker.shutdown(wait=True)
        # The pool's close is SIGKILL-bounded, so it is safe even while
        # an abandoned measurement thread is still inside a sweep.
        self._study.close_pool()
        if self._store is not None:
            self._store.flush()
        return {
            "completed": self.completed,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "failed": self.failed,
            "shed": self.shed,
            "quarantined": len(self._study.ledger.quarantined),
            "store_records": len(self._store) if self._store is not None else 0,
            "drain_timed_out": timed_out,
            "cancelled": cancelled,
        }

    # -- submission ------------------------------------------------------------

    @staticmethod
    def job_key(
        benchmark: Benchmark,
        config: Configuration,
        plan: Optional[FaultPlan] = None,
    ) -> JobKey:
        return (
            benchmark.name,
            config.key,
            plan.fingerprint if plan is not None else None,
        )

    async def submit(
        self,
        benchmark: Benchmark,
        config: Configuration,
        plan: Optional[FaultPlan] = None,
        *,
        request_key: Optional[str] = None,
        deadline: Optional[float] = None,
        recovery: bool = False,
    ) -> RunResult:
        """One measurement request: coalesced, admitted, and awaited.

        ``request_key`` is the request's journal key (already admitted by
        the server); it rides the job so completion can be marked in the
        record-persisting transaction.  ``deadline`` is absolute on the
        scheduler clock; expired work is shed with
        :class:`DeadlineExceeded` instead of reaching the engine.
        ``recovery=True`` marks a journal replay: it bypasses the
        ``max_pending`` bound, because replays are work the server
        already accepted — shedding *new* work first is the priority
        order that keeps overload from collapsing into lost history.

        Raises :class:`Draining`, :class:`Saturated`, :class:`InvalidPlan`,
        :class:`DeadlineExceeded` at submit time and
        :class:`MeasurementFailed` when the pair exhausts its retries.
        """
        if self._wake is None:
            raise RuntimeError("scheduler not started")
        # The submit span stays open across the await, so its duration is
        # the request's full scheduling + measurement wait; refusals
        # (Draining/Saturated/InvalidPlan) close it via the exception.
        with default_tracer().span(
            "service.submit", benchmark=benchmark.name, config=config.key
        ) as span:
            if self._draining:
                raise Draining("server is draining; no new measurements")
            if plan is not None and not plan.fail_stop_only:
                raise InvalidPlan(
                    "per-request fault plans must be fail-stop only "
                    "(corrupting faults would poison the shared result cache)"
                )
            if deadline is not None and deadline <= self._clock():
                # Dead on arrival: journal it as shed and refuse before
                # any queue state exists for it.
                self._count_shed("admit", 1, [request_key] if request_key else [])
                raise DeadlineExceeded(
                    "deadline expired before the request could be queued"
                )
            key = self.job_key(benchmark, config, plan)
            future = self._inflight.get(key)
            if future is not None:
                self.coalesced += 1
                _COALESCED.inc()
                span.set_attribute("coalesced", True)
                job = self._jobs_meta.get(key)
                if job is not None:
                    job.waiters += 1
                    if request_key is not None:
                        job.request_keys.append(request_key)
                    # Latest deadline wins; a no-deadline waiter unbounds
                    # the job (shedding it would 504 that waiter).
                    if job.deadline is not None:
                        job.deadline = (
                            None if deadline is None
                            else max(job.deadline, deadline)
                        )
                return await future
            if not recovery and len(self._inflight) >= self._max_pending:
                self.rejected += 1
                _REJECTED.labels(reason="saturated").inc()
                raise Saturated(len(self._inflight), self.retry_after_s())
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            job = _Job(
                key=key,
                benchmark=benchmark,
                config=config,
                plan=plan,
                submit_span_id=span.span_id,
                enqueued_perf=time.perf_counter(),
                request_keys=[request_key] if request_key is not None else [],
                deadline=deadline,
                recovery=recovery,
            )
            self._jobs_meta[key] = job
            self._queue.append(job)
            _JOBS.inc()
            _PENDING.set(len(self._inflight))
            self._wake.set()
            return await future

    def _count_shed(
        self, stage: str, requests: int, request_keys: Sequence[str]
    ) -> None:
        """Account for shed work: metric + journal, never silent."""
        self.shed += requests
        SHED_TOTAL.labels(stage=stage).inc(requests)
        if self._store is not None and request_keys:
            self._store.journal_shed(
                request_keys, f"deadline expired before {stage}"
            )

    # -- dispatch --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._queue:
                if self._draining and not self._inflight:
                    return
                # clear-then-wait is race-free here: submit/drain only run
                # while this coroutine is suspended, never between the
                # clear and the wait.
                self._wake.clear()
                await self._wake.wait()
                continue
            batch, self._queue = self._queue, []
            coordinator_fault_point("schedule")
            # Load shedding: a job whose deadline has already passed is
            # resolved (504) and journalled *here*, before the engine is
            # ever invoked for it — the shed is counted, never silent.
            # (The clock is only read when a deadline exists: tests
            # inject finite tick sequences for the drain path.)
            live: list[_Job] = batch
            if any(job.deadline is not None for job in batch):
                now = self._clock()
                live = []
                for job in batch:
                    if job.deadline is not None and job.deadline <= now:
                        self._count_shed(
                            "dispatch", job.waiters, job.request_keys
                        )
                        self._resolve(
                            job.key,
                            error=DeadlineExceeded(
                                "deadline expired while the job was queued; "
                                "shed before dispatch"
                            ),
                        )
                    else:
                        live.append(job)
            # One sweep per distinct plan: the injector is process-global,
            # so a batch's plan must be uniform while it measures.
            groups: dict[Optional[str], list[_Job]] = {}
            for job in live:
                groups.setdefault(job.key[2], []).append(job)
            for jobs in groups.values():
                plan = jobs[0].plan
                pairs = [(job.benchmark, job.config) for job in jobs]
                schedule_spans = self._record_schedule_spans(jobs)
                # Snapshot each pair's journal keys on the event loop —
                # the measurement thread marks exactly these done in the
                # record-persisting transaction; coalescers who attach
                # later are completed (idempotently) at resolve time.
                batch_keys = {
                    (job.benchmark.name, job.config.key): list(job.request_keys)
                    for job in jobs
                }
                started = time.perf_counter()
                try:
                    results, failures = await loop.run_in_executor(
                        self._worker,
                        self._measure_batch,
                        plan,
                        pairs,
                        schedule_spans,
                        batch_keys,
                    )
                except asyncio.CancelledError:
                    # Drain escalation: leave the jobs unresolved so the
                    # drain path can fail them all with Draining.
                    raise
                except BaseException as exc:  # noqa: BLE001 - fan the error out
                    for job in jobs:
                        self._resolve(job.key, error=exc)
                    continue
                elapsed = time.perf_counter() - started
                _BATCH_PAIRS.observe(len(pairs))
                _BATCH_SECONDS.observe(elapsed)
                observe_stage("batch", elapsed)
                _JOB_SECONDS.observe(elapsed / max(1, len(pairs)))
                self._job_seconds = 0.7 * self._job_seconds + 0.3 * (
                    elapsed / max(1, len(pairs))
                )
                for job in jobs:
                    pair_key = (job.benchmark.name, job.config.key)
                    if pair_key in results:
                        self._resolve(job.key, result=results[pair_key])
                    else:
                        self.failed += 1
                        self._resolve(
                            job.key,
                            error=MeasurementFailed(
                                failures.get(
                                    pair_key, "measurement produced no result"
                                )
                            ),
                        )

    def _record_schedule_spans(
        self, jobs: Sequence[_Job]
    ) -> dict[tuple[str, str], int]:
        """One finished ``service.schedule`` span per job, covering its
        queue wait (enqueue → dispatch), parented under the job's submit
        span.  Returns ``{(benchmark, config): schedule span id}`` so the
        measurement thread can hang the batch's work under each owner."""
        tracer = default_tracer()
        spans: dict[tuple[str, str], int] = {}
        now = time.perf_counter()
        for job in jobs:
            wait_s = max(0.0, now - job.enqueued_perf)
            observe_stage("schedule", wait_s)
            if not tracer.is_enabled or job.submit_span_id is None:
                continue
            span = tracer.record_span(
                "service.schedule",
                parent_id=job.submit_span_id,
                start_unix_s=wall_time_of(job.enqueued_perf),
                duration_s=wait_s,
                benchmark=job.benchmark.name,
                config=job.config.key,
                batch_pairs=len(jobs),
            )
            if span.span_id is not None:
                spans[(job.benchmark.name, job.config.key)] = span.span_id
        return spans

    def _resolve(
        self,
        key: JobKey,
        result: Optional[RunResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        future = self._inflight.pop(key, None)
        job = self._jobs_meta.pop(key, None)
        _PENDING.set(len(self._inflight))
        self._journal_transition(job, error)
        if future is None or future.done():
            return
        if error is not None:
            future.set_exception(error)
        else:
            self.completed += 1
            future.set_result(result)

    def _journal_transition(
        self, job: Optional[_Job], error: Optional[BaseException]
    ) -> None:
        """Settle a resolving job's journal keys.  Every transition here
        is idempotent (only ``pending`` rows move), so this can safely
        overlap the batch transaction's own completions.

        Draining and cancellation deliberately *leave the keys pending*:
        a drain that expires mid-batch is exactly the crash-shaped case
        the journal exists for, and recovery will replay those requests
        byte-identically on the next ``--recover`` start."""
        if job is None or self._store is None or not job.request_keys:
            return
        if error is None:
            self._store.journal_complete(job.request_keys)
        elif isinstance(error, DeadlineExceeded):
            self._store.journal_shed(job.request_keys, str(error))
        elif isinstance(error, (Draining, asyncio.CancelledError)):
            pass
        else:
            self._store.journal_fail(job.request_keys, str(error))

    def _measure_batch(
        self,
        plan: Optional[FaultPlan],
        pairs: Sequence[tuple[Benchmark, Configuration]],
        schedule_spans: Optional[Mapping[tuple[str, str], int]] = None,
        batch_keys: Optional[Mapping[tuple[str, str], Sequence[str]]] = None,
    ) -> tuple[dict[tuple[str, str], RunResult], dict[tuple[str, str], str]]:
        """Measure one batch on the measurement thread.

        Returns results and quarantine reasons keyed by (benchmark name,
        config key).  Newly measured records are persisted to the store
        before the event loop sees them, so a crash after a response was
        sent can never lose the record behind it.

        ``batch_keys`` maps each pair to the journal request keys riding
        it; the keys of *successful* pairs are marked ``done`` in the
        same transaction that persists the batch's records
        (:meth:`ResultStore.commit_batch`) — the exactly-once coupling.
        A coordinator crash before that commit leaves every key pending
        and no new rows visible; after it, both are durable together.

        ``run_in_executor`` does not carry contextvars onto this thread,
        so the batch span takes an explicit parent: the first job's
        schedule span.  Afterwards each pair's measurement subtree is
        re-homed under *its own* job's schedule span, so every request's
        trace contains exactly its own measurement work.
        """
        tracer = default_tracer()
        schedule_spans = schedule_spans or {}
        batch_keys = batch_keys or {}
        batch_parent = next(iter(schedule_spans.values()), None)
        with tracer.child_span(
            "service.batch",
            parent_id=batch_parent,
            pairs=len(pairs),
            plan=plan.fingerprint if plan is not None else None,
        ) as batch_span:
            coordinator_fault_point("batch")
            scope = injected(plan) if plan is not None else nullcontext()
            with scope:
                outcome = self._study.run_pairs(pairs, jobs=self._jobs)
            results = {
                (r.benchmark_name, r.config_key): r for r in outcome
            }
            if self._store is not None:
                fresh = [
                    result
                    for key, result in results.items()
                    if key not in self._store
                ]
                done_keys = [
                    request_key
                    for pair_key in results
                    for request_key in batch_keys.get(pair_key, ())
                ]
                store_started = time.perf_counter()
                coordinator_fault_point("store")
                with tracer.span(
                    "store.put", records=len(fresh), journal_done=len(done_keys)
                ):
                    self._store.commit_batch(fresh, done_keys)
                observe_stage("store", time.perf_counter() - store_started)
        if batch_span.span_id is not None and schedule_spans:
            tracer.reparent_children(
                batch_span.span_id,
                lambda span: schedule_spans.get(
                    (
                        span.attributes.get("benchmark"),
                        span.attributes.get("config"),
                    )
                ),
            )
        failures: dict[tuple[str, str], str] = {}
        if outcome.health is not None:
            for entry in outcome.health.quarantined:
                failures[(entry.benchmark_name, entry.config_key)] = entry.reason
        return results, failures
