"""Parallel campaign execution: a supervised pool of worker processes.

The paper's headline artifact is a 61-benchmark x 45-configuration
campaign, and every cell of it is *pure*: measurement noise is keyed by
the (configuration, benchmark, invocation) site, fault dice by the site
plus the retry attempt, and nothing else in the pipeline reads ambient
state that differs between processes.  That invariant makes a process
pool safe in the strongest sense — not "statistically equivalent" but
**byte-identical**: a worker measuring a pair produces exactly the floats
the parent would have.

The protocol:

* the parent pre-warms the normalisation references (which also warms the
  engine's instruction calibration) and ships them to each worker once,
  in a :class:`WorkerSetup`, together with the retry policy, the armed
  :class:`~repro.faults.plan.FaultPlan` (fault decisions must survive the
  process boundary), and the metrics-enabled flag;
* a sweep reaches the pool only with two or more uncached pairs, or
  under a plan with a ``worker.*`` spec: one pair cannot be split, so
  :meth:`Study.run_pairs <repro.core.study.Study.run_pairs>` measures
  it on the calling thread;
* uncached pairs are dealt round-robin into chunks (a few per worker, so
  a slow chunk cannot straggle the whole sweep);
* each worker runs the study's pure pair measurement on every pair of
  its chunk — no second study, so no second cache — and returns one
  :class:`~repro.core.study.PairOutcome` per pair (the result or the
  failure, retries, MAD re-measures, the ordered failure events, the
  measurement's wall time, the pair's spans) and a
  :func:`~repro.obs.metrics.snapshot_delta` of its metrics registry
  (engine, kernel and meter telemetry);
* the parent applies the metric deltas in chunk order and hands the
  outcomes to :meth:`Study.run_pairs <repro.core.study.Study.run_pairs>`,
  whose ledger's one merge loop (:meth:`~repro.core.ledger.Ledger.merge`,
  the same loop an in-process sweep runs) walks
  the pairs in sweep order and alone moves the study's invocation,
  retry, re-measure and latency metrics, so results, health,
  failure-dict order, checkpoint bytes and study telemetry are identical
  at any worker count and completion order.

:class:`SweepPool` owns the worker processes and survives their deaths —
the dominant threat to a long-lived campaign server is not sensor noise
but a worker that crashes, wedges, or silently slows down mid-chunk:

* each worker answers on its own result pipe, so a worker killed
  mid-message tears only its own channel, never a sibling's;
* each worker runs a background :class:`_Beater` thread that sends a
  heartbeat down that pipe every ``heartbeat_s`` seconds — independent
  of the measurement loop, so a slow chunk never reads as a dead worker;
* the pool's liveness loop (injectable monotonic ``clock``, like
  :mod:`repro.service.ratelimit`) marks a worker dead after
  ``liveness_misses`` missed beats or a reaped process, SIGKILLs and
  joins it, respawns a replacement from the same :class:`WorkerSetup`,
  and **requeues the dead worker's in-flight chunk**;
* re-dispatch is keyed by the same (site, attempt) discipline as the
  retry loop: the worker-fault site is ``fleet/<chunk>/<attempt>``, so
  fault dice re-roll per dispatch while measurement noise — keyed by the
  measurement site alone — does not.  A replacement worker re-measures
  the whole chunk from scratch and produces the byte-identical
  :class:`ChunkResult` the dead worker would have; partial results die
  with the process and are never merged;
* a chunk that crash-loops ``max_chunk_attempts`` times is given up on:
  its pairs come back as failed outcomes, which the merge loop
  quarantines, instead of respawning forever;
* a pool that shrinks below ``min_workers`` (respawn failures) keeps
  serving with reduced parallelism and says so; only a pool with *no*
  live workers raises :class:`PoolUnavailable`, and the merge loop
  measures the sweep in-process instead.

The process-level fault kinds (``worker.crash``, ``worker.hang``,
``worker.slow``) are armed through the ordinary plan machinery; the
injector *decides*
(:meth:`~repro.faults.injector.FaultInjector.check_worker`) and the
worker loop *enacts* — ``os._exit`` for a crash, heartbeat silence for
a hang or slow-down — so CI can kill workers deterministically
mid-sweep and assert the bytes did not move.

Workers prefer the ``fork`` start method (the setup rides along for
free); on platforms without it the default context is used and the setup
is pickled — every field is a frozen dataclass or a plain dict, so both
paths work.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import queue
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Optional, Sequence

from repro.core.normalization import References
from repro.core.study import PairOutcome, _PairMeasurement
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.hardware.config import Configuration
from repro.obs.metrics import RegistrySnapshot, default_registry, snapshot_delta
from repro.obs.tracing import default_tracer
from repro.workloads.benchmark import Benchmark

#: Chunks dealt per worker: enough that an unlucky chunk of slow pairs
#: cannot straggle the sweep, few enough that per-chunk overhead (metrics
#: snapshots, pickling) stays negligible.
CHUNKS_PER_WORKER = 4


class PoolUnavailable(RuntimeError):
    """No worker could be spawned (or every worker died and no
    replacement could be started); the caller should fall back to the
    in-process path — same bytes, just slower."""


@dataclass(frozen=True)
class WorkerSetup:
    """Everything a worker process needs, shipped once at pool init.

    A kept-alive :class:`SweepPool` serves a later sweep only when the
    sweep's setup equals its own: every field gates reuse, and
    ``references`` compare by identity."""

    references: References
    invocation_scale: float
    retry: RetryPolicy
    metrics_enabled: bool
    fault_plan: Optional[FaultPlan]
    #: Arm the worker's tracer so each pair ships its span subtree home
    #: (defaulted so pickled setups from older callers keep working).
    trace_enabled: bool = False
    #: Route fault-free pairs through compiled kernels in the worker's
    #: pair measurement (result bytes are identical either way; this
    #: only pins which code path produces them).
    vectorize: bool = True


@dataclass(frozen=True)
class ChunkResult:
    """One chunk's outcomes and its telemetry movement."""

    chunk_index: int
    outcomes: tuple[PairOutcome, ...]
    metrics_delta: RegistrySnapshot
    invocations: int


def _init_worker(setup: WorkerSetup) -> _PairMeasurement:
    """Worker start-up: arm faults and tracing, build the worker's pair
    measurement.  Self-sufficient under both fork and spawn: the
    references' engine carries its instruction calibration either way
    (inherited by a forked child, pickled for a spawned one)."""
    from repro.faults import injector
    from repro.obs.metrics import set_enabled

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
    return _PairMeasurement(
        setup.references, setup.invocation_scale, setup.retry, setup.vectorize
    )


def _measure_chunk(
    measurement: _PairMeasurement,
    chunk_index: int,
    chunk: Sequence[tuple[Benchmark, Configuration, int]],
) -> ChunkResult:
    """Measure one chunk of pairs with the worker's pair measurement.

    Runs exclusively in a worker process; the registry snapshots bracket
    exactly this chunk's work, so the delta contains the chunk's own
    telemetry movement and nothing else."""
    registry = default_registry()
    before = registry.snapshot()
    tracer = default_tracer()
    outcomes: list[PairOutcome] = []
    with measurement.prepared((b, c) for b, c, _ in chunk):
        for benchmark, config, index in chunk:
            spans_0 = len(tracer.finished)
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
                outcome = measurement.measure(benchmark, config)
            outcome.index = index
            outcome.error = None  # the failure text travels; the exception stays
            if tracer.is_enabled:
                outcome.spans = tuple(
                    span.as_dict() for span in tracer.finished[spans_0:]
                )
            outcomes.append(outcome)
    return ChunkResult(
        chunk_index=chunk_index,
        outcomes=tuple(outcomes),
        metrics_delta=snapshot_delta(registry.snapshot(), before),
        invocations=sum(o.result.invocations for o in outcomes if o.result),
    )


def _pool_context():
    """Prefer ``fork`` (cheap worker start, setup inherited for free);
    fall back to the platform default where fork does not exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


_REGISTRY = default_registry()
_RESTARTS = _REGISTRY.counter(
    "repro_fleet_worker_restarts_total",
    "Fleet workers respawned after a crash, hang, or missed heartbeats",
)
_REQUEUES = _REGISTRY.counter(
    "repro_fleet_requeues_total",
    "In-flight chunks requeued from dead workers",
)
_HEARTBEATS = _REGISTRY.counter(
    "repro_fleet_heartbeats_total",
    "Heartbeats received from fleet workers",
)
_WORKERS_GAUGE = _REGISTRY.gauge(
    "repro_fleet_workers",
    "Live fleet worker processes",
)
_HEARTBEAT_AGE = _REGISTRY.gauge(
    "repro_fleet_heartbeat_age_seconds",
    "Age of the stalest live worker's last heartbeat",
)

#: Exit code a worker uses for an injected ``worker.crash`` (visible in
#: the pool's log line, distinguishing planned chaos from SIGKILL).
CRASH_EXIT_CODE = 73

#: How often an idle worker wakes from ``tasks.get`` to check that its
#: parent is still alive (seconds).
ORPHAN_CHECK_S = 1.0


def _worker_site(chunk_index: int, attempt: int) -> str:
    """The fault site for one chunk dispatch.

    The attempt is part of the *site* (not just the contextvar) so a
    probability-1.0 spec can be scoped to a single dispatch —
    ``fleet/0/0`` kills exactly the first assignee of chunk 0 and lets
    the attempt-1 requeue through on fresh dice."""
    return f"fleet/{chunk_index}/{attempt}"


class _Beater(threading.Thread):
    """Background heartbeat pump inside a worker process.

    Beats ride the worker's own result channel, interleaved with its
    chunk results.  The thread is a daemon and starts *before* worker
    initialisation, so a slow worker start-up cannot read as a dead
    worker.  ``silence()`` (the ``worker.slow`` fault) suppresses beats
    for a window without stopping the measurement loop; ``stop()`` (the
    ``worker.hang`` fault, and clean shutdown) ends them for good."""

    def __init__(self, worker_id: int, send, interval_s: float) -> None:
        super().__init__(daemon=True, name=f"fleet-beater-{worker_id}")
        self._send = send
        self._interval_s = interval_s
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self._silent_until = 0.0

    def run(self) -> None:
        while not self._stopped.wait(self._interval_s):
            with self._lock:
                silent = time.monotonic() < self._silent_until
            if silent:
                continue
            try:
                self._send(("beat",))
            except (OSError, ValueError):  # channel closed: pool gone
                return

    def silence(self, seconds: float) -> None:
        with self._lock:
            self._silent_until = time.monotonic() + seconds

    def stop(self) -> None:
        self._stopped.set()


def _worker_main(
    worker_id: int,
    setup: WorkerSetup,
    tasks,
    results,
    heartbeat_s: float,
) -> None:
    """Entry point of one worker process.

    Protocol: read ``(generation, chunk_index, attempt, chunk)`` tasks
    until the ``None`` sentinel; answer each on the ``results`` pipe
    with ``("done", generation, chunk_index, attempt, result)``.
    Heartbeats flow from the beater thread the whole time.  The pipe is
    this worker's alone, so a worker killed mid-message tears only its
    own channel — never the lock or the byte stream of a sibling's.

    A worker whose parent vanishes (e.g. a SIGKILL'd coordinator,
    which never gets to send the shutdown sentinel) is reparented to
    init; the idle loop notices the parent pid changed and exits, so a
    crashed coordinator leaves no orphan processes pinning the machine
    while the operator restarts it with ``--recover``."""
    from repro.faults import injector

    # A forked worker inherits the parent's heap.  Frozen, it is never
    # traversed by the worker's own collections, whose copy-on-write
    # faults over every inherited object held the GIL (and so the beats)
    # for 0.2-0.3 s in a full test session: past a tight liveness deadline.
    gc.freeze()
    sending = threading.Lock()

    def send(message) -> None:
        with sending:  # beater and chunk results share the pipe
            results.send(message)

    beater = _Beater(worker_id, send, heartbeat_s)
    beater.start()
    measurement = _init_worker(setup)
    parent = os.getppid()
    while True:
        try:
            task = tasks.get(timeout=ORPHAN_CHECK_S)
        except queue.Empty:
            if os.getppid() != parent:
                break  # parent died without a sentinel: orphaned
            continue
        if task is None:
            break
        generation, chunk_index, attempt, chunk = task
        armed = injector.active()
        if armed is not None:
            with injector.attempt_scope(attempt):
                spec = armed.check_worker(_worker_site(chunk_index, attempt))
            if spec is not None:
                if spec.kind == "worker.crash":
                    # Die the way a real crash does: no cleanup, no
                    # flushing — the queued partial state dies with us.
                    os._exit(CRASH_EXIT_CODE)
                if spec.kind == "worker.hang":
                    beater.stop()
                    while True:  # wedged until the pool SIGKILLs us
                        time.sleep(3600)
                beater.silence(spec.severity)  # worker.slow: stall, recover
        result = _measure_chunk(measurement, chunk_index, chunk)
        send(("done", generation, chunk_index, attempt, result))
    beater.stop()


class WorkerHandle:
    """Pool-side view of one worker process."""

    __slots__ = (
        "worker_id",
        "process",
        "tasks",
        "results",
        "state",
        "last_beat",
        "beats",
        "chunks_done",
        "current",
    )

    def __init__(
        self, worker_id: int, process, tasks, results, now: float
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks
        self.results = results  # read end of the worker's pipe; None at EOF
        self.state = "idle"  # idle | busy | dead
        self.last_beat = now  # spawn counts as the first sign of life
        self.beats = 0
        self.chunks_done = 0
        self.current: Optional[tuple] = None  # (gen, chunk, attempt, pairs)

    def close_channel(self) -> None:
        if self.results is not None:
            self.results.close()
            self.results = None


class SweepPool:
    """Owns N worker processes and survives their deaths.

    A one-shot sweep builds its pool, measures, and tears it down
    (:func:`run_pairs`); the campaign server instead dispatches many
    small batches over hours, so it keeps one pool warm
    (:class:`~repro.core.study.Study` with ``reuse_pool=True``) and
    amortises worker start-up across batches.  A pool may serve a sweep
    only when the sweep's :class:`WorkerSetup` equals the pool's.

    ``clock`` must be monotonic; it is injectable so liveness tests can
    step time instead of sleeping.  ``process_factory(worker_id, tasks,
    results)`` is the spawn seam for the same reason — the default starts a real
    process running :func:`_worker_main`."""

    def __init__(
        self,
        setup: WorkerSetup,
        workers: int,
        *,
        heartbeat_s: float = 0.25,
        liveness_misses: int = 4,
        max_chunk_attempts: int = 3,
        min_workers: int = 1,
        clock: Callable[[], float] = time.monotonic,
        process_factory: Optional[Callable] = None,
        log=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if heartbeat_s <= 0:
            raise ValueError(f"heartbeat interval must be positive: {heartbeat_s}")
        if liveness_misses < 1:
            raise ValueError(f"need at least one miss to die: {liveness_misses}")
        if max_chunk_attempts < 1:
            raise ValueError(f"need at least one attempt: {max_chunk_attempts}")
        self.setup = setup
        self.workers = workers
        self.heartbeat_s = heartbeat_s
        self.liveness_misses = liveness_misses
        self.max_chunk_attempts = max_chunk_attempts
        self.min_workers = max(1, min_workers)
        self.restarts = 0
        self.requeues = 0
        self._clock = clock
        self._log = log or (lambda msg: print(msg, file=sys.stderr))
        self._ctx = _pool_context()
        self._process_factory = process_factory or self._default_factory
        self._generation = 0
        self._next_worker_id = 0
        self._closed = False
        # run() owns the result channels while a sweep is in flight;
        # poll() (called from the server's event-loop thread between
        # batches) must never steal a "done" message from under it.
        self._queue_owner = threading.Lock()
        self._workers: list[WorkerHandle] = []
        for _ in range(workers):
            handle = self._spawn()
            if handle is None:
                self.close()
                raise PoolUnavailable("cannot spawn any worker")
        _WORKERS_GAUGE.set(len(self._workers))

    # -- spawning ------------------------------------------------------------

    def _default_factory(self, worker_id: int, tasks, results):
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self.setup, tasks, results, self.heartbeat_s),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return process

    def _spawn(self) -> Optional[WorkerHandle]:
        """Start one worker; ``None`` if the platform refuses (degraded
        mode — the pool keeps going with the workers it has).  A closed
        pool spawns nothing, so a sweep thread abandoned mid-run cannot
        resurrect workers after :meth:`close`."""
        if self._closed:
            return None
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        try:
            tasks = self._ctx.Queue()
            reader, writer = self._ctx.Pipe(duplex=False)
            try:
                process = self._process_factory(worker_id, tasks, writer)
            except (OSError, ValueError):
                reader.close()
                raise
            finally:
                # Only the worker may hold the write end, so its death
                # reads as EOF here.
                writer.close()
        except (OSError, ValueError, PermissionError) as exc:
            self._log(f"fleet: cannot spawn worker {worker_id}: {exc}")
            return None
        handle = WorkerHandle(worker_id, process, tasks, reader, self._clock())
        self._workers.append(handle)
        return handle

    # -- the sweep -----------------------------------------------------------

    @property
    def liveness_deadline_s(self) -> float:
        return self.heartbeat_s * self.liveness_misses

    def run(self, pending: Sequence, progress=None) -> list[ChunkResult]:
        """Measure ``pending`` (benchmark, config, index) triples.

        Returns chunk results sorted by chunk index — completion order
        only affects progress ticks, never the merge.  Raises
        :class:`PoolUnavailable` only when every worker is dead and none
        can be respawned — nothing has been merged at that point, so
        falling back re-measures from a clean slate."""
        if self._closed:
            raise PoolUnavailable("pool already closed")
        if not pending:
            return []
        with self._queue_owner:
            return self._run_locked(pending, progress)

    def _run_locked(self, pending: Sequence, progress) -> list[ChunkResult]:
        self._generation += 1
        generation = self._generation
        live = [h for h in self._workers if h.state != "dead"]
        workers = min(len(live), len(pending)) or 1
        chunk_count = min(len(pending), workers * CHUNKS_PER_WORKER)
        # Round-robin deal: neighbouring pairs usually share a benchmark
        # (the inner loop of the sweep), so striding spreads each
        # benchmark's protocol cost evenly across chunks.
        chunks = [tuple(pending[i::chunk_count]) for i in range(chunk_count)]
        todo: deque = deque(
            (generation, index, 0, chunk) for index, chunk in enumerate(chunks)
        )
        completed: dict[int, ChunkResult] = {}
        poll_s = min(max(self.heartbeat_s / 2.0, 0.005), 0.25)
        while len(completed) < chunk_count:
            self._assign(todo)
            self._drain(completed, todo, generation, progress, timeout=poll_s)
            self._reap(self._clock(), todo, completed, generation, chunks)
            if not any(h.state != "dead" for h in self._workers):
                raise PoolUnavailable(
                    "every worker died and none could be respawned"
                )
        self._update_gauges()
        return [completed[index] for index in range(chunk_count)]

    def _assign(self, todo: deque) -> None:
        tracer = default_tracer()
        for handle in self._workers:
            if not todo:
                return
            if handle.state != "idle":
                continue
            task = todo.popleft()
            _, chunk_index, attempt, chunk = task
            handle.current = task
            handle.state = "busy"
            with tracer.span(
                "fleet.dispatch",
                worker=handle.worker_id,
                chunk=chunk_index,
                attempt=attempt,
                pairs=len(chunk),
            ):
                handle.tasks.put(task)

    def _drain(
        self,
        completed: dict[int, ChunkResult],
        todo: deque,
        generation: int,
        progress,
        timeout: float,
    ) -> None:
        """Pull every message the workers have sent (blocking up to
        ``timeout`` for the first so the loop idles cheaply)."""
        channels = {h.results: h for h in self._workers if h.results is not None}
        for channel in wait(list(channels), timeout):
            handle = channels[channel]
            while channel.poll():
                try:
                    message = channel.recv()
                except (EOFError, OSError):
                    # The worker exited, possibly mid-message; the
                    # liveness pass reaps it.
                    handle.close_channel()
                    break
                if message[0] == "beat":
                    handle.last_beat = self._clock()
                    handle.beats += 1
                    _HEARTBEATS.inc()
                    continue
                _, gen, chunk_index, _attempt, result = message
                handle.state = "idle"
                handle.current = None
                if gen != generation or chunk_index in completed:
                    continue  # stale duplicate: first result won
                completed[chunk_index] = result
                handle.chunks_done += 1
                # A requeued copy racing on another worker (or still in
                # the todo queue) is now moot.
                for task in [t for t in todo if t[1] == chunk_index]:
                    todo.remove(task)
                if progress is not None and result.invocations:
                    progress.advance(result.invocations)

    def _reap(
        self,
        now: float,
        todo: deque,
        completed: dict[int, ChunkResult],
        generation: int,
        chunks: Sequence,
    ) -> None:
        """The liveness pass: detect, kill, requeue, respawn."""
        tracer = default_tracer()
        deadline = self.liveness_deadline_s
        for handle in list(self._workers):
            if handle.state == "dead":
                continue
            reaped = not handle.process.is_alive()
            stale = (now - handle.last_beat) > deadline
            if not (reaped or stale):
                continue
            exit_code = getattr(handle.process, "exitcode", None)
            if not reaped:
                handle.process.kill()
            handle.process.join(timeout=5.0)
            handle.state = "dead"
            handle.close_channel()
            self._workers.remove(handle)
            cause = (
                f"exited with code {exit_code}" if reaped
                else f"missed {self.liveness_misses} heartbeats "
                     f"({now - handle.last_beat:.2f}s silent)"
            )
            self._log(
                f"fleet: worker {handle.worker_id} "
                f"(pid {getattr(handle.process, 'pid', '?')}) died: {cause}"
            )
            if handle.current is not None:
                gen, chunk_index, attempt, chunk = handle.current
                if gen == generation and chunk_index not in completed:
                    next_attempt = attempt + 1
                    if next_attempt >= self.max_chunk_attempts:
                        completed[chunk_index] = _crash_loop_result(
                            chunk_index, chunk, next_attempt
                        )
                        self._log(
                            f"fleet: chunk {chunk_index} crash-looped "
                            f"{next_attempt} times; quarantining its pairs"
                        )
                    else:
                        todo.append((gen, chunk_index, next_attempt, chunk))
                        self.requeues += 1
                        _REQUEUES.inc()
                        with tracer.span(
                            "fleet.requeue",
                            chunk=chunk_index,
                            attempt=next_attempt,
                            worker=handle.worker_id,
                        ):
                            pass
            replacement = self._spawn()
            if replacement is not None:
                self.restarts += 1
                _RESTARTS.inc()
            live = sum(1 for h in self._workers if h.state != "dead")
            if live < self.min_workers:
                self._log(
                    f"fleet: degraded to {live} live worker(s) "
                    f"(floor {self.min_workers}); serving with reduced "
                    f"parallelism"
                )
        self._update_gauges(now)

    # -- introspection -------------------------------------------------------

    def _update_gauges(self, now: Optional[float] = None) -> None:
        now = self._clock() if now is None else now
        live = [h for h in self._workers if h.state != "dead"]
        _WORKERS_GAUGE.set(len(live))
        if live:
            _HEARTBEAT_AGE.set(max(0.0, max(now - h.last_beat for h in live)))

    def snapshot(self) -> dict:
        """The per-worker table served by ``/healthz`` and ``repro top``."""
        now = self._clock()
        workers = []
        # Copy first: the measurement thread may be reaping/respawning.
        for handle in list(self._workers):
            workers.append(
                {
                    "id": handle.worker_id,
                    "pid": getattr(handle.process, "pid", None),
                    "state": handle.state,
                    "beats": handle.beats,
                    "chunks_done": handle.chunks_done,
                    "heartbeat_age_s": round(max(0.0, now - handle.last_beat), 3),
                }
            )
        return {
            "size": self.workers,
            "live": sum(1 for h in self._workers if h.state != "dead"),
            "restarts": self.restarts,
            "requeues": self.requeues,
            "heartbeat_s": self.heartbeat_s,
            "liveness_misses": self.liveness_misses,
            "workers": workers,
        }

    def poll(self) -> None:
        """Idle-time liveness housekeeping (no sweep running): absorb
        queued beats and refresh the staleness gauges.  The campaign
        server calls this from ``/healthz`` so the worker table stays
        current between batches."""
        if self._closed:
            return
        if not self._queue_owner.acquire(blocking=False):
            return  # a sweep is running; run()'s drain owns the queue
        try:
            self._drain({}, deque(), self._generation, None, timeout=0.0)
            self._update_gauges()
        finally:
            self._queue_owner.release()

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker: polite sentinel first, SIGKILL stragglers."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                handle.tasks.put(None)
            except (OSError, ValueError):
                pass
        for handle in self._workers:
            process = handle.process
            if hasattr(process, "join"):
                process.join(timeout=2.0)
            if getattr(process, "is_alive", lambda: False)():
                process.kill()
                process.join(timeout=5.0)
            handle.state = "dead"
            handle.close_channel()
        self._workers.clear()
        _WORKERS_GAUGE.set(0)


def _crash_loop_result(
    chunk_index: int, chunk: Sequence, attempts: int
) -> ChunkResult:
    """Give-up outcome for a chunk that kills every worker it touches.

    Shaped exactly like a worker's failure report, so the study's merge
    loop quarantines the pairs with the ordinary semantics — recorded in
    CampaignHealth, skipped by later sweeps — instead of the pool
    respawning forever."""
    failure = (
        f"worker crash-loop: chunk {chunk_index} killed "
        f"{attempts} workers in a row"
    )
    outcomes = tuple(
        PairOutcome(
            result=None,
            failure=failure,
            failure_events=("WorkerCrashLoop",),
            index=index,
        )
        for _benchmark, _config, index in chunk
    )
    return ChunkResult(
        chunk_index=chunk_index,
        outcomes=outcomes,
        metrics_delta={},
        invocations=0,
    )


def run_pairs(
    setup: WorkerSetup,
    pending: Sequence[tuple[Benchmark, Configuration]],
    jobs: int,
    progress=None,
    pool: Optional[SweepPool] = None,
    *,
    heartbeat_s: float = 0.25,
    liveness_misses: int = 4,
) -> list[PairOutcome]:
    """Measure ``pending`` pairs across ``jobs`` worker processes.

    Returns one outcome per pair, in ``pending`` order, after applying
    the workers' metric deltas to this process's registry in chunk
    order.  ``pool`` borrows a caller-owned, kept-alive
    :class:`SweepPool`; without one, a pool of at most ``jobs`` workers
    (``heartbeat_s``/``liveness_misses`` as in :class:`SweepPool`) is
    built for this sweep and closed after it.  Raises
    :class:`PoolUnavailable` if no worker can be spawned or every worker
    died beyond repair; the caller measures in-process instead, which is
    safe because nothing is merged until every chunk has returned.
    """
    if jobs < 1:
        raise ValueError(f"need at least one worker, got {jobs}")
    indexed = [
        (benchmark, config, index)
        for index, (benchmark, config) in enumerate(pending)
    ]
    owned = pool is None
    if owned:
        pool = SweepPool(
            setup,
            min(jobs, len(pending)) or 1,
            heartbeat_s=heartbeat_s,
            liveness_misses=liveness_misses,
        )
    try:
        chunks = pool.run(indexed, progress)
    finally:
        if owned:
            pool.close()
    outcomes: list[PairOutcome] = [None] * len(pending)  # type: ignore[list-item]
    for chunk in chunks:
        _REGISTRY.apply_snapshot(chunk.metrics_delta)
        for outcome in chunk.outcomes:
            outcomes[outcome.index] = outcome
    return outcomes
