"""Supervised measurement worker fleet: heartbeats, liveness, requeue.

The :class:`~repro.core.executor.SweepPool` path (PR 3) trusts its
workers: a process that dies takes the whole ``ProcessPoolExecutor``
down (``BrokenProcessPool``) and the sweep falls back to the sequential
loop.  That is fine for a one-shot CLI sweep and unacceptable for a
long-lived campaign server, where the dominant operational threat is no
longer sensor noise but node-level failure — a worker that crashes,
wedges, or silently slows down mid-chunk.

:class:`FleetSupervisor` owns N long-lived worker *processes* directly:

* each worker runs a background :class:`_Beater` thread that sends a
  sequenced heartbeat over the shared result queue every
  ``heartbeat_s`` seconds — independent of the measurement loop, so a
  slow chunk never reads as a dead worker;
* the supervisor's liveness loop (injectable monotonic ``clock``, like
  :mod:`repro.service.ratelimit`) marks a worker dead after
  ``liveness_misses`` missed beats or a reaped process, SIGKILLs and
  joins it, respawns a replacement initialised with the same
  :class:`~repro.core.executor.WorkerSetup` (calibration preload
  included), and **requeues the dead worker's in-flight chunk**;
* re-dispatch is keyed by the same (site, attempt) discipline as the
  retry loop: the worker-fault site is ``fleet/<chunk>/<attempt>``, so
  fault dice re-roll per dispatch while measurement noise — keyed by the
  measurement site alone — does not.  A replacement worker re-measures
  the whole chunk from scratch and produces the byte-identical
  :class:`~repro.core.executor.ChunkResult` the dead worker would have;
  partial results die with the process and are never merged.  A run
  with any number of worker deaths therefore yields byte-identical
  records, :class:`~repro.core.results.CampaignHealth`, and checkpoint
  bytes to a clean sequential ``Study.run``;
* a chunk that crash-loops ``max_chunk_attempts`` times is given up on:
  its pairs come back as failed outcomes, which the study's merge
  quarantines with the PR 2 semantics, instead of respawning forever;
* a fleet that shrinks below ``min_workers`` (respawn failures) keeps
  serving with reduced parallelism and says so; only a fleet with *no*
  live workers raises :class:`FleetUnavailable`, which the study
  catches and falls back to the pool/sequential paths.

The process-level fault kinds (``worker.crash``, ``worker.hang``,
``worker.slow``) are armed through the ordinary
:class:`~repro.faults.plan.FaultPlan` machinery; the injector *decides*
(:meth:`~repro.faults.injector.FaultInjector.check_worker`) and the
worker loop *enacts* — ``os._exit`` for a crash, heartbeat silence for
a hang or slow-down — so CI can kill workers deterministically
mid-sweep and assert the bytes did not move.
"""

from __future__ import annotations

import os
import queue
import sys
import threading
import time
from collections import deque
from typing import Callable, Optional, Sequence

from repro.core.executor import (
    CHUNKS_PER_WORKER,
    ChunkResult,
    PairOutcome,
    WorkerSetup,
    _init_worker,
    _measure_chunk,
    _pool_context,
)
from repro.obs.metrics import default_registry
from repro.obs.tracing import default_tracer

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
#: the supervisor's log line, distinguishing planned chaos from SIGKILL).
CRASH_EXIT_CODE = 73

#: How often an idle worker wakes from ``tasks.get`` to check that its
#: supervisor is still alive (seconds).
ORPHAN_CHECK_S = 1.0


class FleetUnavailable(RuntimeError):
    """No fleet worker could be spawned (or every worker died and no
    replacement could be started); the caller should fall back to the
    pool or sequential path — same bytes, just less resilience."""


def _worker_site(chunk_index: int, attempt: int) -> str:
    """The fault site for one chunk dispatch.

    The attempt is part of the *site* (not just the contextvar) so a
    probability-1.0 spec can be scoped to a single dispatch —
    ``fleet/0/0`` kills exactly the first assignee of chunk 0 and lets
    the attempt-1 requeue through on fresh dice."""
    return f"fleet/{chunk_index}/{attempt}"


class _Beater(threading.Thread):
    """Background heartbeat pump inside a worker process.

    Beats ride the shared result queue so the supervisor has one place
    to listen.  The thread is a daemon and starts *before* worker
    initialisation, so a slow calibration preload cannot read as a dead
    worker.  ``silence()`` (the ``worker.slow`` fault) suppresses beats
    for a window without stopping the measurement loop; ``stop()`` (the
    ``worker.hang`` fault, and clean shutdown) ends them for good."""

    def __init__(self, worker_id: int, results, interval_s: float) -> None:
        super().__init__(daemon=True, name=f"fleet-beater-{worker_id}")
        self._worker_id = worker_id
        self._results = results
        self._interval_s = interval_s
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        self._silent_until = 0.0
        self._seq = 0

    def run(self) -> None:
        while not self._stopped.wait(self._interval_s):
            with self._lock:
                silent = time.monotonic() < self._silent_until
            if silent:
                continue
            self._seq += 1
            try:
                self._results.put(("beat", self._worker_id, self._seq))
            except (OSError, ValueError):  # queue closed: supervisor gone
                return

    def silence(self, seconds: float) -> None:
        with self._lock:
            self._silent_until = time.monotonic() + seconds

    def stop(self) -> None:
        self._stopped.set()


def _fleet_worker_main(
    worker_id: int,
    setup: WorkerSetup,
    tasks,
    results,
    heartbeat_s: float,
) -> None:
    """Entry point of one fleet worker process.

    Protocol: read ``(generation, chunk_index, attempt, chunk)`` tasks
    until the ``None`` sentinel; answer each with
    ``("done", worker_id, generation, chunk_index, attempt, result)``.
    Heartbeats flow from the beater thread the whole time.

    A worker whose supervisor vanishes (e.g. a SIGKILL'd coordinator,
    which never gets to send the shutdown sentinel) is reparented to
    init; the idle loop notices the parent pid changed and exits, so a
    crashed coordinator leaves no orphan processes pinning the machine
    while the operator restarts it with ``--recover``."""
    from repro.faults import injector

    beater = _Beater(worker_id, results, heartbeat_s)
    beater.start()
    _init_worker(setup)
    parent = os.getppid()
    while True:
        try:
            task = tasks.get(timeout=ORPHAN_CHECK_S)
        except queue.Empty:
            if os.getppid() != parent:
                break  # supervisor died without a sentinel: orphaned
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
                    while True:  # wedged until the supervisor SIGKILLs us
                        time.sleep(3600)
                beater.silence(spec.severity)  # worker.slow: stall, recover
        result = _measure_chunk(chunk_index, chunk)
        results.put(("done", worker_id, generation, chunk_index, attempt, result))
    beater.stop()


class WorkerHandle:
    """Supervisor-side view of one worker process."""

    __slots__ = (
        "worker_id",
        "process",
        "tasks",
        "state",
        "last_beat",
        "beats",
        "chunks_done",
        "current",
    )

    def __init__(self, worker_id: int, process, tasks, now: float) -> None:
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks
        self.state = "idle"  # idle | busy | dead
        self.last_beat = now  # spawn counts as the first sign of life
        self.beats = 0
        self.chunks_done = 0
        self.current: Optional[tuple] = None  # (gen, chunk, attempt, pairs)


class FleetSupervisor:
    """Owns N worker processes and survives their deaths.

    ``clock`` must be monotonic; it is injectable so liveness tests can
    step time instead of sleeping.  ``process_factory(worker_id, tasks)``
    is the spawn seam for the same reason — the default starts a real
    process running :func:`_fleet_worker_main`."""

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
        # run() owns the result queue while a sweep is in flight; poll()
        # (called from the server's event-loop thread between batches)
        # must never steal a "done" message from under it.
        self._queue_owner = threading.Lock()
        try:
            self._results = self._ctx.Queue()
        except OSError as exc:  # pragma: no cover - sandboxed platforms
            raise FleetUnavailable(f"cannot create fleet queues: {exc}") from exc
        self._workers: list[WorkerHandle] = []
        for _ in range(workers):
            handle = self._spawn()
            if handle is None:
                self.close()
                raise FleetUnavailable("cannot spawn any fleet worker")
        _WORKERS_GAUGE.set(len(self._workers))

    # -- spawning ------------------------------------------------------------

    def _default_factory(self, worker_id: int, tasks):
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(worker_id, self.setup, tasks, self._results, self.heartbeat_s),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return process

    def _spawn(self) -> Optional[WorkerHandle]:
        """Start one worker; ``None`` if the platform refuses (degraded
        mode — the fleet keeps going with the workers it has)."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        try:
            tasks = self._ctx.Queue()
            process = self._process_factory(worker_id, tasks)
        except (OSError, ValueError, PermissionError) as exc:
            self._log(f"fleet: cannot spawn worker {worker_id}: {exc}")
            return None
        handle = WorkerHandle(worker_id, process, tasks, self._clock())
        self._workers.append(handle)
        return handle

    # -- the sweep -----------------------------------------------------------

    @property
    def liveness_deadline_s(self) -> float:
        return self.heartbeat_s * self.liveness_misses

    def run(self, pending: Sequence, progress=None) -> list[ChunkResult]:
        """Measure ``pending`` (benchmark, config, index) triples.

        Returns chunk results sorted by chunk index, exactly like
        :func:`repro.core.executor.run_pairs`; the study's merge cannot
        tell the two apart.  Raises :class:`FleetUnavailable` only when
        every worker is dead and none can be respawned — nothing has
        been merged at that point, so falling back re-measures from a
        clean slate."""
        if self._closed:
            raise FleetUnavailable("fleet already closed")
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
        # Same round-robin deal as the pool path: neighbouring pairs
        # usually share a benchmark, so striding spreads protocol cost.
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
                raise FleetUnavailable(
                    "every fleet worker died and none could be respawned"
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
        """Pull everything currently on the result queue (blocking up to
        ``timeout`` for the first message so the loop idles cheaply)."""
        block = True
        while True:
            try:
                message = self._results.get(timeout=timeout) if block \
                    else self._results.get_nowait()
            except queue.Empty:
                return
            except (EOFError, OSError):  # torn write from a killed worker
                return
            block = False
            kind = message[0]
            if kind == "beat":
                _, worker_id, _seq = message
                handle = self._by_id(worker_id)
                if handle is not None and handle.state != "dead":
                    handle.last_beat = self._clock()
                    handle.beats += 1
                    _HEARTBEATS.inc()
            elif kind == "done":
                _, worker_id, gen, chunk_index, _attempt, result = message
                handle = self._by_id(worker_id)
                if handle is not None and handle.state == "busy":
                    handle.state = "idle"
                    handle.current = None
                if gen != generation or chunk_index in completed:
                    continue  # stale duplicate: first result won
                completed[chunk_index] = result
                if handle is not None:
                    handle.chunks_done += 1
                # A requeued copy racing on another worker (or still in
                # the todo queue) is now moot.
                for task in [t for t in todo if t[1] == chunk_index]:
                    todo.remove(task)
                if progress is not None and result.invocations:
                    progress.advance(result.invocations)

    def _by_id(self, worker_id: int) -> Optional[WorkerHandle]:
        for handle in self._workers:
            if handle.worker_id == worker_id:
                return handle
        return None

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
        self._workers.clear()
        _WORKERS_GAUGE.set(0)
        try:
            self._results.close()
        except (OSError, AttributeError):
            pass


def _crash_loop_result(
    chunk_index: int, chunk: Sequence, attempts: int
) -> ChunkResult:
    """Give-up outcome for a chunk that kills every worker it touches.

    Shaped exactly like a worker's failure report, so the study's merge
    quarantines the pairs with the ordinary PR 2 semantics — recorded in
    CampaignHealth, skipped by later sweeps — instead of the supervisor
    respawning forever."""
    outcomes = tuple(
        PairOutcome(
            index=index,
            result=None,
            failure=(
                f"worker crash-loop: chunk {chunk_index} killed "
                f"{attempts} workers in a row"
            ),
            retries=0,
            remeasures=0,
            failure_events=("WorkerCrashLoop",),
        )
        for _benchmark, _config, index in chunk
    )
    return ChunkResult(
        chunk_index=chunk_index,
        outcomes=outcomes,
        metrics_delta={},
        invocations=0,
    )
