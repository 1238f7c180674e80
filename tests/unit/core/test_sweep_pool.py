"""Unit tests for the worker pool's liveness and requeue logic.

Everything here runs without real worker processes: the pool takes
an injectable monotonic clock (the :mod:`repro.service.ratelimit`
pattern) and a ``process_factory`` seam, so liveness deadlines are
crossed by stepping a fake clock instead of sleeping, and "workers" are
inert stand-ins whose aliveness the tests script directly.
"""

from collections import deque

import pytest

from repro.core.executor import (
    ChunkResult,
    PoolUnavailable,
    SweepPool,
    _crash_loop_result,
    _worker_site,
)
from repro.faults.injector import FaultInjector, attempt_scope
from repro.faults.plan import FaultPlan, FaultSpec, worker_chaos_plan


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeProcess:
    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.alive = True
        self.killed = False
        self.exitcode = None

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        self.killed = True
        self.alive = False

    def join(self, timeout=None) -> None:
        pass


class FakeQueue:
    def __init__(self) -> None:
        self.items: list = []

    def put(self, item) -> None:
        self.items.append(item)


def _pool(workers=2, **kwargs) -> tuple[SweepPool, FakeClock, list]:
    clock = FakeClock()
    spawned: list[FakeProcess] = []
    logs: list[str] = []

    def factory(worker_id: int) -> FakeProcess:
        process = FakeProcess(pid=1000 + worker_id)
        spawned.append(process)
        return process

    pool = SweepPool(
        setup=object.__new__(type("S", (), {})),  # never pickled: fakes only
        workers=workers,
        clock=clock,
        process_factory=lambda worker_id, tasks, results: factory(worker_id),
        log=logs.append,
        **kwargs,
    )
    # Replace the real multiprocessing task queues with inert fakes so
    # dispatches are observable and nothing leaks OS resources.
    for handle in pool._workers:
        handle.tasks = FakeQueue()
    pool._logs = logs
    return pool, clock, spawned


class TestSpawnAndSnapshot:
    def test_spawns_requested_workers(self):
        pool, _, spawned = _pool(workers=3)
        assert len(spawned) == 3
        snapshot = pool.snapshot()
        assert snapshot["size"] == 3 and snapshot["live"] == 3
        assert [w["pid"] for w in snapshot["workers"]] == [1000, 1001, 1002]
        assert all(w["state"] == "idle" for w in snapshot["workers"])
        pool.close()

    def test_snapshot_reports_heartbeat_age(self):
        pool, clock, _ = _pool(workers=1)
        clock.advance(0.4)
        (worker,) = pool.snapshot()["workers"]
        assert worker["heartbeat_age_s"] == pytest.approx(0.4, abs=1e-6)
        pool.close()

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            _pool(workers=0)
        with pytest.raises(ValueError):
            _pool(heartbeat_s=0.0)
        with pytest.raises(ValueError):
            _pool(liveness_misses=0)


class TestLiveness:
    def test_missed_beats_mark_worker_dead_and_requeue(self):
        pool, clock, spawned = _pool(
            workers=2, heartbeat_s=0.25, liveness_misses=4
        )
        handle = pool._workers[0]
        chunk = ((None, None, 0),)
        handle.current = (1, 0, 0, chunk)
        handle.state = "busy"
        todo: deque = deque()
        # Just inside the deadline: nothing happens.
        clock.advance(0.9)
        pool._reap(clock(), todo, {}, generation=1, chunks=[chunk])
        assert handle.state == "busy" and not todo
        # Past heartbeat_s * liveness_misses: killed, requeued, respawned.
        clock.advance(0.2)
        pool._workers[1].last_beat = clock()  # worker 1 stays live
        pool._reap(clock(), todo, {}, generation=1, chunks=[chunk])
        assert spawned[0].killed
        assert handle.state == "dead"
        assert list(todo) == [(1, 0, 1, chunk)]  # attempt bumped
        assert pool.requeues == 1
        assert pool.restarts == 1
        assert len(spawned) == 3  # replacement spawned
        assert any("missed 4 heartbeats" in line for line in pool._logs)
        pool.close()

    def test_reaped_process_detected_before_deadline(self):
        """A worker whose process already exited is dead immediately —
        no need to wait out the heartbeat deadline."""
        pool, clock, spawned = _pool(workers=2)
        handle = pool._workers[1]
        spawned[1].alive = False
        spawned[1].exitcode = 73
        chunk = ((None, None, 3),)
        handle.current = (1, 2, 0, chunk)
        handle.state = "busy"
        todo: deque = deque()
        pool._reap(clock(), todo, {}, generation=1, chunks=[chunk])
        assert handle.state == "dead"
        assert not spawned[1].killed  # it was already gone
        assert list(todo) == [(1, 2, 1, chunk)]
        assert any("code 73" in line for line in pool._logs)
        pool.close()

    def test_beat_resets_the_deadline(self):
        pool, clock, _ = _pool(workers=1)
        handle = pool._workers[0]
        handle.state = "busy"
        handle.current = (1, 0, 0, ())
        clock.advance(0.9)
        handle.last_beat = clock()  # a beat arrives late but in time
        clock.advance(0.9)
        pool._reap(clock(), deque(), {}, generation=1, chunks=[])
        assert handle.state == "busy"
        pool.close()

    def test_completed_chunk_is_not_requeued(self):
        """Death after the chunk's result already arrived (stale handle
        state) must not re-dispatch completed work."""
        pool, clock, _ = _pool(workers=1)
        handle = pool._workers[0]
        chunk = ((None, None, 0),)
        handle.current = (1, 0, 0, chunk)
        handle.state = "busy"
        completed = {0: "already-done"}
        todo: deque = deque()
        clock.advance(10.0)
        pool._reap(clock(), todo, completed, generation=1, chunks=[chunk])
        assert not todo and pool.requeues == 0
        pool.close()


class TestCrashLoopGiveUp:
    def test_exhausted_attempts_quarantine_instead_of_respawn_loop(self):
        pool, clock, _ = _pool(workers=1, max_chunk_attempts=2)
        handle = pool._workers[0]
        chunk = ((None, None, 4), (None, None, 9))
        handle.current = (1, 0, 1, chunk)  # already the second attempt
        handle.state = "busy"
        todo: deque = deque()
        completed: dict = {}
        clock.advance(10.0)
        pool._reap(clock(), todo, completed, generation=1, chunks=[chunk])
        assert not todo  # not requeued again
        result = completed[0]
        assert isinstance(result, ChunkResult)
        assert [o.index for o in result.outcomes] == [4, 9]
        assert all(o.result is None for o in result.outcomes)
        assert all("crash-loop" in o.failure for o in result.outcomes)
        assert all(
            o.failure_events == ("WorkerCrashLoop",) for o in result.outcomes
        )
        assert any("quarantining" in line for line in pool._logs)
        pool.close()

    def test_crash_loop_result_is_mergeable(self):
        result = _crash_loop_result(3, ((None, None, 7),), attempts=3)
        assert result.chunk_index == 3
        assert result.invocations == 0
        assert result.metrics_delta == {}


class TestDegradedMode:
    def test_respawn_failure_degrades_below_floor_with_log(self):
        pool, clock, spawned = _pool(workers=2, min_workers=2)
        # Every further spawn fails: the factory starts raising.
        pool._process_factory = lambda *a: (_ for _ in ()).throw(
            OSError("no more processes")
        )
        spawned[0].alive = False
        pool._reap(clock(), deque(), {}, generation=1, chunks=[])
        assert len(pool._workers) == 1  # degraded, still serving
        assert pool.restarts == 0
        assert any("degraded to 1 live worker" in line for line in pool._logs)
        pool.close()

    def test_total_death_raises_fleet_unavailable(self):
        pool, clock, spawned = _pool(workers=1)
        pool._process_factory = lambda *a: (_ for _ in ()).throw(
            OSError("no more processes")
        )
        spawned[0].alive = False
        with pytest.raises(PoolUnavailable):
            pool.run(((None, None, 0),))
        pool.close()

    def test_closed_fleet_refuses_runs(self):
        pool, _, _ = _pool(workers=1)
        pool.close()
        with pytest.raises(PoolUnavailable):
            pool.run(((None, None, 0),))

    def test_close_is_idempotent_and_kills_stragglers(self):
        pool, _, spawned = _pool(workers=2)
        pool.close()
        pool.close()
        assert all(p.killed for p in spawned)
        assert pool.snapshot()["workers"] == []


class TestWorkerFaultDecision:
    def test_site_embeds_chunk_and_attempt(self):
        assert _worker_site(3, 1) == "fleet/3/1"

    def test_check_worker_scoped_to_one_dispatch(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="worker.crash", probability=1.0, scope="fleet/2/0"),
            ),
            seed="unit",
        )
        injector = FaultInjector(plan)
        with attempt_scope(0):
            assert injector.check_worker("fleet/2/0").kind == "worker.crash"
            assert injector.check_worker("fleet/1/0") is None
        with attempt_scope(1):
            assert injector.check_worker("fleet/2/1") is None

    def test_chaos_plan_fires_on_every_chunks_first_attempt(self):
        injector = FaultInjector(worker_chaos_plan())
        with attempt_scope(0):
            for chunk in range(8):
                assert injector.check_worker(f"fleet/{chunk}/0") is not None
        with attempt_scope(1):
            for chunk in range(8):
                assert injector.check_worker(f"fleet/{chunk}/1") is None

    def test_pipeline_stages_ignore_worker_specs(self):
        """A worker-kind plan must not leak into invocation/sensor hooks."""
        injector = FaultInjector(worker_chaos_plan())
        injector.check_invocation("i7_45-stock/mcf/0")  # must not raise
