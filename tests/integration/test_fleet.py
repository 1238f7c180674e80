"""Acceptance tests for the supervised worker pool under worker deaths.

The contract is the parallel sweep's, under a harsher adversary:
a ``Study(jobs=N).run(...)`` must be **byte-identical** to
the clean sequential sweep — same records, same
:class:`~repro.core.results.CampaignHealth`, same checkpoint bytes — at
any worker count *and with any number of worker deaths injected
mid-sweep*.  A killed worker's partial chunk dies with it; the
replacement re-measures the chunk from scratch on the same noise
streams, so the merged dataset cannot tell a massacre from a quiet run.

Worker faults are armed through the ordinary plan machinery with sites
of the form ``fleet/<chunk>/<attempt>``: a probability-1.0 spec scoped
to ``fleet/0/0`` kills exactly the first worker assigned chunk 0, and
the attempt-1 requeue sails through on fresh dice.
"""

import os
import struct

import pytest

from repro.core.executor import CRASH_EXIT_CODE
from repro.core.study import Study
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan, FaultSpec, worker_chaos_plan
from tests.equivalence import (
    BENCHES,
    CONFIGS,
    Mode,
    assert_campaign_equivalent,
    sweep,
)

WORKER_COUNTS = (1, 2, 4)


def _death_plan(deaths: int) -> FaultPlan:
    """Kill the first assignee of chunks 0..deaths-1, exactly once each.

    Chunk indices 0 and 1 exist at every worker count here: even
    ``jobs=1`` shards the 8-pair sweep into 4 chunks."""
    return FaultPlan(
        specs=tuple(
            FaultSpec(
                kind="worker.crash",
                probability=1.0,
                scope=f"fleet/{chunk}/0",
            )
            for chunk in range(deaths)
        ),
        seed="fleet-deaths",
    )


def _tear_and_die(results) -> None:
    """Worker stand-in that dies halfway through sending a message: a
    length header promising far more bytes than ever arrive."""
    os.write(results.fileno(), struct.pack("!i", 1 << 20) + b"torn")
    os._exit(CRASH_EXIT_CODE)


class TestDeathMatrix:
    """jobs x injected worker deaths — every cell byte-identical."""

    @pytest.mark.parametrize("jobs", WORKER_COUNTS)
    @pytest.mark.parametrize("deaths", (0, 1, 2))
    def test_supervised_sweep_is_byte_identical(
        self, references, reference, tmp_path, jobs, deaths
    ):
        mode = Mode(dispatch=jobs, kernels=True, plan=_death_plan(deaths))
        actual = sweep(references, mode, workdir=tmp_path)
        assert_campaign_equivalent(reference(), actual)

    def test_deaths_actually_happen(self, references, reference, tmp_path):
        """The matrix must not pass vacuously: with the pool kept alive
        (``reuse_pool``) its restart/requeue counters are
        inspectable, and two scoped crashes mean two respawns."""
        mode = Mode(dispatch=2, kernels=True, plan=_death_plan(2))
        result = sweep(references, mode, workdir=tmp_path, reuse_pool=True)
        assert result.fleet is not None
        assert result.fleet["restarts"] == 2
        assert result.fleet["requeues"] == 2
        assert result.fleet["live"] >= 1
        assert_campaign_equivalent(reference(), result)


class TestHangAndChaos:
    def test_hung_worker_is_reaped_past_liveness_deadline(
        self, references, reference, tmp_path
    ):
        """A ``worker.hang`` stops the victim's heartbeats; the liveness
        loop must SIGKILL it after ``heartbeat_s * liveness_misses`` and
        the requeued chunk must land byte-identically."""
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="worker.hang", probability=1.0, scope="fleet/1/0"
                ),
            ),
            seed="fleet-hang",
        )
        result = sweep(
            references,
            Mode(dispatch=2, kernels=True, plan=plan),
            workdir=tmp_path,
            reuse_pool=True,
            heartbeat_s=0.05,
            liveness_misses=3,
        )
        assert result.fleet["restarts"] == 1
        assert_campaign_equivalent(reference(), result)

    def test_worker_torn_mid_message_silences_no_sibling(
        self, references, reference, tmp_path, monkeypatch
    ):
        """A worker that dies halfway through writing a message tears
        only its own result pipe: its sibling keeps beating and
        answering, the pool respawns the dead one, and the bytes do not
        move.  (With one result queue shared by all workers, a worker
        dying inside a send left the queue's write lock held and every
        sibling silent.)"""
        import repro.core.executor as executor

        expected = reference()
        spawn = executor.SweepPool._default_factory

        def _factory(pool, worker_id, tasks, results):
            if worker_id != 0:
                return spawn(pool, worker_id, tasks, results)
            process = executor._pool_context().Process(
                target=_tear_and_die, args=(results,), daemon=True
            )
            process.start()
            return process

        monkeypatch.setattr(executor.SweepPool, "_default_factory", _factory)
        mode = Mode(dispatch=2, kernels=True)
        result = sweep(references, mode, workdir=tmp_path, reuse_pool=True)
        assert result.fleet["restarts"] == 1
        assert result.fleet["live"] == 2
        assert_campaign_equivalent(expected, result)

    def test_chaos_plan_kills_every_chunks_first_worker(
        self, references, reference, tmp_path
    ):
        """The canned ``chaos`` plan (``--inject chaos``) crashes the
        first assignee of *every* chunk — maximum churn, same bytes."""
        mode = Mode(dispatch=2, kernels=True, plan=worker_chaos_plan())
        result = sweep(references, mode, workdir=tmp_path, reuse_pool=True)
        # 8 pairs at jobs=2 shard into 8 chunks: 8 crashed workers.
        assert result.fleet["restarts"] == 8
        assert_campaign_equivalent(reference(), result)


class TestSlowWorker:
    """A ``worker.slow`` stalls the assignee of one chunk, heartbeats and
    all, for the spec's magnitude, then lets it carry on.  Against the
    default liveness deadline (``heartbeat_s`` 0.25 s x 4 misses = 1 s)
    a shorter stall is ridden out and a longer one is a dead worker;
    either way the merged bytes are the clean run's."""

    @staticmethod
    def _stall(seconds: float) -> FaultPlan:
        return FaultPlan(
            specs=(
                FaultSpec(
                    kind="worker.slow",
                    probability=1.0,
                    scope="fleet/1/0",
                    magnitude=seconds,
                ),
            ),
            seed="fleet-slow",
        )

    @staticmethod
    def _record_stalls(monkeypatch, tmp_path):
        """Log every ``silence()`` a (forked) worker enacts to a file."""
        import repro.core.executor as executor

        log = tmp_path / "stalls.txt"
        silence = executor._Beater.silence

        def recording(beater, seconds):
            with open(log, "a", encoding="utf-8") as out:
                out.write(f"{seconds}\n")
            silence(beater, seconds)

        monkeypatch.setattr(executor._Beater, "silence", recording)
        return log

    def test_stall_below_the_deadline_recovers_without_respawn(
        self, references, reference, tmp_path, monkeypatch
    ):
        log = self._record_stalls(monkeypatch, tmp_path)
        mode = Mode(dispatch=2, kernels=True, plan=self._stall(0.3))
        result = sweep(references, mode, workdir=tmp_path, reuse_pool=True)
        assert log.read_text().split() == ["0.3"]  # the stall happened
        assert result.fleet["restarts"] == 0
        assert result.fleet["requeues"] == 0
        assert result.fleet["live"] == 2
        assert_campaign_equivalent(reference(), result)

    def test_stall_above_the_deadline_is_reaped_and_requeued(
        self, references, reference, tmp_path, monkeypatch
    ):
        log = self._record_stalls(monkeypatch, tmp_path)
        mode = Mode(dispatch=2, kernels=True, plan=self._stall(2.0))
        result = sweep(references, mode, workdir=tmp_path, reuse_pool=True)
        # The requeue is attempt 1, outside the spec's scope: one stall.
        assert log.read_text().split() == ["2.0"]
        assert result.fleet["restarts"] == 1
        assert result.fleet["requeues"] == 1
        assert_campaign_equivalent(reference(), result)


class TestCrashLoopQuarantine:
    def test_poison_chunk_is_given_up_and_quarantined(self, references):
        """A chunk that kills *every* worker it touches (scope
        ``fleet/0/*`` — all attempts) must be abandoned after
        ``MAX_CHUNK_ATTEMPTS`` dispatches and its pairs quarantined like
        any failed pair, not respawn workers forever."""
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="worker.crash", probability=1.0, scope="fleet/0/*"
                ),
            ),
            seed="poison",
        )
        study = Study(references=references, invocation_scale=0.2, jobs=2)
        with injected(plan):
            results = study.run(CONFIGS, BENCHES)
        # 8 chunks at jobs=2: chunk 0 holds exactly the first pair.
        assert len(results.health.quarantined) == 1
        (entry,) = results.health.quarantined
        assert "crash-loop" in entry.reason
        assert results.health.failures.get("WorkerCrashLoop", 0) >= 1
        # The 7 surviving chunks still measured.
        assert results.health.attempted_pairs == len(CONFIGS) * len(BENCHES)
        assert results.health.measured_pairs == len(CONFIGS) * len(BENCHES) - 1
        assert len(results) == len(CONFIGS) * len(BENCHES) - 1
