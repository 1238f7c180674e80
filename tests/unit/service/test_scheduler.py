"""Unit tests for the coalescing, admission-controlled scheduler.

The tests drive submit/dispatch ordering through ``asyncio.gather``:
submissions all run before the dispatcher task gets the loop, so the
coalesce / saturate decisions they exercise are deterministic.
"""

import asyncio
import json
import os

import pytest

from repro.core.study import Study
from repro.faults.plan import FaultPlan, FaultSpec, demo_plan, fail_stop_plan
from repro.faults.retry import RetryPolicy
from repro.hardware.catalog import ATOM_45, CORE2DUO_45, CORE_I7_45
from repro.hardware.config import stock
from repro.service.scheduler import (
    CampaignScheduler,
    DeadlineExceeded,
    Draining,
    InvalidPlan,
    MeasurementFailed,
    Saturated,
)
from repro.service.store import ResultStore
from repro.workloads.catalog import benchmark

MCF = benchmark("mcf")
DB = benchmark("db")
I7 = stock(CORE_I7_45)
ATOM = stock(ATOM_45)


def _study(references, **kwargs):
    return Study(references=references, invocation_scale=0.2, **kwargs)


def _run(coro):
    return asyncio.run(coro)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestCoalescing:
    def test_concurrent_identical_submits_share_one_job(self, references):
        study = _study(references)
        scheduler = CampaignScheduler(study)

        async def main():
            await scheduler.start()
            results = await asyncio.gather(
                *(scheduler.submit(MCF, I7) for _ in range(5))
            )
            await scheduler.drain()
            return results

        results = _run(main())
        assert len({id(r) for r in results}) == 1  # literally the same result
        assert scheduler.completed == 1
        assert scheduler.coalesced == 4
        assert study.ledger.cached_pairs == 1

    def test_coalesced_result_matches_sequential_run(self, references):
        study = _study(references)
        scheduler = CampaignScheduler(study)

        async def main():
            await scheduler.start()
            results = await asyncio.gather(
                scheduler.submit(MCF, I7), scheduler.submit(MCF, I7)
            )
            await scheduler.drain()
            return results

        served = _run(main())
        sequential = _study(references).run([I7], [MCF]).single()
        for result in served:
            assert json.dumps(result.as_record()) == json.dumps(
                sequential.as_record()
            )

    def test_different_pairs_are_distinct_jobs(self, references):
        scheduler = CampaignScheduler(_study(references))

        async def main():
            await scheduler.start()
            a, b = await asyncio.gather(
                scheduler.submit(MCF, I7), scheduler.submit(DB, ATOM)
            )
            await scheduler.drain()
            return a, b

        a, b = _run(main())
        assert (a.benchmark_name, a.config_key) != (b.benchmark_name, b.config_key)
        assert scheduler.completed == 2
        assert scheduler.coalesced == 0

    def test_plan_is_part_of_the_job_key(self, references):
        """The same pair with and without a fault plan must not coalesce."""
        scheduler = CampaignScheduler(_study(references))

        async def main():
            await scheduler.start()
            await asyncio.gather(
                scheduler.submit(MCF, I7),
                scheduler.submit(MCF, I7, plan=fail_stop_plan()),
            )
            await scheduler.drain()

        _run(main())
        assert scheduler.completed == 2
        assert scheduler.coalesced == 0


class TestAdmissionControl:
    def test_saturation_raises_with_retry_after(self, references):
        scheduler = CampaignScheduler(_study(references), max_pending=1)

        async def main():
            await scheduler.start()
            outcomes = await asyncio.gather(
                scheduler.submit(MCF, I7),
                scheduler.submit(DB, ATOM),
                return_exceptions=True,
            )
            await scheduler.drain()
            return outcomes

        outcomes = _run(main())
        errors = [o for o in outcomes if isinstance(o, Exception)]
        assert len(errors) == 1
        assert isinstance(errors[0], Saturated)
        assert errors[0].retry_after_s >= 1.0
        assert scheduler.rejected == 1

    def test_coalescing_bypasses_saturation(self, references):
        """An identical request rides the existing job even at capacity."""
        scheduler = CampaignScheduler(_study(references), max_pending=1)

        async def main():
            await scheduler.start()
            results = await asyncio.gather(
                scheduler.submit(MCF, I7), scheduler.submit(MCF, I7)
            )
            await scheduler.drain()
            return results

        results = _run(main())
        assert len(results) == 2
        assert scheduler.rejected == 0

    def test_corrupting_per_request_plan_is_refused(self, references):
        scheduler = CampaignScheduler(_study(references))

        async def main():
            await scheduler.start()
            with pytest.raises(InvalidPlan):
                await scheduler.submit(MCF, I7, plan=demo_plan())
            await scheduler.drain()

        _run(main())

    def test_submit_after_drain_raises_draining(self, references):
        scheduler = CampaignScheduler(_study(references))

        async def main():
            await scheduler.start()
            await scheduler.drain()
            with pytest.raises(Draining):
                await scheduler.submit(MCF, I7)

        _run(main())


class TestFailuresAndPersistence:
    def test_exhausted_retries_surface_as_measurement_failed(self, references):
        always_crash = FaultPlan(
            specs=(FaultSpec(kind="invocation.crash", probability=1.0),),
            seed="always",
        )
        study = _study(references, retry=RetryPolicy(max_retries=1))
        scheduler = CampaignScheduler(study)

        async def main():
            await scheduler.start()
            with pytest.raises(MeasurementFailed):
                await scheduler.submit(MCF, I7, plan=always_crash)
            await scheduler.drain()

        _run(main())
        assert scheduler.failed == 1
        assert study.ledger.quarantined  # the pair is quarantined, not retried forever

    def test_fail_stop_plan_reproduces_fault_free_bytes(self, references):
        """Retried fail-stop faults must serve the fault-free record."""
        faulted = CampaignScheduler(_study(references))

        async def main():
            await faulted.start()
            result = await faulted.submit(DB, ATOM, plan=fail_stop_plan())
            await faulted.drain()
            return result

        under_faults = _run(main())
        clean = _study(references).measure(DB, ATOM)
        assert json.dumps(under_faults.as_record()) == json.dumps(
            clean.as_record()
        )

    def test_new_results_are_persisted_to_the_store(self, references):
        store = ResultStore()
        scheduler = CampaignScheduler(_study(references), store=store)

        async def main():
            await scheduler.start()
            await scheduler.submit(MCF, I7)
            return await scheduler.drain()

        summary = _run(main())
        assert len(store) == 1
        assert store.get("mcf", I7.key) is not None
        assert summary["store_records"] == 1

    def test_batched_heterogeneous_jobs_all_resolve(self, references):
        """Jobs queued while a batch measures dispatch together next cycle."""
        scheduler = CampaignScheduler(_study(references))
        pairs = [(MCF, I7), (DB, ATOM), (MCF, ATOM), (DB, stock(CORE2DUO_45))]

        async def main():
            await scheduler.start()
            results = await asyncio.gather(
                *(scheduler.submit(b, c) for b, c in pairs)
            )
            await scheduler.drain()
            return results

        results = _run(main())
        assert [(r.benchmark_name, r.config_key) for r in results] == [
            (b.name, c.key) for b, c in pairs
        ]

    def test_rejects_degenerate_queue_bound(self, references):
        with pytest.raises(ValueError):
            CampaignScheduler(_study(references), max_pending=0)


class TestDeadlinesAndJournal:
    """PR 8: deadline shedding, recovery priority, journal coupling."""

    def test_dead_on_arrival_deadline_is_shed_at_submit(self, references):
        ticks = [100.0]
        store = ResultStore()
        store.journal_admit("rk", MCF.name, I7.key)
        scheduler = CampaignScheduler(
            _study(references), store=store, clock=lambda: ticks[0]
        )

        async def main():
            await scheduler.start()
            with pytest.raises(DeadlineExceeded):
                await scheduler.submit(MCF, I7, request_key="rk", deadline=99.0)
            await scheduler.drain()

        _run(main())
        assert scheduler.shed == 1
        assert store.journal_entry("rk").status == "shed"

    def test_expired_deadline_is_shed_before_dispatch(self, references):
        ticks = [100.0]
        store = ResultStore()
        store.journal_admit("rk", MCF.name, I7.key)
        scheduler = CampaignScheduler(
            _study(references), store=store, clock=lambda: ticks[0]
        )

        async def main():
            await scheduler.start()
            task = asyncio.create_task(
                scheduler.submit(MCF, I7, request_key="rk", deadline=105.0)
            )
            # Let the submit enqueue, then expire the deadline before the
            # dispatcher gets the loop: the job must be shed, not run.
            await asyncio.sleep(0)
            ticks[0] = 200.0
            with pytest.raises(DeadlineExceeded):
                await task
            await scheduler.drain()

        _run(main())
        assert scheduler.shed == 1
        assert scheduler.completed == 0
        assert store.journal_entry("rk").status == "shed"
        # Shed before the engine: nothing was measured or stored.
        assert scheduler.study.ledger.cached_pairs == 0
        assert len(store) == 0

    def test_no_deadline_waiter_unbounds_a_coalesced_job(self, references):
        """A coalescer without a deadline must never be 504ed by the
        first submitter's tighter budget."""
        ticks = [100.0]
        scheduler = CampaignScheduler(
            _study(references), clock=lambda: ticks[0]
        )

        async def main():
            await scheduler.start()
            bounded = asyncio.create_task(
                scheduler.submit(MCF, I7, deadline=105.0)
            )
            await asyncio.sleep(0)
            unbounded = asyncio.create_task(scheduler.submit(MCF, I7))
            await asyncio.sleep(0)
            ticks[0] = 200.0
            results = await asyncio.gather(bounded, unbounded)
            await scheduler.drain()
            return results

        first, second = _run(main())
        # The job ran (the shared deadline was relaxed to None), so both
        # waiters — including the one whose budget had lapsed — got the
        # result rather than a shed.
        assert first == second
        assert scheduler.shed == 0

    def test_recovery_submits_bypass_saturation(self, references):
        scheduler = CampaignScheduler(_study(references), max_pending=1)

        async def main():
            await scheduler.start()
            first = asyncio.create_task(scheduler.submit(MCF, I7))
            await asyncio.sleep(0)
            # The table is full: a fresh request is refused...
            with pytest.raises(Saturated):
                await scheduler.submit(DB, ATOM)
            # ...but a journal replay is admitted anyway: recovery work
            # was already accepted once, so it outranks new arrivals.
            replay = asyncio.create_task(
                scheduler.submit(DB, ATOM, recovery=True)
            )
            results = await asyncio.gather(first, replay)
            await scheduler.drain()
            return results

        results = _run(main())
        assert len(results) == 2
        assert scheduler.rejected == 1

    def test_batch_commit_marks_journal_done(self, references):
        store = ResultStore()
        store.journal_admit("rk-mcf", MCF.name, I7.key)
        store.journal_admit("rk-db", DB.name, ATOM.key)
        scheduler = CampaignScheduler(_study(references), store=store)

        async def main():
            await scheduler.start()
            results = await asyncio.gather(
                scheduler.submit(MCF, I7, request_key="rk-mcf"),
                scheduler.submit(DB, ATOM, request_key="rk-db"),
            )
            await scheduler.drain()
            return results

        results = _run(main())
        counts = store.journal_counts()
        assert counts["pending"] == 0
        assert counts["done"] == 2
        # The same transaction persisted the records the journal claims.
        for result in results:
            stored = store.get(result.benchmark_name, result.config_key)
            assert json.dumps(stored.as_record()) == json.dumps(
                result.as_record()
            )

    def test_failed_measurement_marks_journal_failed(self, references):
        always_crash = FaultPlan(
            specs=(FaultSpec(kind="invocation.crash", probability=1.0),),
            seed="always",
        )
        store = ResultStore()
        store.journal_admit(
            "rk", MCF.name, I7.key, plan_fp=always_crash.fingerprint
        )
        study = _study(references, retry=RetryPolicy(max_retries=1))
        scheduler = CampaignScheduler(study, store=store)

        async def main():
            await scheduler.start()
            with pytest.raises(MeasurementFailed):
                await scheduler.submit(
                    MCF, I7, always_crash, request_key="rk"
                )
            await scheduler.drain()

        _run(main())
        entry = store.journal_entry("rk")
        assert entry.status == "failed"
        assert entry.detail

    def test_drain_escalation_leaves_journal_pending(self, references):
        """The satellite contract: a drain that expires mid-batch leaves
        the journal pending, so a later --recover completes the work."""
        import threading

        started = threading.Event()
        release = threading.Event()
        store = ResultStore()
        store.journal_admit("rk", MCF.name, I7.key)
        ticks = iter([100.0, 1000.0])
        scheduler = CampaignScheduler(
            _study(references),
            store=store,
            clock=lambda: next(ticks, 1000.0),
        )

        def hung_measure(plan, pairs, schedule_spans, batch_keys=None):
            started.set()
            release.wait()
            return {}, {}

        scheduler._measure_batch = hung_measure

        async def main():
            await scheduler.start()
            task = asyncio.create_task(
                scheduler.submit(MCF, I7, request_key="rk")
            )
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait
            )
            summary = await scheduler.drain(deadline_s=5.0)
            with pytest.raises(Draining):
                await task
            return summary

        try:
            summary = _run(main())
        finally:
            release.set()
        assert summary["drain_timed_out"] is True
        # Draining is crash-shaped, not terminal: the journal still owes
        # this request, and recovery will replay it.
        assert store.journal_entry("rk").status == "pending"


class TestDrainDeadline:
    """``drain(deadline_s=...)``: the bounded-shutdown escalation path.

    Timing runs on the scheduler's injectable clock, so the "deadline
    exceeded" branch is exercised by jumping a fake clock — no sleeping,
    and no dependence on how long the hung measurement really takes."""

    def test_hung_measurement_cannot_hold_drain_hostage(self, references):
        import threading

        started = threading.Event()
        release = threading.Event()
        # First clock() call stamps the deadline; the second (computing
        # the remaining budget) has leapt far past it, so the drain
        # escalates immediately instead of waiting out real seconds.
        # (The clock is only read for deadlines, so the real batch served
        # first does not consume the ticks.)
        ticks = iter([100.0, 1000.0])
        study = _study(references, jobs=2, reuse_pool=True)
        scheduler = CampaignScheduler(
            study, jobs=2, clock=lambda: next(ticks, 1000.0)
        )
        pids = []

        def hung_measure(plan, pairs, schedule_spans, batch_keys=None):
            started.set()
            release.wait()  # wedged until the test cleans up
            return {}, {}

        async def main():
            await scheduler.start()
            # One real two-pair batch first, so the kept-alive pool
            # exists when the drain escalates.
            await asyncio.gather(
                scheduler.submit(DB, ATOM), scheduler.submit(MCF, ATOM)
            )
            pids.extend(w["pid"] for w in study.fleet_snapshot()["workers"])
            scheduler._measure_batch = hung_measure
            task = asyncio.create_task(scheduler.submit(MCF, I7))
            # Park until the measurement thread is genuinely wedged.
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait
            )
            summary = await scheduler.drain(deadline_s=5.0)
            with pytest.raises(Draining):
                await task
            return summary

        try:
            summary = _run(main())
        finally:
            release.set()  # unwedge the abandoned worker thread
        assert summary["drain_timed_out"] is True
        assert summary["cancelled"] == 1
        assert scheduler.pending == 0
        # The escalated drain still shuts the kept-alive pool down.
        assert study.fleet_snapshot() is None
        assert len(pids) == 2
        assert not [pid for pid in pids if _pid_alive(pid)]

    def test_fast_drain_never_escalates(self, references):
        scheduler = CampaignScheduler(_study(references))

        async def main():
            await scheduler.start()
            await scheduler.submit(MCF, I7)
            return await scheduler.drain(deadline_s=600.0)

        summary = _run(main())
        assert summary["drain_timed_out"] is False
        assert summary["cancelled"] == 0
        assert summary["completed"] == 1

    def test_unbounded_drain_still_waits(self, references):
        """``deadline_s=None`` (the default, and the CLI default) keeps
        the wait-forever semantics earlier PRs relied on."""
        scheduler = CampaignScheduler(_study(references))

        async def main():
            await scheduler.start()
            await scheduler.submit(DB, ATOM)
            return await scheduler.drain()

        summary = _run(main())
        assert summary["drain_timed_out"] is False
        assert summary["completed"] == 1
