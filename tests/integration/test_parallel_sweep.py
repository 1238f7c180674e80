"""Acceptance tests for the parallel sweep executor.

The contract under test is the strongest one the design permits: a
``Study.run`` sharded across a process pool must be **byte-identical** to
the in-process sweep — same :class:`~repro.core.results.RunResult`
records, same :class:`~repro.core.results.CampaignHealth` (including the
failure-dict insertion order), same checkpoint bytes — at any worker
count, with or without an armed fault plan.  Every test here compares a
parallel run against a freshly measured sequential baseline rather than
against goldens, so a determinism regression in either path shows up as
a divergence between the two.
"""

import pytest

from repro.core.study import Study
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan, FaultSpec, demo_plan, fail_stop_plan
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import default_registry
from tests.equivalence import (
    BENCHES,
    CLEAN,
    CONFIGS,
    Capture,
    Mode,
    assert_campaign_equivalent,
    capture,
    sweep,
)

#: Worker counts the equivalence matrix exercises.  ``jobs=1`` still goes
#: through the full dispatch/merge machinery (one worker process), so it
#: checks the protocol itself rather than degenerate to the sequential
#: path; 2 and 4 add real interleaving and out-of-order chunk completion.
WORKER_COUNTS = (1, 2, 4)


class TestCleanEquivalence:
    @pytest.mark.parametrize("jobs", WORKER_COUNTS)
    def test_parallel_sweep_is_byte_identical(
        self, references, reference, tmp_path, jobs
    ):
        actual = sweep(references, Mode(dispatch=jobs, kernels=True), workdir=tmp_path)
        assert_campaign_equivalent(reference(), actual)

    def test_saved_checkpoint_matches_sequential(self, references, tmp_path):
        """``save_checkpoint`` emits sorted (benchmark, config) order, so
        the file is identical however the cache was populated."""

        def saved(jobs):
            study = Study(references=references, invocation_scale=0.2)
            with injected(CLEAN):
                study.run(CONFIGS, BENCHES, jobs=jobs)
            path = study.ledger.save_checkpoint(tmp_path / f"{jobs}.jsonl")
            return Capture(checkpoint=path.read_bytes())

        assert_campaign_equivalent(saved(None), saved(2))


class TestFaultedEquivalence:
    """Fault decisions are keyed by (site, attempt), so an armed plan
    must fire the same faults — and trigger the same retries, MAD
    re-measures, and quarantines — in a worker as in the parent."""

    PLAN = demo_plan(probability=0.05, seed="parallel")
    RETRY = RetryPolicy(max_retries=8, outlier_threshold=3.5)

    @pytest.mark.parametrize("jobs", WORKER_COUNTS)
    def test_faulted_sweep_is_byte_identical(
        self, references, reference, tmp_path, jobs
    ):
        expected = reference(Mode(plan=self.PLAN), retry=self.RETRY)
        # The plan really bit: equivalence over a fault-free campaign
        # would not exercise the retry/failure merge at all.
        assert expected.health.retries > 0 or expected.health.total_failures > 0
        mode = Mode(dispatch=jobs, kernels=True, plan=self.PLAN)
        assert_campaign_equivalent(
            expected, sweep(references, mode, workdir=tmp_path, retry=self.RETRY)
        )

    def test_quarantines_land_in_the_same_cells(self, references, tmp_path):
        """With retries exhausted early, both paths must quarantine the
        same pairs for the same reasons and keep the same survivors."""
        plan = fail_stop_plan(probability=0.2, seed="quarantine-parity")
        policy = RetryPolicy(max_retries=0)
        seq, par = (
            sweep(references, Mode(dispatch=jobs, plan=plan), workdir=tmp_path,
                  retry=policy)
            for jobs in (None, 2)
        )
        # 20% per-invocation fail-stop with zero retries: some pair must
        # fall over, or the test proves nothing.
        assert len(seq.health.quarantined) > 0
        assert_campaign_equivalent(seq, par)


class TestParallelResume:
    def test_checkpoint_resume_mid_parallel_sweep(
        self, references, reference, tmp_path
    ):
        """A campaign checkpointed by a parallel half-sweep resumes — in
        parallel — to the byte-identical dataset, health and checkpoint:
        the append-style checkpoint grew in sweep order both times."""
        mode = Mode(dispatch=2, kernels=True, restart=True)
        actual = sweep(references, mode, workdir=tmp_path)
        assert_campaign_equivalent(reference(), actual)


class TestFallback:
    @pytest.mark.parametrize("failure", ("unbuildable", "every-worker-dies"))
    def test_pool_failure_falls_back(
        self, references, reference, monkeypatch, tmp_path, failure
    ):
        """When the pool cannot be built, or every worker dies and none
        can be respawned, the sweep degrades to the in-process path —
        same records, health, and checkpoint bytes."""
        import repro.core.executor as executor

        expected = reference()
        spawn = executor.SweepPool._default_factory
        refused = []

        def _factory(pool, worker_id, tasks, results):
            if failure == "unbuildable" or worker_id >= pool.workers:
                refused.append(worker_id)
                raise OSError("process spawning disabled for test")
            return spawn(pool, worker_id, tasks, results)

        monkeypatch.setattr(executor.SweepPool, "_default_factory", _factory)
        # Crash every worker on every dispatch; with respawns refused the
        # pool runs out of workers mid-sweep.
        massacre = FaultPlan(
            specs=(
                FaultSpec(kind="worker.crash", probability=1.0, scope="fleet/*/*"),
            ),
            seed="massacre",
        )
        plan = CLEAN if failure == "unbuildable" else massacre
        mode = Mode(dispatch=4, kernels=True, plan=plan)
        fallback = sweep(references, mode, workdir=tmp_path)
        assert refused, "the pool never hit the refused spawn"
        assert_campaign_equivalent(expected, fallback)


class TestTelemetryParity:
    COUNTERS = (
        "repro_study_cache_hits_total",
        "repro_study_cache_misses_total",
        "repro_study_invocations_total",
        "repro_study_retries_total",
        "repro_study_outlier_remeasures_total",
    )
    #: Retried fail-stop faults, plus one drifted db invocation that the
    #: outlier screen re-measures every time db is measured.
    PLAN = FaultPlan(
        specs=fail_stop_plan(probability=0.1).specs
        + (
            FaultSpec(
                kind="sensor.drift",
                probability=1.0,
                scope="*/db/0",
                magnitude=400.0,
            ),
        ),
        seed="parity",
    )
    RETRY = RetryPolicy(max_retries=8, outlier_threshold=3.5)

    def _one_pair_sweeps(self, references, jobs):
        """Sweep pairs A, B, A, B, A one at a time through a study whose
        cache holds one pair, so every sweep re-measures."""
        registry = default_registry()
        latency = registry.get("repro_measure_seconds")

        def _read():
            return [registry.get(name).value for name in self.COUNTERS] + [
                latency.count
            ]

        before = _read()
        study = Study(
            references=references,
            invocation_scale=0.2,
            reuse_pool=True,
            cache_capacity=1,
            retry=self.RETRY,
        )
        a, b = (BENCHES[0], CONFIGS[0]), (BENCHES[1], CONFIGS[0])
        try:
            with injected(self.PLAN):
                sweeps = [
                    study.run_pairs([pair], jobs=jobs) for pair in (a, b, a, b, a)
                ]
        finally:
            study.close_pool()
        moved = [now - start for now, start in zip(_read(), before)]
        return [capture(s) for s in sweeps], moved

    def test_pool_and_in_process_count_the_same(self, references):
        """Pool workers keep no result cache of their own: a pair the
        parent evicted is re-measured — and counted as a miss — on the
        pool exactly as in-process.  Retries, re-measures, invocations
        and the latency histogram are counted once, by the merge loop,
        wherever the pair was measured."""
        captures, moved = self._one_pair_sweeps(references, jobs=None)
        hits, misses, invocations, retries, remeasures, latencies = moved
        assert hits == 0 and misses == 5  # no hits, five misses
        assert retries == sum(c.health.retries for c in captures) > 0
        assert remeasures == sum(c.health.remeasured_outliers for c in captures) == 2
        assert invocations == sum(
            record["invocations"] for c in captures for record in c.records
        )
        assert latencies == 5
        pooled, pooled_moved = self._one_pair_sweeps(references, jobs=1)
        for expected, actual in zip(captures, pooled, strict=True):
            assert_campaign_equivalent(expected, actual)
        assert pooled_moved == moved
