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
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.obs.metrics import default_registry
from repro.workloads.catalog import benchmark
from tests.helpers import records as _records

CLEAN = FaultPlan()

CONFIGS = (stock(CORE_I7_45), stock(ATOM_45))
BENCHES = tuple(
    benchmark(name) for name in ("mcf", "db", "eclipse", "lusearch")
)

#: Worker counts the equivalence matrix exercises.  ``jobs=1`` still goes
#: through the full dispatch/merge machinery (one worker process), so it
#: checks the protocol itself rather than degenerate to the sequential
#: path; 2 and 4 add real interleaving and out-of-order chunk completion.
WORKER_COUNTS = (1, 2, 4)


def _sweep(references, checkpoint, jobs=None, retry=None):
    study = Study(
        references=references,
        invocation_scale=0.2,
        retry=retry,
        checkpoint_path=checkpoint,
    )
    return study.run(CONFIGS, BENCHES, jobs=jobs)


class TestCleanEquivalence:
    @pytest.fixture(scope="class")
    def baseline(self, references, tmp_path_factory):
        checkpoint = tmp_path_factory.mktemp("seq") / "campaign.jsonl"
        with injected(CLEAN):
            results = _sweep(references, checkpoint)
        return _records(results), results.health, checkpoint.read_bytes()

    @pytest.mark.parametrize("jobs", WORKER_COUNTS)
    def test_parallel_sweep_is_byte_identical(
        self, references, tmp_path, baseline, jobs
    ):
        seq_records, seq_health, seq_checkpoint = baseline
        checkpoint = tmp_path / "campaign.jsonl"
        with injected(CLEAN):
            results = _sweep(references, checkpoint, jobs=jobs)
        assert _records(results) == seq_records
        assert results.health == seq_health
        assert checkpoint.read_bytes() == seq_checkpoint

    def test_saved_checkpoint_matches_sequential(
        self, references, tmp_path, baseline
    ):
        """``save_checkpoint`` emits sorted (benchmark, config) order, so
        the file is identical however the cache was populated."""
        _, _, _ = baseline
        seq_study = Study(references=references, invocation_scale=0.2)
        par_study = Study(references=references, invocation_scale=0.2)
        with injected(CLEAN):
            seq_study.run(CONFIGS, BENCHES)
            par_study.run(CONFIGS, BENCHES, jobs=2)
        seq_file = seq_study.ledger.save_checkpoint(tmp_path / "seq.jsonl")
        par_file = par_study.ledger.save_checkpoint(tmp_path / "par.jsonl")
        assert par_file.read_bytes() == seq_file.read_bytes()


class TestFaultedEquivalence:
    """Fault decisions are keyed by (site, attempt), so an armed plan
    must fire the same faults — and trigger the same retries, MAD
    re-measures, and quarantines — in a worker as in the parent."""

    RETRY = RetryPolicy(max_retries=8, outlier_threshold=3.5)

    @pytest.fixture(scope="class")
    def faulted_baseline(self, references, tmp_path_factory):
        checkpoint = tmp_path_factory.mktemp("faulted-seq") / "campaign.jsonl"
        with injected(demo_plan(probability=0.05, seed="parallel")):
            results = _sweep(references, checkpoint, retry=self.RETRY)
        return _records(results), results.health, checkpoint.read_bytes()

    @pytest.mark.parametrize("jobs", WORKER_COUNTS)
    def test_faulted_sweep_is_byte_identical(
        self, references, tmp_path, faulted_baseline, jobs
    ):
        seq_records, seq_health, seq_checkpoint = faulted_baseline
        # The plan really bit: equivalence over a fault-free campaign
        # would not exercise the retry/failure merge at all.
        assert seq_health.retries > 0 or seq_health.total_failures > 0
        checkpoint = tmp_path / "campaign.jsonl"
        with injected(demo_plan(probability=0.05, seed="parallel")):
            results = _sweep(references, checkpoint, jobs=jobs, retry=self.RETRY)
        assert _records(results) == seq_records
        assert results.health == seq_health
        # Mapping equality is order-blind; the failure dict's insertion
        # order (first-observed first) must match the sequential sweep too.
        assert list(results.health.failures) == list(seq_health.failures)
        assert checkpoint.read_bytes() == seq_checkpoint

    def test_quarantines_land_in_the_same_cells(self, references):
        """With retries exhausted early, both paths must quarantine the
        same pairs for the same reasons and keep the same survivors."""
        plan = fail_stop_plan(probability=0.2, seed="quarantine-parity")
        policy = RetryPolicy(max_retries=0)
        seq_study = Study(
            references=references, invocation_scale=0.2, retry=policy
        )
        par_study = Study(
            references=references, invocation_scale=0.2, retry=policy
        )
        with injected(plan):
            seq = seq_study.run(CONFIGS, BENCHES)
            par = par_study.run(CONFIGS, BENCHES, jobs=2)
        # 20% per-invocation fail-stop with zero retries: some pair must
        # fall over, or the test proves nothing.
        assert len(seq.health.quarantined) > 0
        assert par.health.quarantined == seq.health.quarantined
        assert par.health == seq.health
        assert _records(par) == _records(seq)


class TestParallelResume:
    def test_checkpoint_resume_mid_parallel_sweep(self, references, tmp_path):
        """A campaign checkpointed by a parallel half-sweep resumes — in
        parallel — to the byte-identical dataset and checkpoint."""
        baseline_csv = tmp_path / "baseline.csv"
        resumed_csv = tmp_path / "resumed.csv"
        seq_checkpoint = tmp_path / "seq.jsonl"
        checkpoint = tmp_path / "resumable.jsonl"

        with injected(CLEAN):
            _sweep(references, seq_checkpoint).to_csv(baseline_csv)

            # First attempt: half the sweep, in parallel, then "killed".
            first = Study(
                references=references,
                invocation_scale=0.2,
                checkpoint_path=checkpoint,
            )
            first.run(CONFIGS[:1], BENCHES, jobs=2)
            assert len(checkpoint.read_text().splitlines()) == len(BENCHES)

            # Second attempt restores the survivors and finishes — also
            # in parallel — appending only the missing pairs.
            second = Study(
                references=references,
                invocation_scale=0.2,
                checkpoint_path=checkpoint,
            )
            assert second.ledger.restore_checkpoint(checkpoint) == len(BENCHES)
            results = second.run(CONFIGS, BENCHES, jobs=2)
            results.to_csv(resumed_csv)

        assert results.health.restored_pairs == len(BENCHES)
        assert results.health.measured_pairs == len(BENCHES)
        assert resumed_csv.read_bytes() == baseline_csv.read_bytes()
        # The append-style checkpoint grew in sweep order both times, so
        # it matches the uninterrupted sequential campaign's bytes too.
        assert checkpoint.read_bytes() == seq_checkpoint.read_bytes()


class TestFallback:
    @pytest.mark.parametrize("failure", ("unbuildable", "every-worker-dies"))
    def test_pool_failure_falls_back(
        self, references, monkeypatch, tmp_path, failure
    ):
        """When the pool cannot be built, or every worker dies and none
        can be respawned, the sweep degrades to the in-process path —
        same records, health, and checkpoint bytes."""
        import repro.core.executor as executor

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
        seq_checkpoint = tmp_path / "seq.jsonl"
        fallback_checkpoint = tmp_path / "fallback.jsonl"
        with injected(CLEAN):
            seq = _sweep(references, seq_checkpoint)
        with injected(CLEAN if failure == "unbuildable" else massacre):
            fallback = _sweep(references, fallback_checkpoint, jobs=4)
        assert refused, "the pool never hit the refused spawn"
        assert _records(fallback) == _records(seq)
        assert fallback.health == seq.health
        assert fallback_checkpoint.read_bytes() == seq_checkpoint.read_bytes()


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
        return [_records(s) for s in sweeps], [s.health for s in sweeps], moved

    def test_pool_and_in_process_count_the_same(self, references):
        """Pool workers keep no result cache of their own: a pair the
        parent evicted is re-measured — and counted as a miss — on the
        pool exactly as in-process.  Retries, re-measures, invocations
        and the latency histogram are counted once, by the merge loop,
        wherever the pair was measured."""
        records, health, moved = self._one_pair_sweeps(references, jobs=None)
        hits, misses, invocations, retries, remeasures, latencies = moved
        assert hits == 0 and misses == 5  # no hits, five misses
        assert retries == sum(h.retries for h in health) > 0
        assert remeasures == sum(h.remeasured_outliers for h in health) == 2
        assert invocations == sum(r["invocations"] for s in records for r in s)
        assert latencies == 5
        pooled = self._one_pair_sweeps(references, jobs=1)
        assert pooled == (records, health, moved)
