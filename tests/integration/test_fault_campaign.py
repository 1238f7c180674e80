"""Acceptance tests for the resilient campaign runner.

Two properties anchor the robustness story:

* with ≥5 % per-invocation faults at every pipeline stage, ``Study.run``
  completes without raising and the returned
  :class:`~repro.core.results.CampaignHealth` accounts for every pair;
* with faults disabled, a checkpointed campaign killed mid-sweep resumes
  to a byte-identical CSV.
"""

import json

import pytest

from repro.core.study import Study
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan, demo_plan, fail_stop_plan
from repro.faults.retry import RetryPolicy
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.workloads.catalog import benchmark

CLEAN = FaultPlan()

CONFIGS = (stock(CORE_I7_45), stock(ATOM_45))
BENCHES = tuple(
    benchmark(name) for name in ("mcf", "db", "eclipse", "lusearch")
)


class TestFaultyCampaign:
    def test_five_percent_faults_cannot_take_down_a_sweep(self, references):
        study = Study(
            references=references,
            invocation_scale=0.2,
            retry=RetryPolicy(max_retries=8),
        )
        with injected(demo_plan(probability=0.05, seed="acceptance")):
            results = study.run(CONFIGS, BENCHES)
        health = results.health
        assert health is not None
        # Every attempted pair is accounted for: measured, cached,
        # restored, or quarantined — nothing vanished.
        assert health.attempted_pairs == len(CONFIGS) * len(BENCHES)
        assert (
            health.measured_pairs
            + health.cached_pairs
            + health.restored_pairs
            + len(health.quarantined)
            == health.attempted_pairs
        )
        assert len(results) == health.attempted_pairs - len(health.quarantined)
        # The plan really exercised the pipeline (5% across four stages
        # over ~80 invocations makes zero faults astronomically unlikely).
        assert health.retries > 0 or health.total_failures > 0
        for result in results:
            assert result.watts > 0 and result.seconds > 0

    def test_fail_stop_faults_leave_no_trace_in_the_data(self, references):
        """A fail-stop plan plus retries reproduces the clean dataset."""
        clean_study = Study(references=references, invocation_scale=0.2)
        faulted_study = Study(
            references=references,
            invocation_scale=0.2,
            retry=RetryPolicy(max_retries=10),
        )
        with injected(CLEAN):
            clean = clean_study.run(CONFIGS, BENCHES)
        with injected(fail_stop_plan(probability=0.1, seed="no-trace")):
            faulted = faulted_study.run(CONFIGS, BENCHES)
        assert faulted.health.ok
        assert [r.as_record() for r in faulted] == [
            r.as_record() for r in clean
        ]


class TestKillAndResume:
    def test_interrupted_campaign_resumes_byte_identical(
        self, references, tmp_path
    ):
        checkpoint = tmp_path / "campaign.jsonl"
        baseline_csv = tmp_path / "baseline.csv"
        resumed_csv = tmp_path / "resumed.csv"

        with injected(CLEAN):
            # The uninterrupted campaign.
            baseline = Study(references=references, invocation_scale=0.2)
            baseline.run(CONFIGS, BENCHES).to_csv(baseline_csv)

            # First attempt: measures three pairs, then is "killed" —
            # mid-write, leaving a truncated trailing line.
            first = Study(
                references=references,
                invocation_scale=0.2,
                checkpoint_path=checkpoint,
            )
            for bench in BENCHES[:3]:
                first.measure(bench, CONFIGS[0])
            intact = checkpoint.read_text()
            assert len(intact.splitlines()) == 3
            half_line = json.dumps(
                first.measure(BENCHES[3], CONFIGS[0]).as_record()
            )[:57]
            checkpoint.write_text(intact + half_line)

            # Second attempt resumes from the survivors and finishes.
            second = Study(
                references=references,
                invocation_scale=0.2,
                checkpoint_path=checkpoint,
            )
            assert second.ledger.restore_checkpoint(checkpoint) == 3
            results = second.run(CONFIGS, BENCHES)
            results.to_csv(resumed_csv)

        assert results.health.restored_pairs == 3
        assert results.health.measured_pairs == len(CONFIGS) * len(BENCHES) - 3
        assert resumed_csv.read_bytes() == baseline_csv.read_bytes()

    def test_completed_checkpoint_resumes_without_measuring(
        self, references, tmp_path
    ):
        checkpoint = tmp_path / "done.jsonl"
        with injected(CLEAN):
            writer = Study(
                references=references,
                invocation_scale=0.2,
                checkpoint_path=checkpoint,
            )
            writer.run(CONFIGS[:1], BENCHES)
            reader = Study(references=references, invocation_scale=0.2)
            reader.ledger.restore_checkpoint(checkpoint)
            health = reader.run(CONFIGS[:1], BENCHES).health
        assert health.measured_pairs == 0
        assert health.restored_pairs == len(BENCHES)
