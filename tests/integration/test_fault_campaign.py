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
from repro.faults.plan import demo_plan, fail_stop_plan
from repro.faults.retry import RetryPolicy
from tests.equivalence import (
    BENCHES,
    CLEAN,
    CONFIGS,
    Mode,
    assert_campaign_equivalent,
    capture,
    sweep,
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

    def test_fail_stop_faults_leave_no_trace_in_the_data(
        self, references, reference, tmp_path
    ):
        """A fail-stop plan plus retries reproduces the clean dataset."""
        faulted = sweep(
            references,
            Mode(plan=fail_stop_plan(probability=0.1, seed="no-trace")),
            workdir=tmp_path,
            retry=RetryPolicy(max_retries=10),
        )
        assert faulted.health.ok
        assert_campaign_equivalent(
            reference().only("records", "checkpoint"), faulted
        )


class TestKillAndResume:
    def test_interrupted_campaign_resumes_byte_identical(
        self, references, reference, tmp_path
    ):
        checkpoint = tmp_path / "campaign.jsonl"

        with injected(CLEAN):
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

        assert results.health.restored_pairs == 3
        assert results.health.measured_pairs == len(CONFIGS) * len(BENCHES) - 3
        # The uninterrupted campaign's dataset, record for record.
        assert_campaign_equivalent(reference().only("records"), capture(results))

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
