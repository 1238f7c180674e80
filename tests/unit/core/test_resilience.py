"""Unit tests for the study's survival layer: retries, quarantine,
campaign health, checkpoint/resume, and input validation.

Every test arms its own plan via ``injected`` (an empty plan for the
clean-baseline cases), so the suite behaves identically whether or not
the CI fault matrix has armed a session-wide plan.
"""

import json
import math

import pytest

from repro.core.results import CampaignHealth, QuarantineEntry
from repro.core.study import Study
from repro.faults.errors import RetriesExhausted
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan, FaultSpec, fail_stop_plan
from repro.faults.retry import RetryPolicy
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.workloads.catalog import benchmark
from tests.helpers import records as _records

CLEAN = FaultPlan()  # no specs: overrides any session-wide plan with silence

CONFIGS = (stock(CORE_I7_45), stock(ATOM_45))
BENCHES = (benchmark("mcf"), benchmark("db"))


def _study(references, **kwargs):
    kwargs.setdefault("invocation_scale", 0.2)
    return Study(references=references, **kwargs)


class TestRetryTransparency:
    def test_recovered_fail_stop_faults_reproduce_clean_results(
        self, references
    ):
        with injected(CLEAN):
            clean = _study(references).run(CONFIGS, BENCHES)
        # Seed chosen so the plan demonstrably fires on this small sweep
        # (several timeouts and dropouts across the ten invocations).
        with injected(fail_stop_plan(probability=0.1, seed="t2")):
            faulted = _study(
                references, retry=RetryPolicy(max_retries=10)
            ).run(CONFIGS, BENCHES)
        assert faulted.health is not None
        assert faulted.health.retries > 0  # the plan really fired
        assert faulted.health.ok
        assert _records(faulted) == _records(clean)


class TestQuarantine:
    def _always_crashing(self, references):
        plan = FaultPlan(
            specs=(FaultSpec(kind="invocation.crash", probability=1.0),)
        )
        return injected(plan), _study(references)

    def test_run_survives_a_pair_that_never_succeeds(self, references):
        ctx, study = self._always_crashing(references)
        with ctx:
            results = study.run(CONFIGS[:1], BENCHES[:1])
        assert len(results) == 0
        health = results.health
        assert not health.ok
        assert [q.benchmark_name for q in health.quarantined] == ["mcf"]
        assert health.failures.get("InvocationCrash", 0) > 0
        assert study.ledger.is_quarantined(BENCHES[0], CONFIGS[0])

    def test_measure_raises_for_quarantined_pair_without_rerunning(
        self, references
    ):
        ctx, study = self._always_crashing(references)
        with ctx:
            study.run(CONFIGS[:1], BENCHES[:1])
        # Even with the injector disarmed the pair stays quarantined.
        with injected(CLEAN):
            with pytest.raises(RetriesExhausted, match="quarantined"):
                study.measure(BENCHES[0], CONFIGS[0])

    def test_clear_quarantine_gives_the_pair_another_chance(self, references):
        ctx, study = self._always_crashing(references)
        with ctx:
            study.run(CONFIGS[:1], BENCHES[:1])
        study.ledger.clear_quarantine()
        assert study.ledger.quarantined == ()
        with injected(CLEAN):
            result = study.measure(BENCHES[0], CONFIGS[0])
        assert math.isfinite(result.watts)

    def test_quarantined_pairs_are_excluded_from_planning(self, references):
        ctx, study = self._always_crashing(references)
        before = study.planned_invocations(CONFIGS[:1], BENCHES[:1])
        assert before > 0
        with ctx:
            study.run(CONFIGS[:1], BENCHES[:1])
        assert study.planned_invocations(CONFIGS[:1], BENCHES[:1]) == 0

    def test_retries_exhausted_carries_the_last_error(self, references):
        ctx, study = self._always_crashing(references)
        with ctx:
            with pytest.raises(RetriesExhausted) as excinfo:
                study.measure(BENCHES[0], CONFIGS[0])
        assert excinfo.value.last_error is not None
        assert type(excinfo.value.last_error).__name__ == "InvocationCrash"


class TestCampaignHealth:
    def test_clean_sweep_accounting(self, references):
        study = _study(references)
        with injected(CLEAN):
            first = study.run(CONFIGS, BENCHES).health
            second = study.run(CONFIGS, BENCHES).health
        assert first == CampaignHealth(
            attempted_pairs=4, measured_pairs=4
        )
        assert second == CampaignHealth(attempted_pairs=4, cached_pairs=4)
        assert first.ok and second.ok

    def test_merged_accumulates(self):
        a = CampaignHealth(
            attempted_pairs=2,
            measured_pairs=1,
            retries=3,
            failures={"InvocationCrash": 3},
            quarantined=(QuarantineEntry("db", "cfg", "why"),),
        )
        b = CampaignHealth(
            attempted_pairs=1,
            cached_pairs=1,
            failures={"InvocationCrash": 1, "LoggerDropout": 2},
        )
        merged = a.merged(b)
        assert merged.attempted_pairs == 3
        assert merged.failures == {"InvocationCrash": 4, "LoggerDropout": 2}
        assert merged.total_failures == 6
        assert len(merged.quarantined) == 1

    def test_summary_mentions_quarantine(self):
        health = CampaignHealth(
            attempted_pairs=1,
            quarantined=(QuarantineEntry("db", "cfg", "kept crashing"),),
        )
        text = health.summary()
        assert "quarantined (1)" in text
        assert "kept crashing" in text
        assert "quarantined: none" in CampaignHealth().summary()


class TestCheckpoint:
    def test_append_and_restore_round_trip(self, references, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with injected(CLEAN):
            writer = _study(references, checkpoint_path=path)
            original = writer.run(CONFIGS[:1], BENCHES)
            assert len(path.read_text().splitlines()) == 2

            reader = _study(references)
            assert reader.ledger.restore_checkpoint(path) == 2
            resumed = reader.run(CONFIGS[:1], BENCHES)
        assert _records(resumed) == _records(original)
        assert resumed.health.restored_pairs == 2
        assert resumed.health.measured_pairs == 0

    def test_restore_skips_truncated_and_unknown_lines(
        self, references, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        with injected(CLEAN):
            writer = _study(references, checkpoint_path=path)
            writer.measure(BENCHES[0], CONFIGS[0])
        good = path.read_text()
        mangled = json.loads(good.splitlines()[0])
        mangled["benchmark"] = "no-such-benchmark"
        path.write_text(
            good
            + json.dumps(mangled)
            + "\n"
            + good.splitlines()[0][: len(good) // 2]  # killed mid-write
        )
        reader = _study(references)
        assert reader.ledger.restore_checkpoint(path) == 1

    def test_save_checkpoint_dumps_the_whole_cache(self, references, tmp_path):
        with injected(CLEAN):
            study = _study(references)
            study.run(CONFIGS[:1], BENCHES)
            path = study.ledger.save_checkpoint(tmp_path / "dump.jsonl")
            reader = _study(references)
            assert reader.ledger.restore_checkpoint(path) == 2

    def test_enable_checkpoint_starts_appending(self, references, tmp_path):
        path = tmp_path / "late.jsonl"
        with injected(CLEAN):
            study = _study(references)
            study.measure(BENCHES[0], CONFIGS[0])
            assert not path.exists()
            study.ledger.enable_checkpoint(path)
            study.measure(BENCHES[1], CONFIGS[0])
        assert len(path.read_text().splitlines()) == 1


class TestOutlierRemeasurement:
    def test_mad_screen_replaces_a_corrupted_invocation(self, references):
        # Drift invocation 0 of db massively; the screen should re-measure
        # it (at a fresh salt index, which the scope no longer matches) and
        # land near the clean mean.
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="sensor.drift",
                    probability=1.0,
                    scope="*/db/0",
                    magnitude=400.0,
                ),
            )
        )
        with injected(CLEAN):
            clean = _study(references).measure(benchmark("db"), CONFIGS[0])
        screened_policy = RetryPolicy(outlier_threshold=3.5, max_remeasures=2)
        with injected(plan):
            unscreened = _study(references).run(
                CONFIGS[:1], (benchmark("db"),)
            )
            screened = _study(references, retry=screened_policy).run(
                CONFIGS[:1], (benchmark("db"),)
            )
        assert unscreened.health.remeasured_outliers == 0
        assert screened.health.remeasured_outliers == 1
        corrupted_watts = next(iter(unscreened)).watts
        screened_watts = next(iter(screened)).watts
        assert abs(screened_watts - clean.watts) < abs(
            corrupted_watts - clean.watts
        )
        assert screened_watts == pytest.approx(clean.watts, rel=0.05)

    def test_screen_off_by_default_keeps_protocol_identical(self, references):
        assert _study(references).retry_policy.outlier_threshold is None


class TestSingletonHygiene:
    """Two ordered tests proving the ``clean_singletons`` fixture (built
    on ``reset_meters`` / ``reset_shared_study``) isolates rig state."""

    def test_fixture_starts_from_pristine_singletons(self, clean_singletons):
        from repro.core.study import _SHARED_STUDY, shared_study
        from repro.measurement.meter import _METERS, meter_for

        assert _SHARED_STUDY is None and not _METERS
        shared_study()
        meter_for(CORE_I7_45)
        from repro.core.study import _SHARED_STUDY as populated

        assert populated is not None and _METERS

    def test_previous_tests_state_did_not_leak(self, clean_singletons):
        from repro.core.study import _SHARED_STUDY
        from repro.measurement.meter import _METERS

        assert _SHARED_STUDY is None and not _METERS


class TestValidation:
    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_invocation_scale_must_be_positive_finite(self, scale):
        with pytest.raises(ValueError, match="invocation scale"):
            Study(invocation_scale=scale)

    def test_timeout_budget_quarantines_chronic_hangs(self, references):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="invocation.hang", probability=1.0, magnitude=500.0
                ),
            )
        )
        policy = RetryPolicy(max_retries=10, timeout_budget_s=900.0)
        study = _study(references, retry=policy)
        with injected(plan):
            with pytest.raises(RetriesExhausted, match="budget"):
                study.measure(BENCHES[0], CONFIGS[0])
