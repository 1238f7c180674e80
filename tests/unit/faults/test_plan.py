"""Unit tests for the declarative fault-plan layer."""

import math

import pytest

from repro.faults.plan import (
    COORDINATOR_KINDS,
    COORDINATOR_PHASES,
    CORRUPTING_KINDS,
    DEFAULT_MAGNITUDES,
    FAIL_STOP_KINDS,
    KNOWN_KINDS,
    PROCESS_KINDS,
    CANNED_PLANS,
    FaultPlan,
    FaultSpec,
    PlanError,
    coordinator_crash_plan,
    demo_plan,
    fail_stop_plan,
    plan_from_arg,
    worker_chaos_plan,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="sensor.explodes", probability=0.1)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_probability_bounds(self, p):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="invocation.crash", probability=p)

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf])
    def test_magnitude_must_be_finite(self, magnitude):
        with pytest.raises(ValueError, match="finite"):
            FaultSpec(kind="sensor.drift", probability=0.1, magnitude=magnitude)

    def test_severity_defaults_per_kind(self):
        for kind in KNOWN_KINDS:
            spec = FaultSpec(kind=kind, probability=0.5)
            assert spec.severity == DEFAULT_MAGNITUDES.get(kind, 0.0)

    def test_magnitude_overrides_severity(self):
        spec = FaultSpec(kind="sensor.drift", probability=0.5, magnitude=123.0)
        assert spec.severity == 123.0

    def test_scope_matching(self):
        spec = FaultSpec(kind="invocation.crash", probability=1.0, scope="i7_45*")
        assert spec.applies_to("i7_45-stock/db/0")
        assert not spec.applies_to("atom_45-stock/db/0")
        benchmark_scoped = FaultSpec(
            kind="invocation.crash", probability=1.0, scope="*/db/*"
        )
        assert benchmark_scoped.applies_to("i7_45-stock/db/3")
        assert not benchmark_scoped.applies_to("i7_45-stock/mcf/3")

    def test_default_scope_matches_everything(self):
        spec = FaultSpec(kind="logger.gap", probability=0.5)
        assert spec.applies_to("anything/at/all")


class TestFaultPlan:
    def test_specs_for_stage(self):
        plan = demo_plan(0.1)
        assert {s.kind for s in plan.specs_for_stage("invocation")} == {
            "invocation.crash",
            "invocation.hang",
        }
        assert {s.kind for s in plan.specs_for_stage("logger")} == {
            "logger.disconnect",
            "logger.gap",
        }
        assert {s.kind for s in plan.specs_for_stage("sensor")} == {
            "sensor.glitch",
            "sensor.drift",
            "sensor.stuck",
        }
        assert {s.kind for s in plan.specs_for_stage("meter")} == {
            "meter.saturation"
        }

    def test_fail_stop_only(self):
        assert fail_stop_plan().fail_stop_only
        assert FaultPlan().fail_stop_only
        assert not demo_plan().fail_stop_only

    def test_taxonomy_is_partitioned(self):
        families = (
            FAIL_STOP_KINDS,
            CORRUPTING_KINDS,
            PROCESS_KINDS,
            COORDINATOR_KINDS,
        )
        for i, a in enumerate(families):
            for b in families[i + 1:]:
                assert set(a).isdisjoint(b)
        assert set(KNOWN_KINDS) == set().union(*map(set, families))

    def test_worker_kinds_are_fail_stop_safe(self):
        """Process-level faults never corrupt a completed sample — the
        requeued chunk re-measures from scratch — so a worker-kind plan
        qualifies for per-request service use."""
        assert worker_chaos_plan().fail_stop_only
        mixed = FaultPlan(
            specs=(
                FaultSpec(kind="worker.crash", probability=0.5),
                FaultSpec(kind="sensor.drift", probability=0.5),
            )
        )
        assert not mixed.fail_stop_only

    def test_chaos_plan_kills_first_dispatch_only(self):
        plan = worker_chaos_plan()
        (spec,) = plan.specs
        assert spec.kind == "worker.crash"
        assert spec.probability == 1.0
        assert spec.applies_to("fleet/0/0")
        assert spec.applies_to("fleet/7/0")
        assert not spec.applies_to("fleet/0/1")
        assert plan_from_arg("chaos") == plan

    def test_dict_round_trip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="invocation.crash", probability=0.02),
                FaultSpec(
                    kind="sensor.drift",
                    probability=0.1,
                    scope="i7_45*",
                    magnitude=80.0,
                ),
            ),
            seed="round-trip",
        )
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_json_round_trip(self, tmp_path):
        plan = demo_plan(0.07, seed="json")
        path = plan.to_json(tmp_path / "plan.json")
        assert FaultPlan.from_json(path) == plan

    def test_malformed_dict_rejected(self):
        with pytest.raises(ValueError, match="malformed fault plan"):
            FaultPlan.from_dict({"faults": [{"probability": 0.1}]})

    def test_plan_from_arg(self, tmp_path):
        assert plan_from_arg("demo") == demo_plan()
        assert plan_from_arg("ci") == fail_stop_plan()
        path = demo_plan(0.5, seed="file").to_json(tmp_path / "p.json")
        assert plan_from_arg(str(path)) == demo_plan(0.5, seed="file")

    def test_plan_from_arg_reads_one_table(self):
        for name, factory in CANNED_PLANS.items():
            assert plan_from_arg(name) == factory()
            assert plan_from_arg(name, paths=False) == factory()

    def test_inline_plans_only_without_paths(self, tmp_path):
        plan = demo_plan(0.5, seed="inline")
        assert plan_from_arg(plan.as_dict(), paths=False) == plan
        with pytest.raises(PlanError):
            plan_from_arg(plan.as_dict())
        path = str(plan.to_json(tmp_path / "p.json"))
        with pytest.raises(PlanError, match="inline plan object"):
            plan_from_arg(path, paths=False)

    @pytest.mark.parametrize("arg, paths", [
        ("/no/such/plan.json", True),
        ("nope", False),
        (5, False),
        ({"faults": [{"probability": 0.1}]}, False),
        ({"faults": "x"}, False),
    ])
    def test_bad_plans_raise_one_error_type(self, arg, paths):
        with pytest.raises(PlanError):
            plan_from_arg(arg, paths=paths)

    def test_plan_file_not_holding_an_object_is_refused(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(PlanError, match="malformed fault plan"):
            plan_from_arg(str(path))

    def test_canned_plans_cover_the_taxonomy(self):
        # demo is armable on a live server, so it excludes the kinds
        # that would kill (or wedge) the serving process itself.
        assert {s.kind for s in demo_plan().specs} == (
            set(KNOWN_KINDS) - set(COORDINATOR_KINDS)
        )
        assert {s.kind for s in fail_stop_plan().specs} == set(FAIL_STOP_KINDS)

    def test_coordinator_kinds_are_not_fail_stop_safe(self):
        """A per-request plan must never be able to kill the coordinator:
        retrying a request whose plan crashed the server cannot reproduce
        fault-free bytes (the server is gone)."""
        crash = FaultPlan(
            specs=(FaultSpec(kind="coordinator.crash", probability=0.1),)
        )
        stall = FaultPlan(
            specs=(FaultSpec(kind="coordinator.stall", probability=0.1),)
        )
        assert not crash.fail_stop_only
        assert not stall.fail_stop_only

    @pytest.mark.parametrize("phase", COORDINATOR_PHASES)
    def test_coordinator_crash_plan_scopes_one_phase(self, phase):
        plan = coordinator_crash_plan(phase)
        (spec,) = plan.specs
        assert spec.kind == "coordinator.crash"
        assert spec.probability == 1.0
        assert spec.applies_to(f"coordinator/{phase}/0")
        assert spec.applies_to(f"coordinator/{phase}/7")
        for other in COORDINATOR_PHASES:
            if other != phase:
                assert not spec.applies_to(f"coordinator/{other}/0")

    def test_coordinator_crash_plan_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown coordinator phase"):
            coordinator_crash_plan("teardown")

    def test_coordinator_stall_has_bounded_default_magnitude(self):
        spec = FaultSpec(kind="coordinator.stall", probability=1.0)
        assert 0.0 < spec.severity <= 1.0
