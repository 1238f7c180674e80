"""Unit tests for execution plans: one plan per pair, replayed.

A plan is the deterministic skeleton of a (benchmark, configuration,
iteration) execution; only the per-invocation noise scalars are applied
on replay.  The engine keeps no plan cache: a pair measurement builds
its plan once and replays it for every invocation and re-measure.  The
contract is bit-identity: a replayed execution must equal — float for
float — the one a cold engine builds from scratch, or the goldens (and
the parallel executor's byte-identity guarantee) silently drift.
"""

import pickle

from repro.core.normalization import References
from repro.core.study import Study
from repro.execution.engine import ExecutionEngine
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.obs.metrics import default_registry
from repro.workloads.catalog import benchmark

CLEAN = FaultPlan()


def _phase_tuple(execution):
    return [
        (
            p.name,
            p.seconds,
            p.busy_cores,
            p.utilisation,
            p.frequency,
            p.turbo,
            p.power,
        )
        for p in execution.phases
    ]


def _assert_bit_identical(a, b):
    assert b.seconds.value == a.seconds.value
    assert _phase_tuple(b) == _phase_tuple(a)
    assert b.events == a.events


def _count_plans(monkeypatch) -> list:
    """Record every ``execution_plan`` call as ``(benchmark, config key)``."""
    calls = []
    build = ExecutionEngine.execution_plan

    def counted(self, benchmark, config, iteration=None):
        calls.append((benchmark.name, config.key))
        return build(self, benchmark, config, iteration)

    monkeypatch.setattr(ExecutionEngine, "execution_plan", counted)
    return calls


class TestPlanCacheBitIdentity:
    def test_replay_matches_cold_engine_managed(self):
        """A managed benchmark (JVM plan, warm-up curve): one plan
        replayed across invocations equals a cold engine's ``execute``
        of each invocation."""
        bench = benchmark("eclipse")
        config = stock(CORE_I7_45)
        with injected(CLEAN):
            plan = ExecutionEngine().execution_plan(bench, config)
            for invocation in range(3):
                replay = ExecutionEngine().replay(plan, invocation)
                cold = ExecutionEngine().execute(
                    bench, config, invocation=invocation
                )
                _assert_bit_identical(cold, replay)

    def test_replay_matches_cold_engine_native(self):
        bench = benchmark("mcf")
        config = stock(ATOM_45)
        with injected(CLEAN):
            engine = ExecutionEngine()
            plan = engine.execution_plan(bench, config)
            for invocation in range(3):
                cold = ExecutionEngine().execute(
                    bench, config, invocation=invocation
                )
                _assert_bit_identical(cold, engine.replay(plan, invocation))

    def test_invocations_share_a_plan_but_not_noise(
        self, references, monkeypatch
    ):
        """The scalar loop builds one plan per pair and replays it for
        every invocation and every MAD re-measure, with distinct noise."""
        drift = FaultPlan(
            specs=(
                FaultSpec(
                    kind="sensor.drift",
                    probability=1.0,
                    scope="*/db/0",
                    magnitude=400.0,
                ),
            )
        )
        study = Study(
            references=references,
            invocation_scale=0.2,
            vectorize=False,
            retry=RetryPolicy(outlier_threshold=3.5, max_remeasures=2),
        )
        db, mcf = benchmark("db"), benchmark("mcf")
        config = stock(CORE_I7_45)
        calls = _count_plans(monkeypatch)
        with injected(drift):
            results = study.run((config,), (db, mcf))
        assert results.health.remeasured_outliers == 1
        assert calls == [("db", config.key), ("mcf", config.key)]
        with injected(CLEAN):
            engine = references.engine
            plan = engine.execution_plan(db, config)
            runs = [engine.replay(plan, i) for i in range(4)]
        assert len({run.seconds.value for run in runs}) == len(runs)

    def test_cold_sweep_builds_one_plan_per_measured_pair(self, monkeypatch):
        """A cold compiled sweep builds each pair's plan once, in the
        kernel compiler; a repeated sweep of cached pairs builds none."""
        study = Study(
            references=References(ExecutionEngine()),
            invocation_scale=0.2,
            vectorize=True,
        )
        benches = (benchmark("db"), benchmark("mcf"))
        configs = (stock(CORE_I7_45), stock(ATOM_45))
        calls = _count_plans(monkeypatch)
        with injected(CLEAN):
            study.run(configs, benches)
            study.run(configs, benches)
        assert sorted(calls) == sorted(
            (b.name, c.key) for b in benches for c in configs
        )


class TestEnginePickling:
    def test_calibration_travels_but_plans_rebuild(self):
        bench = benchmark("lusearch")
        config = stock(ATOM_45)
        with injected(CLEAN):
            parent = ExecutionEngine()
            expected = parent.execute(bench, config, invocation=1)
            worker = pickle.loads(pickle.dumps(parent))
            assert worker._instruction_cache == parent._instruction_cache
            _assert_bit_identical(expected, worker.execute(
                bench, config, invocation=1
            ))

    def test_unpickled_engine_skips_probe_runs(self):
        registry = default_registry()
        probes = registry.get("repro_engine_calibration_probes_total")
        bench = benchmark("mcf")
        with injected(CLEAN):
            donor = ExecutionEngine()
            expected = donor.instructions_for(bench)
            shipped = pickle.loads(pickle.dumps(donor))
            probes_0 = probes.value
            assert shipped.instructions_for(bench) == expected
        assert probes.value == probes_0
