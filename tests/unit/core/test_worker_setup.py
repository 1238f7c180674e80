"""Unit tests for the worker setup: what travels, and the worker-reuse
rule of the kept-alive pool.

A kept-alive :class:`~repro.core.executor.SweepPool` may serve a later
sweep only when ``WorkerSetup.compatible_with`` accepts the sweep's
setup.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core.executor import WorkerSetup
from repro.faults.plan import fail_stop_plan
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import default_registry
from repro.workloads.catalog import benchmark


@pytest.fixture
def setup(references) -> WorkerSetup:
    return WorkerSetup(
        references=references,
        invocation_scale=0.2,
        retry=RetryPolicy(),
        metrics_enabled=True,
        fault_plan=None,
    )


class TestCompatibleWith:
    def test_equal_setups_are_compatible(self, setup):
        assert setup.compatible_with(replace(setup))

    def test_warm_start_hints_never_gate_reuse(self, setup):
        grown = replace(setup, kernels={"k": 1})
        assert setup.compatible_with(grown)

    @pytest.mark.parametrize(
        "changes",
        [
            {"invocation_scale": 1.0},
            {"retry": RetryPolicy(max_retries=8)},
            {"metrics_enabled": False},
            {"fault_plan": fail_stop_plan()},
            {"trace_enabled": True},
            {"vectorize": False},
        ],
        ids=lambda changes: next(iter(changes)),
    )
    def test_byte_or_telemetry_fields_gate_reuse(self, setup, changes):
        assert not setup.compatible_with(replace(setup, **changes))

    def test_other_references_gate_reuse(self, setup, engine):
        from repro.core.normalization import References

        assert not setup.compatible_with(
            replace(setup, references=References(engine))
        )


class TestShippedCalibration:
    def test_unpickled_setup_calibrates_without_probe_runs(self, setup):
        """The references' engine carries its instruction calibration
        through pickling, so a spawned worker never re-probes a benchmark
        the parent calibrated."""
        probes = default_registry().get("repro_engine_calibration_probes_total")
        bench = benchmark("mcf")
        expected = setup.references.engine.instructions_for(bench)
        shipped = pickle.loads(pickle.dumps(setup))
        probes_0 = probes.value
        assert shipped.references.engine.instructions_for(bench) == expected
        assert probes.value == probes_0
