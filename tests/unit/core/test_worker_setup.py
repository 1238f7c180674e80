"""Unit tests for the worker setup: what travels, and the worker-reuse
rule of the kept-alive pool.

A kept-alive :class:`~repro.core.executor.SweepPool` may serve a later
sweep only when the sweep's ``WorkerSetup`` equals the pool's.
"""

import gc
import multiprocessing
import pickle
import queue
from dataclasses import replace

import pytest

from repro.core import executor
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
        trace_enabled=False,
        vectorize=True,
    )


class TestCompatibleWith:
    def test_equal_setups_are_compatible(self, setup):
        assert setup == replace(setup)

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
        assert setup != replace(setup, **changes)

    def test_other_references_gate_reuse(self, setup, engine):
        from repro.core.normalization import References

        assert setup != replace(setup, references=References(engine))


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


def _freeze_count_after_start(setup, conn) -> None:
    """Forked-child body: start a worker that shuts down at once, then
    report how many objects the child's collector has frozen."""
    tasks = queue.Queue()
    tasks.put(None)
    executor._worker_main(0, setup, tasks, conn, 60.0)
    conn.send(gc.get_freeze_count())


class TestWorkerStartup:
    def test_forked_worker_freezes_the_heap_it_inherits(self, setup):
        """A forked worker's collections must not walk the parent's heap:
        a full one held the GIL, and so the heartbeats, for 0.2-0.3 s in
        a full test session."""
        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe()
        child = context.Process(
            target=_freeze_count_after_start, args=(setup, child_end)
        )
        child.start()
        try:
            assert parent_end.poll(30.0)
            assert parent_end.recv() > 0
        finally:
            child.join(timeout=30.0)
        assert not child.is_alive()
