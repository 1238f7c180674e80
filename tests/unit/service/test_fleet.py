"""The worker pool's unit tests live in tests/unit/core/test_sweep_pool.py,
beside :class:`repro.core.executor.SweepPool`.  They are imported here too
so the suite still reports them under this module's ids."""

from tests.unit.core.test_sweep_pool import (  # noqa: F401
    TestCrashLoopGiveUp,
    TestDegradedMode,
    TestLiveness,
    TestSpawnAndSnapshot,
    TestWorkerFaultDecision,
)
