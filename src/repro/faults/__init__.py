"""Fault injection and recovery for the measurement campaign.

The paper's dataset survived a rig that really failed — sensors drifted,
the AVR logging stick dropped samples, JVM invocations crashed and hung —
because the authors quietly re-ran things.  This package makes both
halves of that story explicit and reproducible:

* :mod:`repro.faults.errors` — the typed failure taxonomy
  (:class:`MeasurementError` and its per-stage subclasses);
* :mod:`repro.faults.plan` — declarative, seeded :class:`FaultPlan`
  schedules (what can fail, how often, where);
* :mod:`repro.faults.injector` — the ambient injector the engine, logger,
  and meter consult; deterministic per (seed, kind, site, attempt);
* :mod:`repro.faults.retry` — the :class:`RetryPolicy` the study uses to
  survive it all (bounded retries, timeout budgets, MAD outlier
  re-measurement).

See ``docs/robustness.md`` for the full taxonomy and semantics.
"""

from repro.faults.errors import (
    CheckpointError,
    InvocationCrash,
    InvocationTimeout,
    LoggerDropout,
    MeasurementError,
    MeterSaturation,
    RetriesExhausted,
    SensorFault,
)
from repro.faults.injector import (
    COORDINATOR_CRASH_EXIT_CODE,
    FaultInjector,
    active,
    attempt_scope,
    coordinator_fault_point,
    current_attempt,
    injected,
    install,
    shielded,
    uninstall,
)
from repro.faults.plan import (
    COORDINATOR_KINDS,
    COORDINATOR_PHASES,
    CORRUPTING_KINDS,
    FAIL_STOP_KINDS,
    KNOWN_KINDS,
    FaultPlan,
    FaultSpec,
    coordinator_crash_plan,
    demo_plan,
    fail_stop_plan,
    plan_from_arg,
)
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "COORDINATOR_CRASH_EXIT_CODE",
    "COORDINATOR_KINDS",
    "COORDINATOR_PHASES",
    "CORRUPTING_KINDS",
    "CheckpointError",
    "DEFAULT_RETRY_POLICY",
    "FAIL_STOP_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InvocationCrash",
    "InvocationTimeout",
    "KNOWN_KINDS",
    "LoggerDropout",
    "MeasurementError",
    "MeterSaturation",
    "RetriesExhausted",
    "RetryPolicy",
    "SensorFault",
    "active",
    "attempt_scope",
    "coordinator_crash_plan",
    "coordinator_fault_point",
    "current_attempt",
    "demo_plan",
    "fail_stop_plan",
    "injected",
    "install",
    "plan_from_arg",
    "shielded",
    "uninstall",
]
