"""Deterministic fault injection into the measurement pipeline.

The injector is *ambient*: :func:`install` (or the :func:`injected`
context manager) arms a :class:`~repro.faults.plan.FaultPlan` for the
whole process, and each instrumented stage — the execution engine, the
Hall sensor, the 50 Hz logger, the power meter — asks the active injector
whether a fault fires at its *site* (the ``config/benchmark/invocation``
key).  With no injector installed every hook is a single ``None`` check,
so the fault layer costs nothing when disarmed.

Fault decisions are drawn from ``rng_for(kind/site/attempt)`` rooted at
the plan's seed: independent of the measurement noise streams (which are
rooted at the library seed and do **not** include the attempt), so

* the same plan reproduces the same failures run after run, and
* a retried invocation draws fresh fault dice but identical measurement
  noise — a recovered fail-stop fault yields the byte-identical result a
  fault-free campaign would have produced.

The ``attempt`` is threaded through a contextvar by the study's retry
loop rather than through every stage signature.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from repro.core.seeding import rng_for, run_key
from repro.faults.errors import (
    InvocationCrash,
    InvocationTimeout,
    LoggerDropout,
    MeterSaturation,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.metrics import default_registry

_REGISTRY = default_registry()
_INJECTED = _REGISTRY.counter(
    "repro_faults_injected_total",
    "Faults fired by the injector, by kind",
)

_ATTEMPT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro_faults_attempt", default=0
)

_SHIELDED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_faults_shielded", default=False
)


def current_attempt() -> int:
    """The retry attempt the surrounding harness is on (0 = first try)."""
    return _ATTEMPT.get()


@contextmanager
def attempt_scope(attempt: int) -> Iterator[None]:
    """Mark every fault decision inside the block as belonging to
    ``attempt`` — how the study's retry loop re-rolls the fault dice
    without perturbing measurement noise."""
    token = _ATTEMPT.set(attempt)
    try:
        yield
    finally:
        _ATTEMPT.reset(token)


class FaultInjector:
    """Evaluates one :class:`FaultPlan` against pipeline sites."""

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._invocation_specs = plan.specs_for_stage("invocation")
        self._sensor_specs = plan.specs_for_stage("sensor")
        self._logger_specs = plan.specs_for_stage("logger")
        self._meter_specs = plan.specs_for_stage("meter")
        self._worker_specs = plan.specs_for_stage("worker")
        self._coordinator_specs = plan.specs_for_stage("coordinator")

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    # -- decision core -------------------------------------------------------

    def _fires(self, spec: FaultSpec, site: str) -> bool:
        if spec.probability <= 0.0 or not spec.applies_to(site):
            return False
        rng = rng_for(
            run_key("fault", spec.kind, site, _ATTEMPT.get()),
            root=f"faultplan::{self._plan.seed}",
        )
        if rng.random() >= spec.probability:
            return False
        _INJECTED.labels(kind=spec.kind).inc()
        return True

    def _rng(self, kind: str, site: str) -> np.random.Generator:
        """Severity draws for a fault that already fired (separate stream
        from the fire/no-fire decision)."""
        return rng_for(
            run_key("fault-shape", kind, site, _ATTEMPT.get()),
            root=f"faultplan::{self._plan.seed}",
        )

    def may_fault_pair(
        self, config_key: str, benchmark_name: str, invocations: int
    ) -> bool:
        """Could any measurement-pipeline fault fire somewhere inside
        this pair's invocation loop?

        The compiled-kernel path (:mod:`repro.execution.kernels`) asks
        this before vectorising a pair: a pair with any *armed* site must
        take the scalar path, which walks the per-invocation hooks.  The
        check is conservative by scope, not by dice — it never draws RNG
        (so it cannot perturb fault decisions) and returns True whenever
        a positive-probability invocation/sensor/logger/meter spec's
        scope matches any of the pair's sites, whether or not the dice
        would actually fire.  Worker/coordinator specs are process-level
        and do not gate vectorisation.
        """
        specs = [
            spec
            for stage_specs in (
                self._invocation_specs,
                self._sensor_specs,
                self._logger_specs,
                self._meter_specs,
            )
            for spec in stage_specs
            if spec.probability > 0.0
        ]
        if not specs:
            return False
        return any(
            spec.applies_to(f"{config_key}/{benchmark_name}/{invocation}")
            for invocation in range(invocations)
            for spec in specs
        )

    # -- stage hooks ---------------------------------------------------------

    def check_invocation(self, site: str) -> None:
        """Engine hook: may abort the invocation before it runs."""
        for spec in self._invocation_specs:
            if not self._fires(spec, site):
                continue
            if spec.kind == "invocation.crash":
                raise InvocationCrash(
                    f"injected crash: invocation {site} died before completing",
                    site=site,
                )
            raise InvocationTimeout(
                f"injected hang: invocation {site} exceeded its timeout "
                f"budget after {spec.severity:g}s (simulated)",
                site=site,
                elapsed_s=spec.severity,
            )

    def check_worker(self, site: str) -> Optional[FaultSpec]:
        """Fleet hook: does a process-level fault fire for this dispatch?

        Unlike the pipeline hooks this one only *decides*; the worker
        loop enacts the spec (``os._exit`` for a crash, heartbeat
        silence for a hang/slow-down), because the injector cannot kill
        its own caller cleanly.  ``site`` is ``fleet/<chunk>/<attempt>``
        — the attempt lives in the site itself so a probability-1.0 spec
        scoped to attempt 0 fires exactly once per chunk."""
        for spec in self._worker_specs:
            if self._fires(spec, site):
                return spec
        return None

    def check_coordinator(self, site: str) -> Optional[FaultSpec]:
        """Coordinator hook: does a coordinator fault fire at this phase?

        Decide-only, like :meth:`check_worker` — the caller (via
        :func:`coordinator_fault_point`) enacts the spec, because a
        ``coordinator.crash`` is ``os._exit`` on the serving process and
        the injector cannot usefully unwind from that.  ``site`` is
        ``coordinator/<phase>/<ordinal>``."""
        for spec in self._coordinator_specs:
            if self._fires(spec, site):
                return spec
        return None

    def corrupt_sensor_codes(
        self, site: str, codes: np.ndarray, max_code: int
    ) -> np.ndarray:
        """Sensor hook: glitch bursts, drift ramps, stuck-at streams."""
        for spec in self._sensor_specs:
            if not self._fires(spec, site):
                continue
            if spec.kind == "sensor.stuck":
                codes = np.full_like(codes, codes[0])
                continue
            rng = self._rng(spec.kind, site)
            if spec.kind == "sensor.glitch":
                count = max(1, round(spec.severity * len(codes)))
                idx = rng.choice(len(codes), size=min(count, len(codes)),
                                 replace=False)
                spikes = rng.integers(0, 2, size=len(idx)) * max_code
                codes = codes.copy()
                codes[idx] = spikes
            elif spec.kind == "sensor.drift":
                ramp = np.rint(
                    np.linspace(0.0, spec.severity, num=len(codes))
                ).astype(codes.dtype)
                codes = np.clip(codes + ramp, 0, max_code)
        return codes

    def filter_logged_samples(
        self, site: str, times: np.ndarray, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Logger hook: sample gaps and mid-run disconnects."""
        for spec in self._logger_specs:
            if not self._fires(spec, site):
                continue
            if spec.kind == "logger.disconnect":
                logged_fraction = spec.severity
                raise LoggerDropout(
                    f"injected disconnect: logger left the bus after "
                    f"{logged_fraction:.0%} of run {site}; partial record "
                    "discarded",
                    site=site,
                )
            # logger.gap: a contiguous window of samples never arrives.
            fraction = min(max(spec.severity, 0.0), 1.0)
            lost = round(fraction * len(codes))
            if lost >= len(codes):
                raise LoggerDropout(
                    f"injected gap swallowed every sample of run {site}",
                    site=site,
                )
            if lost:
                rng = self._rng(spec.kind, site)
                start = int(rng.integers(0, len(codes) - lost + 1))
                keep = np.ones(len(codes), dtype=bool)
                keep[start:start + lost] = False
                times, codes = times[keep], codes[keep]
        return times, codes

    def saturate_meter_codes(
        self, site: str, codes: np.ndarray, rail_code: int
    ) -> np.ndarray:
        """Meter hook: a burst of samples pinned at the sensor rail."""
        for spec in self._meter_specs:
            if not self._fires(spec, site):
                continue
            fraction = min(max(spec.severity, 0.0), 1.0)
            burst = round(fraction * len(codes))
            if burst >= len(codes):
                raise MeterSaturation(
                    f"injected saturation railed every sample of run {site}",
                    site=site,
                )
            if burst:
                rng = self._rng(spec.kind, site)
                start = int(rng.integers(0, len(codes) - burst + 1))
                codes = codes.copy()
                codes[start:start + burst] = rail_code
        return codes


_ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The armed injector, or ``None`` (the common, zero-cost case, and
    always ``None`` inside a :func:`shielded` block)."""
    if _SHIELDED.get():
        return None
    return _ACTIVE


@contextmanager
def shielded() -> Iterator[None]:
    """Suppress fault injection for a block.

    Analytical paths that reuse the measurement machinery — reference
    energy derivation, sensor calibration sweeps — model the library's
    platonic baseline, not a run of the physical rig, so they must never
    draw fault dice (and must not *consume* dice that would change which
    campaign runs fail)."""
    token = _SHIELDED.set(True)
    try:
        yield
    finally:
        _SHIELDED.reset(token)


def install(plan: FaultPlan) -> FaultInjector:
    """Arm ``plan`` process-wide; returns the injector for inspection."""
    global _ACTIVE
    _ACTIVE = FaultInjector(plan)
    return _ACTIVE


def uninstall() -> None:
    """Disarm fault injection."""
    global _ACTIVE
    _ACTIVE = None


#: Exit status of a coordinator killed by an injected ``coordinator.crash``
#: — distinct from the fleet's worker crash code so the chaos harness can
#: tell "the server self-killed at the armed phase" from a worker death.
COORDINATOR_CRASH_EXIT_CODE = 86

#: Per-phase ordinal counters behind :func:`coordinator_fault_point`.
#: The ordinal makes each opportunity a distinct site (fresh dice), so a
#: probabilistic stall plan doesn't fire identically at every admit.
_COORDINATOR_ORDINALS: defaultdict[str, itertools.count] = defaultdict(itertools.count)


def coordinator_fault_point(phase: str) -> None:
    """Service hook: evaluate — and *enact* — coordinator faults at
    ``phase`` (one of ``admit``/``schedule``/``batch``/``store``).

    A ``coordinator.crash`` terminates the process immediately via
    ``os._exit`` (no flush, no atexit — the point is to model SIGKILL,
    so anything not already durable is lost); a ``coordinator.stall``
    sleeps for the spec's magnitude and then continues.  With no armed
    injector (or no coordinator specs) this is a ``None`` check plus a
    tuple scan — effectively free on the hot path."""
    injector = active()
    if injector is None or not injector._coordinator_specs:
        return
    site = f"coordinator/{phase}/{next(_COORDINATOR_ORDINALS[phase])}"
    spec = injector.check_coordinator(site)
    if spec is None:
        return
    if spec.kind == "coordinator.crash":
        print(
            f"repro: injected coordinator.crash at {site}; exiting "
            f"{COORDINATOR_CRASH_EXIT_CODE}",
            file=sys.stderr,
            flush=True,
        )
        os._exit(COORDINATOR_CRASH_EXIT_CODE)
    # coordinator.stall: wedge the phase, then carry on.
    time.sleep(max(spec.severity, 0.0))


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Arm ``plan`` for the duration of a block (restores the previous
    injector on exit, so tests can nest safely)."""
    global _ACTIVE
    previous = _ACTIVE
    injector = FaultInjector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
