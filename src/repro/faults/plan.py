"""Declarative, seeded fault plans.

A :class:`FaultPlan` says *what* can go wrong and *how often*; the
injector (:mod:`repro.faults.injector`) decides, deterministically, *when*
it actually does.  Every draw is keyed by ``(plan seed, fault kind, site,
attempt)`` through the same SHA-256 seeding the rest of the library uses,
so a plan reproduces the identical failure sequence on every run — the
property the paper's authors did *not* have when their physical rig
misbehaved.

Fault kinds (the taxonomy in :mod:`docs/robustness.md`):

========================  ====================================================
``invocation.crash``      the benchmark process dies before producing a run
``invocation.hang``       the invocation exceeds its timeout budget
``logger.disconnect``     the AVR stick drops off the USB bus mid-run
``logger.gap``            a contiguous window of samples is lost
``sensor.glitch``         isolated full-scale spikes in the code stream
``sensor.drift``          a slow additive ramp across the run's codes
``sensor.stuck``          the ADC reports one frozen code for the whole run
``meter.saturation``      a burst of samples pinned to the sensor rail
``worker.crash``          a sweep worker process dies mid-chunk
``worker.hang``           a sweep worker wedges and stops heartbeating
``worker.slow``           a sweep worker's heartbeats stall, then recover
``coordinator.crash``     the serving coordinator dies at a pipeline phase
``coordinator.stall``     the coordinator wedges briefly at a pipeline phase
========================  ====================================================

The first three are *fail-stop*: the run aborts and a retry re-measures
it from scratch (reproducing the fault-free result exactly, because
measurement noise is keyed by site alone while fault draws are keyed by
site *and* attempt).  The rest are *corrupting*: the run completes but
its samples are wrong, which is what the study's MAD outlier screen and
the meter's clamp telemetry exist to catch.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Mapping

#: Every kind the injector knows how to fire, by pipeline stage.
FAIL_STOP_KINDS = (
    "invocation.crash",
    "invocation.hang",
    "logger.disconnect",
)
CORRUPTING_KINDS = (
    "logger.gap",
    "sensor.glitch",
    "sensor.drift",
    "sensor.stuck",
    "meter.saturation",
)
#: Process-level faults against the workers of every parallel sweep.
#: They kill (or wedge) a whole worker process rather than one
#: invocation, so the :class:`~repro.core.executor.SweepPool` — not the
#: retry loop — recovers from them, by requeueing the in-flight chunk
#: onto a respawned worker; in-process sweeps never roll them.  Like the fail-stop
#: kinds they can never corrupt a completed sample: the replacement
#: worker re-measures the chunk from scratch with noise keyed by site
#: alone, reproducing the fault-free bytes.
PROCESS_KINDS = (
    "worker.crash",
    "worker.hang",
    "worker.slow",
)
#: Faults against the *coordinator* itself — the ``repro serve`` process
#: that owns the request journal.  A ``coordinator.crash`` fires
#: ``os._exit`` at a named pipeline phase (admit/schedule/batch/store);
#: a ``coordinator.stall`` wedges that phase for ``magnitude`` seconds.
#: Recovery is the journal's job, not a retry loop's: a restarted server
#: with ``--recover`` replays every journaled-but-unfinished request, so
#: these kinds are excluded from per-request plans (``fail_stop_only``)
#: and from the canned ``demo`` plan — arming one kills the process that
#: armed it.
COORDINATOR_KINDS = (
    "coordinator.crash",
    "coordinator.stall",
)
#: The pipeline phases at which the coordinator exposes a fault point
#: (sites are ``coordinator/<phase>/<ordinal>``).
COORDINATOR_PHASES = ("admit", "schedule", "batch", "store")
KNOWN_KINDS = FAIL_STOP_KINDS + CORRUPTING_KINDS + PROCESS_KINDS + COORDINATOR_KINDS

#: Default kind-specific magnitudes, in each kind's natural unit.
DEFAULT_MAGNITUDES: Mapping[str, float] = {
    "invocation.hang": 300.0,  # simulated seconds hung before giving up
    "logger.disconnect": 0.0,  # fraction of the run logged before the drop
    "logger.gap": 0.25,  # fraction of samples lost
    "sensor.glitch": 0.02,  # fraction of samples spiked
    "sensor.drift": 40.0,  # codes of ramp across the run
    "sensor.stuck": 0.0,  # unused (the stuck code is drawn per fault)
    "meter.saturation": 0.3,  # fraction of the run railed
    "worker.hang": 3600.0,  # seconds wedged (supervisor kills long before)
    "worker.slow": 1.0,  # seconds of heartbeat silence before recovering
    "coordinator.stall": 0.25,  # seconds the coordinator phase wedges
}


@dataclass(frozen=True)
class FaultSpec:
    """One kind of fault, how likely it is, and where it may fire.

    ``probability`` is per *opportunity* — one engine invocation for
    invocation faults, one logged run for sensor/logger/meter faults.
    ``scope`` is an ``fnmatch`` pattern over the site key
    (``config/benchmark/invocation``), so a spec can target one machine
    (``"i7_45*"``), one benchmark (``"*/db/*"``), or everything (``"*"``).
    ``magnitude`` overrides the kind's default severity.
    """

    kind: str
    probability: float
    scope: str = "*"
    magnitude: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KNOWN_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1]: {self.probability}")
        if self.magnitude is not None and not math.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite")

    @property
    def severity(self) -> float:
        if self.magnitude is not None:
            return self.magnitude
        return DEFAULT_MAGNITUDES.get(self.kind, 0.0)

    def applies_to(self, site: str) -> bool:
        return fnmatchcase(site, self.scope)

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"kind": self.kind, "probability": self.probability}
        if self.scope != "*":
            out["scope"] = self.scope
        if self.magnitude is not None:
            out["magnitude"] = self.magnitude
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible failure schedule for a whole campaign.

    ``seed`` re-rolls every fault decision at once without touching the
    measurement noise streams (they derive from the library root seed,
    not the plan's).
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: str = "faultplan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def specs_for_stage(self, stage: str) -> tuple[FaultSpec, ...]:
        """Specs whose kind lives in ``stage`` (the prefix before the dot)."""
        return tuple(s for s in self.specs if s.kind.split(".")[0] == stage)

    @property
    def fingerprint(self) -> str:
        """Stable short digest of the plan's *content* (seed and specs).

        Two plans with the same fingerprint produce the same fault
        decisions at every site, so the fingerprint is the right identity
        for anything that must not mix results across plans: checkpoint
        compatibility sidecars and the campaign server's coalescing keys
        both use it."""
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    @property
    def fail_stop_only(self) -> bool:
        """True when no spec can corrupt a completed run's samples —
        the regime in which retries reproduce fault-free results exactly.
        Worker-process faults qualify: a killed worker's chunk is
        requeued and re-measured whole, never merged partially."""
        allowed = FAIL_STOP_KINDS + PROCESS_KINDS
        return all(s.kind in allowed for s in self.specs)

    def as_dict(self) -> dict[str, object]:
        return {"seed": self.seed, "faults": [s.as_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        try:
            raw_specs = data.get("faults", ())
            specs = tuple(
                FaultSpec(
                    kind=str(entry["kind"]),
                    probability=float(entry["probability"]),
                    scope=str(entry.get("scope", "*")),
                    magnitude=(
                        float(entry["magnitude"])
                        if entry.get("magnitude") is not None
                        else None
                    ),
                )
                for entry in raw_specs  # type: ignore[union-attr]
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed fault plan: {exc}") from exc
        return cls(specs=specs, seed=str(data.get("seed", "faultplan")))

    @classmethod
    def from_json(cls, path: str | Path) -> "FaultPlan":
        with Path(path).open("r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path: str | Path) -> Path:
        out = Path(path)
        out.write_text(json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8")
        return out


def demo_plan(probability: float = 0.05, seed: str = "demo") -> FaultPlan:
    """A plan that exercises every stage — crashes, hangs, disconnects,
    gaps, glitches, drift, and saturation bursts — at ``probability``.

    Coordinator kinds are deliberately excluded: ``demo`` is meant to be
    armable on a live ``repro serve`` process, and a coordinator fault
    would kill (or wedge) the very process serving the requests."""
    kinds = tuple(k for k in KNOWN_KINDS if k not in COORDINATOR_KINDS)
    return FaultPlan(
        specs=tuple(FaultSpec(kind=kind, probability=probability) for kind in kinds),
        seed=seed,
    )


def fail_stop_plan(probability: float = 0.02, seed: str = "ci") -> FaultPlan:
    """Fail-stop faults only: safe to run under golden-value test suites,
    because every retried run reproduces its fault-free measurement."""
    return FaultPlan(
        specs=tuple(
            FaultSpec(kind=kind, probability=probability) for kind in FAIL_STOP_KINDS
        ),
        seed=seed,
    )


def worker_chaos_plan(seed: str = "chaos") -> FaultPlan:
    """Kill every fleet worker on its *first* chunk dispatch.

    The scope ``fleet/*/0`` matches attempt 0 of every chunk, so each
    chunk's first assignee crashes deterministically and the attempt-1
    requeue (fresh site, fresh dice) succeeds — guaranteeing at least
    one crash + respawn per parallel sweep while the merged bytes stay
    identical to a clean run."""
    return FaultPlan(
        specs=(FaultSpec(kind="worker.crash", probability=1.0, scope="fleet/*/0"),),
        seed=seed,
    )


def coordinator_crash_plan(phase: str = "batch", seed: str = "coordinator") -> FaultPlan:
    """Kill the coordinator the first time it reaches ``phase``.

    The scope ``coordinator/<phase>/*`` matches every ordinal at that
    phase, so with probability 1.0 the first opportunity fires.  The
    chaos harness arms this on one server incarnation only — the
    ``--recover`` restart runs without it, so recovery completes instead
    of crash-looping."""
    if phase not in COORDINATOR_PHASES:
        raise ValueError(
            f"unknown coordinator phase {phase!r}; "
            f"known: {', '.join(COORDINATOR_PHASES)}"
        )
    return FaultPlan(
        specs=(
            FaultSpec(
                kind="coordinator.crash",
                probability=1.0,
                scope=f"coordinator/{phase}/*",
            ),
        ),
        seed=seed,
    )


#: The canned plans by name, for every door that arms a plan.
CANNED_PLANS = {"demo": demo_plan, "ci": fail_stop_plan, "chaos": worker_chaos_plan}


class PlanError(ValueError):
    """A plan argument that names no canned plan and holds no valid plan."""


def plan_from_arg(arg: object, *, paths: bool = True) -> FaultPlan:
    """A canned plan's name, or else a JSON plan file path with ``paths``
    (``--inject``, ``REPRO_FAULT_PLAN``) and an inline plan object
    without (``POST /measure``: request data must not reach the
    filesystem).  Every failure is a :class:`PlanError`."""
    if isinstance(arg, str) and arg in CANNED_PLANS:
        return CANNED_PLANS[arg]()
    try:
        if paths and isinstance(arg, str):
            return FaultPlan.from_json(arg)
        if not paths and isinstance(arg, dict):
            return FaultPlan.from_dict(arg)
    except (OSError, ValueError) as exc:
        raise PlanError(f"invalid fault plan: {exc}") from exc
    own = "a JSON plan path" if paths else "an inline plan object"
    names = ", ".join(map(repr, CANNED_PLANS))
    raise PlanError(f"unknown plan {arg!r}: use {names}, or {own}")
