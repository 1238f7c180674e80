"""Cycles-per-instruction model.

A thread's CPI decomposes into:

* **base** — the reciprocal of attained issue rate: the lesser of what the
  front-end can sustain (issue width x issue efficiency x platform factor)
  and what the instruction stream offers (toolchain-adjusted ILP);
* **dependency** — in-order machines stall on scheduling hazards an
  out-of-order window would hide (Bonnell's hallmark);
* **branch** — mispredictions x pipeline refill;
* **memory** — LLC misses x effective miss latency, partially overlapped
  by the out-of-order window and inflated under bandwidth saturation.

The stall components are exactly what SMT recovers (§3.2), so the
breakdown is kept rather than collapsed to a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hardware.caches import resolve_mpki
from repro.hardware.config import Configuration
from repro.hardware.memory import miss_latency_cycles
from repro.core.quantities import Hertz
from repro.native.compiler import Toolchain, effective_ilp
from repro.workloads.characteristics import WorkloadCharacter

#: In-order dependency stalls as a fraction of base issue time, per unit
#: of workload ILP: the more independent work a stream offers, the more an
#: in-order pipeline leaves on the table relative to an OoO window.
INORDER_DEPENDENCY_BASE = 0.15
INORDER_DEPENDENCY_PER_ILP = 0.18


@dataclass(frozen=True, slots=True)
class CpiBreakdown:
    """Per-thread cycles per instruction, by cause."""

    base: float
    dependency: float
    branch: float
    memory: float
    #: Resolved LLC misses per kilo-instruction (drives events and
    #: bandwidth demand).
    mpki: float

    @property
    def total(self) -> float:
        return self.base + self.dependency + self.branch + self.memory

    @property
    def stall_fraction(self) -> float:
        """Fraction of cycles lost to stalls — the slots SMT can fill."""
        return (self.dependency + self.branch + self.memory) / self.total

    def with_memory_inflation(self, inflation: float) -> "CpiBreakdown":
        """Scale the memory stall component (bandwidth queueing)."""
        if inflation < 1.0:
            raise ValueError("inflation cannot shrink stalls")
        return replace(self, memory=self.memory * inflation)


def thread_cpi(
    character: WorkloadCharacter,
    config: Configuration,
    toolchain: Toolchain,
    frequency: Hertz,
    mpki_factor: float = 1.0,
    llc_sharing_contexts: int = 1,
) -> CpiBreakdown:
    """CPI of one thread of ``character`` on ``config`` at ``frequency``.

    ``mpki_factor`` carries runtime effects (GC displacement);
    ``llc_sharing_contexts`` is how many software threads compete for the
    LLC.  ``frequency`` is passed explicitly because Turbo Boost can move
    it above the configured clock.
    """
    spec = config.spec
    family = spec.family

    front_end = family.issue_width * family.issue_efficiency * spec.platform_efficiency
    stream = effective_ilp(toolchain, character.ilp)
    attained = min(front_end, stream)
    if toolchain is Toolchain.JIT:
        attained /= 1.0 + family.jit_code_penalty
    base = 1.0 / attained

    if family.out_of_order:
        dependency = 0.0
    else:
        dependency = base * (
            INORDER_DEPENDENCY_BASE + INORDER_DEPENDENCY_PER_ILP * character.ilp
        )

    branch = character.branch_mpki / 1000.0 * family.branch_penalty_cycles()

    cache = resolve_mpki(
        character.memory_mpki * mpki_factor,
        character.footprint_mb,
        config,
        sharing_contexts=llc_sharing_contexts,
    )
    latency = miss_latency_cycles(spec.memory, frequency)
    exposed = latency * (1.0 - family.miss_overlap)
    memory = cache.mpki / 1000.0 * exposed

    return CpiBreakdown(
        base=base,
        dependency=dependency,
        branch=branch,
        memory=memory,
        mpki=cache.mpki,
    )


def issue_utilisation(breakdown: CpiBreakdown, config: Configuration) -> float:
    """Attained IPC over peak issue width, for the power model's
    switching estimate."""
    ipc = 1.0 / breakdown.total
    return min(ipc / config.spec.family.issue_width, 1.0)
