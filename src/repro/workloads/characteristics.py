"""Behavioural signatures of workloads.

The execution model reduces a benchmark to the handful of rates that
determine time and power on a given processor configuration:

* exploitable instruction-level parallelism (ILP),
* branch and LLC miss rates (the latter quoted at a 4 MB reference LLC),
* cache-relevant working-set footprint,
* intrinsic switching activity (power hunger),
* software parallelism: thread count, Amdahl parallel fraction, and
  synchronisation overhead.

Signature values are set from the paper's own reported data points where
available (Table 1 reference times, Fig. 1/6 scalability, §2.5 power
extremes) and from the public characterisation literature for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, slots=True)
class WorkloadCharacter:
    """Architecture-independent behavioural signature of one benchmark."""

    #: Exploitable instruction-level parallelism (sustainable superscalar
    #: issue for this instruction stream on an ideal machine).
    ilp: float
    #: Branch mispredictions per kilo-instruction.
    branch_mpki: float
    #: LLC misses per kilo-instruction at the 4 MB reference LLC.
    memory_mpki: float
    #: Cache-relevant working set in megabytes.
    footprint_mb: float
    #: Intrinsic switching activity, ~1.0 nominal; FP-dense code higher,
    #: pointer chasing lower.  Drives per-benchmark power diversity (§2.7).
    activity: float = 1.0
    #: Amdahl parallel fraction; 0.0 for a single-threaded program.
    parallel_fraction: float = 0.0
    #: Per-extra-context synchronisation overhead (fraction of run time).
    sync_overhead: float = 0.004
    #: Software threads the program offers.  ``None`` means "as many as
    #: there are hardware contexts" (the scalable suites' behaviour).
    software_threads: Optional[int] = 1
    #: DTLB misses per kilo-instruction (correlates with memory behaviour).
    dtlb_mpki: float = 0.0

    def __post_init__(self) -> None:
        if self.ilp < 1.0:
            raise ValueError("ILP below 1.0 is not meaningful")
        if min(self.branch_mpki, self.memory_mpki, self.footprint_mb) < 0:
            raise ValueError("rates and footprint cannot be negative")
        if self.activity <= 0:
            raise ValueError("activity must be positive")
        if not 0.0 <= self.parallel_fraction < 1.0:
            raise ValueError("parallel fraction must be in [0, 1)")
        if self.sync_overhead < 0:
            raise ValueError("sync overhead cannot be negative")
        if self.software_threads is not None and self.software_threads < 1:
            raise ValueError("software thread count must be >= 1")
        if self.dtlb_mpki == 0.0:
            # DTLB pressure tracks LLC pressure when not stated explicitly.
            object.__setattr__(self, "dtlb_mpki", 0.8 * self.memory_mpki)

    def threads_on(self, hardware_contexts: int) -> int:
        """Software threads the program runs with ``hardware_contexts``."""
        if hardware_contexts < 1:
            raise ValueError("hardware context count must be >= 1")
        if self.software_threads is None:
            return hardware_contexts
        return self.software_threads


@dataclass(frozen=True, slots=True)
class JvmBehavior:
    """Managed-runtime signature of a Java benchmark (§2.2, §3.1).

    ``service_fraction`` is the JVM's own work (GC, JIT compilation,
    profiling) as a fraction of application work at steady state.
    ``displacement_mpki_factor`` inflates the application's memory miss
    rates when runtime services share its hardware context — the mechanism
    behind Workload Finding 1 (antlr spends up to 50 % of its time in the
    JVM; db's DTLB misses fall 2.5x given a second core).
    """

    service_fraction: float
    displacement_mpki_factor: float = 1.15
    #: Run-to-run coefficient of variation from adaptive JIT + GC timing.
    variability: float = 0.03
    #: Pressure the JIT's code working set puts on shared front-end
    #: resources when services run on an SMT sibling (hurts NetBurst's
    #: trace cache; Workload Finding 2).
    code_pressure: float = 0.75
    #: Parallel GC threads the collector will use given spare contexts.
    gc_threads: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.service_fraction < 1.0:
            raise ValueError("service fraction must be in [0, 1)")
        if self.displacement_mpki_factor < 1.0:
            raise ValueError("displacement factor cannot shrink miss rates")
        if self.variability < 0:
            raise ValueError("variability cannot be negative")
        if self.code_pressure < 0:
            raise ValueError("code pressure cannot be negative")
        if self.gc_threads < 1:
            raise ValueError("GC thread count must be >= 1")
