"""The four microarchitectures of the study (§2.4, Table 3).

NetBurst (Pentium 4), Core (Conroe/Kentsfield/Wolfdale), Bonnell
(Diamondville/Pineview Atoms), and Nehalem (Bloomfield/Clarkdale).  Each is
described by the structural parameters the execution and power models
consume.  The parameters are drawn from public microarchitecture facts; a
single per-family efficiency factor is calibrated so that clock-matched
cross-family performance ratios land near the paper's (e.g. Nehalem ~2.6x
NetBurst, ~1.14x Core; Architecture Finding 6).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Microarchitecture:
    """Structural description of a processor family."""

    name: str
    #: Peak instructions issued per cycle.
    issue_width: int
    out_of_order: bool
    #: Integer pipeline depth; deeper pipelines pay more per branch miss.
    pipeline_depth: int
    #: Fraction of peak issue width a typical instruction stream sustains,
    #: before memory stalls.  Captures scheduler/ROB quality; calibrated.
    issue_efficiency: float
    #: Fraction of an LLC-miss latency an out-of-order window can overlap
    #: with useful work (0 for a blocking in-order machine).
    miss_overlap: float
    #: Quality of the SMT implementation: fraction of otherwise-stalled
    #: issue slots a second hardware thread can recover (§3.2).
    smt_overlap: float
    #: Throughput tax each SMT thread pays for sharing core resources.
    smt_contention: float
    #: Dynamic energy per instruction relative to Core at the same node and
    #: voltage (NetBurst's replay/trace-cache machinery is power hungry;
    #: Bonnell is austere).
    epi_factor: float
    #: Front-end throughput tax on JIT-compiled code.  NetBurst's trace
    #: cache copes poorly with the JIT's large, frequently-replaced code
    #: working sets (the mechanism behind Workload Finding 2).
    jit_code_penalty: float = 0.0
    #: Extra core switching power when both hardware threads are active
    #: (the second thread's architectural state and duplicated queues stay
    #: hot); fraction of core active power.
    smt_power_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue width must be at least 1")
        if not 0.0 < self.issue_efficiency <= 1.0:
            raise ValueError("issue efficiency must be in (0, 1]")
        for field in ("miss_overlap", "smt_overlap", "smt_contention"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be in [0, 1]")

    def branch_penalty_cycles(self) -> float:
        """Cycles lost per mispredicted branch (refill the pipeline)."""
        return float(self.pipeline_depth)


#: 2000-2004 era: deep 20+ stage pipeline chasing clock, trace cache,
#: first commercial SMT ("Hyper-Threading") with limited slot recovery.
NETBURST = Microarchitecture(
    name="NetBurst",
    issue_width=3,
    out_of_order=True,
    pipeline_depth=26,
    issue_efficiency=0.32,
    miss_overlap=0.15,
    smt_overlap=0.50,
    smt_contention=0.09,
    epi_factor=2.30,
    jit_code_penalty=0.06,
    smt_power_overhead=0.10,
)

#: 2006-2009 era: wide (4-issue) out-of-order, short pipeline, the design
#: point the paper's mid-range machines share.
CORE = Microarchitecture(
    name="Core",
    issue_width=4,
    out_of_order=True,
    pipeline_depth=14,
    issue_efficiency=0.72,
    miss_overlap=0.50,
    smt_overlap=0.0,  # no SMT product in this family in the study
    smt_contention=0.0,
    epi_factor=1.00,
)

#: Atom line: dual-issue in-order with a comparatively deep 16-stage
#: pipeline and small caches - lots of stall slots for SMT to fill (§3.2).
BONNELL = Microarchitecture(
    name="Bonnell",
    issue_width=2,
    out_of_order=False,
    pipeline_depth=16,
    issue_efficiency=0.46,
    miss_overlap=0.02,
    smt_overlap=0.90,
    smt_contention=0.04,
    epi_factor=0.62,
    smt_power_overhead=0.15,
)

#: Nehalem: Core's successor; similar core IPC (+~14% with memory system
#: gains), reintroduced SMT with a mature implementation, on-die memory
#: controller.
NEHALEM = Microarchitecture(
    name="Nehalem",
    issue_width=4,
    out_of_order=True,
    pipeline_depth=16,
    issue_efficiency=0.78,
    miss_overlap=0.65,
    smt_overlap=0.52,
    smt_contention=0.03,
    epi_factor=1.05,
    smt_power_overhead=0.25,
)
