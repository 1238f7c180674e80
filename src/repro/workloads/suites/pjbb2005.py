"""pjbb2005: fixed-workload transaction processing (§2.1).

A variant of SPECjbb2005 that holds the workload constant (8 warehouses,
10,000 transactions per warehouse) instead of running for fixed time, so
execution time is a meaningful metric.  Multithreaded, but it does not
scale well on eight contexts (Fig. 1 places it around 2.2x), so it belongs
to Java Non-scalable.
"""

from __future__ import annotations

from repro.workloads.benchmark import Benchmark, Group, Suite
from repro.workloads.characteristics import JvmBehavior, WorkloadCharacter

WAREHOUSES = 8

PJBB2005 = Benchmark(
    name="pjbb2005",
    suite=Suite.PJBB2005,
    group=Group.JAVA_NONSCALABLE,
    description="Transaction processing, based on SPECjbb2005",
    reference_seconds=10.6,
    character=WorkloadCharacter(
        ilp=1.5,
        branch_mpki=2.5,
        memory_mpki=3.0,
        footprint_mb=64,
        activity=1.00,
        parallel_fraction=0.62,
        software_threads=WAREHOUSES,
        sync_overhead=0.010,
    ),
    jvm=JvmBehavior(service_fraction=0.10, displacement_mpki_factor=1.15,
                    gc_threads=4),
)

BENCHMARKS: tuple[Benchmark, ...] = (PJBB2005,)
