"""Main-memory path model: miss latency and bandwidth saturation.

Two effects matter for the study.  First, an LLC miss costs a fixed wall
time, so its *cycle* cost grows with clock frequency — this is what makes
performance scale sub-linearly with clock (§3.3: doubling the clock buys
~80 %).  Second, the aggregate miss stream of many contexts can exceed the
platform's bandwidth (FSB parts especially), inflating effective latency —
this is what separates the i7's triple-channel DDR3 from the C2Q's shared
FSB when running scalable workloads.
"""

from __future__ import annotations

from repro.core.quantities import Hertz
from repro.hardware.processor import MemorySystem

#: Effective bytes moved per LLC miss: the 64-byte line plus writeback
#: and prefetch traffic it drags along on these platforms.
LINE_BYTES = 96


def miss_latency_cycles(memory: MemorySystem, clock: Hertz) -> float:
    """Core cycles one LLC miss costs at a given clock."""
    return memory.latency_ns * clock.ghz


def bandwidth_limit_ips(memory: MemorySystem, mpki: float) -> float:
    """Instruction throughput at which a miss stream fills the memory
    path completely."""
    if mpki < 0:
        raise ValueError("miss rate cannot be negative")
    if mpki == 0.0:
        return float("inf")
    return memory.bandwidth_gbs * 1e9 / (mpki / 1000.0 * LINE_BYTES)


def capped_throughput(
    unconstrained_ips: float, mpki: float, memory: MemorySystem
) -> float:
    """Instruction throughput after the memory path's bandwidth bites.

    A smooth saturating knee: ``T = U / (1 + (U/L)^2)^(1/2)`` where ``U``
    is the CPU-side throughput and ``L`` the bandwidth-limited ceiling.
    Far below the limit it is the identity; far above it clamps to ``L``;
    and it is strictly monotone in ``U`` — adding threads or clock can
    never *reduce* aggregate throughput, it only stops helping.
    """
    if unconstrained_ips < 0:
        raise ValueError("throughput cannot be negative")
    limit = bandwidth_limit_ips(memory, mpki)
    if limit == float("inf") or unconstrained_ips == 0.0:
        return unconstrained_ips
    x = unconstrained_ips / limit
    return unconstrained_ips / (1.0 + x * x) ** 0.5
