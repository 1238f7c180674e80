"""Simultaneous multithreading model (§3.2).

Two hardware threads on one core share issue slots: the second thread can
only convert otherwise-unused slots into work.  The pool SMT draws from is
the core's whole *utilisation gap* — explicit stalls (memory, branches,
dependencies) plus the issue bandwidth a single thread simply cannot fill
— so the core's aggregate throughput with two threads is::

    throughput_2T = throughput_1T * (1 + overlap * (1 - utilisation) - contention)

where ``utilisation`` is the single thread's attained IPC over peak issue
width, ``overlap`` is the implementation's ability to recover unused slots
(modest on the pioneering Pentium 4, strong on Nehalem and on the in-order
Atom), and ``contention`` is the tax of sharing queues, caches, and (on
NetBurst) the trace cache.

This reproduces Architecture Finding 2's counter-intuition: the dual-issue
in-order Atom gains *more* from SMT than the quad-issue out-of-order parts,
because a single thread leaves three quarters of its issue slots empty.
"""

from __future__ import annotations

from repro.execution.cpi import CpiBreakdown
from repro.hardware.microarch import Microarchitecture


def utilisation_gap(family: Microarchitecture, breakdown: CpiBreakdown) -> float:
    """Fraction of the core's issue slots a single thread leaves unused."""
    ipc = 1.0 / breakdown.total
    return max(1.0 - ipc / family.issue_width, 0.0)


def core_throughput_gain(
    family: Microarchitecture,
    breakdown: CpiBreakdown,
    extra_contention: float = 0.0,
) -> float:
    """Aggregate throughput multiplier of 2 threads vs 1 on one core.

    ``extra_contention`` adds workload-specific pressure (e.g. the JIT's
    code working set fighting NetBurst's trace cache).  The result is
    clamped at 1.0 from below: running a second thread never makes the
    *core* slower in aggregate on these parts, though it may approach
    break-even.
    """
    if extra_contention < 0:
        raise ValueError("contention cannot be negative")
    gain = family.smt_overlap * utilisation_gap(family, breakdown)
    loss = family.smt_contention + extra_contention
    return max(1.0 + gain - loss, 1.0)
