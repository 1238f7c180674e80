"""Host-speed reference: a fixed pure-Python loop timed beside the workloads.

On a shared 2-vCPU host the CPU runs in speed regimes that last minutes:
in a fast one this loop takes about 6.5 ms and a cold campaign 3.6 s; in
a slow one the loop takes 9-14 ms and the campaign 6-9 s.  Within a
regime each vCPU flickers, for seconds at a time and independently of
the other, between two speeds about 1.4x apart.  Timings are therefore
scaled to a nominal host speed::

    scaled = raw * (nominal / ref_now) ** SENSITIVITY

``ref_now`` is the mean of reference passes timed where and when the
workload runs: by a :class:`Sampler` on the CPU a single-threaded
measured process is pinned to, or in blocks between stretches of work
that keeps both CPUs busy, while nothing else runs (timed next to a
busy process on the other CPU, the loop mostly measures its neighbour).
The mean, not the median, because the workloads feel the share of time
the host spent in its slow phase, and the median of a two-speed mix
jumps from one speed to the other as that share crosses one half.  The
loop is pinned — it must not change with the program under test, or the
scale would absorb real gains.

Work that keeps both vCPUs busy also loses time the hypervisor steals
(``/proc/stat``), which the loop, timed while one vCPU idles, hardly
sees: :func:`steal_scale` takes it out.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: Iterations of the reference loop; 7-12 ms on the 2-vCPU host the
#: benchmark was tuned on.
REF_ITERATIONS = 100_000

#: The loop's time on a nominal host.  Scaled figures read as if the
#: run had taken place on a host where the loop takes this long.
REF_NOMINAL_MS = 10.0

#: How much faster than the loop the workloads slow down.  From the fast
#: regime (loop 6.5 ms) to the slow one (loop 12-14 ms) every workload
#: slowed 2.1-2.4x while the loop slowed 1.85-2.1x; fitted log-log
#: slopes were 1.4 (campaign), 1.2 (one-configuration sweeps), 1.2
#: (serve), 1.3 (set-up).  Across regimes 1.3 keeps a campaign's figures
#: several times steadier than 1.0 does; within one regime the two are
#: about equal (see README.md, "Host speed and noise").
SENSITIVITY = 1.3

#: The loop's time on a nominal host while it shares one CPU with one
#: busy process, as a :class:`Sampler`'s passes do: the scheduler gives
#: each of the two half the CPU.
REF_SHARED_NOMINAL_MS = 2 * REF_NOMINAL_MS

#: Passes in one block between stretches of work (about 0.2-0.3 s).
BLOCK_PASSES = 25

#: Seconds between a :class:`Sampler`'s passes.
SAMPLE_PERIOD_S = 0.5

#: How a share ``s`` of stolen CPU time (``/proc/stat`` steal: time the
#: hypervisor ran something else on one of this VM's vCPUs) slows work
#: that needs both vCPUs at once: it progresses only while neither is
#: stolen, ``(1 - s) ** 2`` of the time.  Over 30 stretches of `serve`
#: traffic its throughput fell as ``exp(-2.3 s)`` and correlated -0.77
#: with ``s``, and -0.23 with the reference loop, which runs while one
#: vCPU is idle and is rarely stolen from.
STEAL_SENSITIVITY = 2


def reference_loop_ms(iterations: int = REF_ITERATIONS) -> float:
    """Time one pass of the fixed reference loop, in milliseconds."""
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += (i * i) % 7
    return (time.perf_counter() - started) * 1000.0


def reference_block(passes: int = BLOCK_PASSES) -> list[float]:
    """``passes`` back-to-back reference loops, in milliseconds."""
    return [reference_loop_ms() for _ in range(passes)]


def run_reference_ms(passes: list[float]) -> float:
    """The run's host speed: the mean of all its reference passes."""
    return statistics.fmean(passes)


def scale(raw: float, ref_ms: float, nominal_ms: float = REF_NOMINAL_MS) -> float:
    """``raw`` (a time) rescaled to the nominal host speed."""
    return raw * (nominal_ms / ref_ms) ** SENSITIVITY


def cpu_ticks() -> list[int]:
    """The VM's aggregate CPU time counters, from ``/proc/stat``."""
    with open("/proc/stat") as stat:
        return [int(value) for value in stat.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """The share of CPU time stolen from the VM between two readings."""
    # user, nice, system, idle, iowait, irq, softirq, steal; guest time
    # is already counted in user.
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total else 0.0


def steal_scale(raw: float, steal: float) -> float:
    """``raw`` (a time of work that needs both vCPUs) without the share
    ``steal`` the hypervisor took."""
    return raw * (1.0 - steal) ** STEAL_SENSITIVITY


def measured_cpu() -> int:
    """The CPU a single-threaded measured process is pinned to."""
    return min(os.sched_getaffinity(0))


class Sampler:
    """Times a reference pass every ``SAMPLE_PERIOD_S``, from a thread
    pinned to ``cpu``, while a single-threaded measured process runs
    pinned to the same CPU.

    Each pass shares the CPU with the busy process and reads about twice
    its solo time (``REF_SHARED_NOMINAL_MS``), but it times the CPU the
    workload runs on, while it runs.  The two vCPUs of the host flicker
    independently, so passes timed between samples, or on the other
    CPU, miss most of what slowed a cold campaign: over 12 campaigns the
    campaign's time correlated 0.97 with these passes and 0.22 with a
    block timed just before it.  The sampler costs the measured process
    about 2% of its CPU, the same on both sides of a comparison.
    """

    def __init__(self, cpu: int) -> None:
        self.passes: list[float] = []
        self._cpu = cpu
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        os.sched_setaffinity(0, {self._cpu})
        while True:
            self.passes.append(reference_loop_ms())
            if self._stop.wait(SAMPLE_PERIOD_S):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
