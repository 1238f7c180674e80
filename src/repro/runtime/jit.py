"""JIT compilation warm-up model (§2.2).

HotSpot compiles hot methods adaptively, so early iterations of a benchmark
mix interpretation, compilation, and unoptimised code.  The paper measures
the *fifth* iteration within one JVM invocation to capture steady state:
class loading and heavy compilation dominate early phases, while the fifth
iteration retains only a small residue of compiler activity.

The model is a geometric decay of per-iteration overhead — standard in the
replay-compilation literature — and exists so the measurement methodology
(:mod:`repro.runtime.methodology`) can demonstrate *why* iteration five is
the right choice rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class JitWarmup:
    """Per-iteration slowdown of a benchmark while the JIT warms up."""

    #: Slowdown of iteration 1 over steady state (class loading plus
    #: interpretation plus compilation); ~2.2x is typical of DaCapo.
    first_iteration_overhead: float = 1.2
    #: Fraction of the remaining overhead that survives each iteration.
    decay: float = 0.30
    #: Residual compiler activity that never quite disappears (§2.2: "the
    #: fifth iteration may still have a small amount of compiler activity").
    steady_residue: float = 0.005

    def __post_init__(self) -> None:
        if self.first_iteration_overhead < 0:
            raise ValueError("overhead cannot be negative")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        if self.steady_residue < 0:
            raise ValueError("residue cannot be negative")

    def overhead_at(self, iteration: int) -> float:
        """Multiplicative slowdown at a 1-based iteration number."""
        if iteration < 1:
            raise ValueError("iterations are 1-based")
        transient = self.first_iteration_overhead * self.decay ** (iteration - 1)
        return 1.0 + transient + self.steady_residue


#: Default warm-up used for every Java benchmark.
DEFAULT_WARMUP = JitWarmup()
