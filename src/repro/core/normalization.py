"""Reference execution time and reference energy (§2.6).

"To avoid biasing performance measurements to the strengths or weaknesses
of one architecture, we normalize individual benchmark execution times to
its average execution time executing on four architectures ... The
reference energy is the average power on these four processors times the
average runtime."

The four reference machines — Pentium 4 (130), Core 2D (65), Atom (45),
i5 (32) — cover all four microarchitectures and all four technology
generations.
"""

from __future__ import annotations

from typing import Optional

from repro.execution.engine import ExecutionEngine, default_engine
from repro.faults.injector import shielded
from repro.hardware.catalog import reference_processors
from repro.hardware.config import stock
from repro.measurement.meter import meter_for
from repro.workloads.benchmark import Benchmark


class References:
    """Per-benchmark reference time and energy for normalisation.

    Reference *time* is Table 1's value by construction (the engine
    calibrates each benchmark's work so its mean stock run time across the
    four reference machines equals the table).  Reference *energy* is
    derived the paper's way: mean measured power on the four reference
    machines times the reference time.
    """

    def __init__(self, engine: Optional[ExecutionEngine] = None) -> None:
        self._engine = engine or default_engine()
        self._energy_cache: dict[str, float] = {}

    @property
    def engine(self) -> ExecutionEngine:
        return self._engine

    def time_seconds(self, benchmark: Benchmark) -> float:
        """Reference execution time (Table 1's "Time" column)."""
        return benchmark.reference_seconds

    def energy_joules(self, benchmark: Benchmark) -> float:
        """Reference energy: mean reference power x reference time."""
        cached = self._energy_cache.get(benchmark.name)
        if cached is not None:
            return cached
        powers = []
        # The reference baseline is analytical (ideal executions), not a
        # campaign run: shield it from any armed fault injector.
        with shielded():
            for spec in reference_processors():
                execution = self._engine.ideal(benchmark, stock(spec))
                measurement = meter_for(spec).measure(
                    execution, run_salt=f"reference/{benchmark.name}"
                )
                powers.append(measurement.average_watts)
        mean_power = sum(powers) / len(powers)
        energy = mean_power * self.time_seconds(benchmark)
        self._energy_cache[benchmark.name] = energy
        return energy

    def speedup(self, benchmark: Benchmark, seconds: float) -> float:
        """Performance relative to reference (the paper's x-axes)."""
        if seconds <= 0:
            raise ValueError("run time must be positive")
        return self.time_seconds(benchmark) / seconds

    def normalized_energy(self, benchmark: Benchmark, joules: float) -> float:
        """Energy relative to reference energy (the paper's y-axes)."""
        if joules < 0:
            raise ValueError("energy cannot be negative")
        return joules / self.energy_joules(benchmark)
