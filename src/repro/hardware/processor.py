"""Processor specifications — the rows of the paper's Table 3.

A :class:`ProcessorSpec` combines the public data sheet facts (cores, SMT,
LLC, clock, node, transistors, die area, VID range, TDP, memory system) with
the structural model hooks (microarchitecture family, memory latency and
bandwidth, per-structure power character, DVFS operating points).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.quantities import Hertz, Volts
from repro.hardware.microarch import Microarchitecture
from repro.hardware.technology import ProcessNode, VoltageCurve


@dataclass(frozen=True, slots=True)
class MemorySystem:
    """Off-core memory path: shared LLC-miss latency and peak bandwidth."""

    latency_ns: float
    bandwidth_gbs: float
    #: Marketing description from Table 3 (e.g. "DDR3-1066").
    dram: str
    #: Front-side bus in MHz for FSB machines, ``None`` for QPI/DMI parts.
    fsb_mhz: Optional[int] = None

    def __post_init__(self) -> None:
        if self.latency_ns <= 0 or self.bandwidth_gbs <= 0:
            raise ValueError("memory latency and bandwidth must be positive")


@dataclass(frozen=True, slots=True)
class PowerCharacter:
    """Calibrated per-structure power at the stock operating point.

    ``uncore_watts`` is the always-on package floor (interconnect, memory
    controller and GPU where in-package, PLLs, leakage).  ``core_idle_watts``
    is paid per *enabled* core; ``core_active_watts`` is the extra a fully
    busy core draws at stock voltage and frequency with activity 1.0.  The
    dynamic parts scale as ``(V / V_stock)^2 * (f / f_stock)``.
    """

    uncore_watts: float
    core_idle_watts: float
    core_active_watts: float
    #: Package-level power multiplier per Turbo Boost step (§3.6): measured
    #: 1.19-1.22 per step on the i7, near 1.02 on the i5.
    turbo_power_per_step: float = 1.0
    #: Fraction of the published VID span the part actually traverses while
    #: DVFS-scaling under load.  The i5 (32)'s measured power rises far less
    #: steeply with clock than its VID range implies (Architecture Finding
    #: 3) — its management hardware holds voltage low; older parts ride most
    #: of the span.
    voltage_swing: float = 0.5
    #: Fraction of the uncore floor that scales with voltage and frequency
    #: (clock trees, queues); the rest (leakage, I/O) is flat.
    uncore_dynamic_fraction: float = 0.35

    def __post_init__(self) -> None:
        if min(self.uncore_watts, self.core_idle_watts, self.core_active_watts) < 0:
            raise ValueError("power components must be non-negative")
        if self.turbo_power_per_step < 1.0:
            raise ValueError("turbo power multiplier cannot be below 1.0")
        if not 0.0 <= self.voltage_swing <= 1.0:
            raise ValueError("voltage swing must be in [0, 1]")
        if not 0.0 <= self.uncore_dynamic_fraction <= 1.0:
            raise ValueError("uncore dynamic fraction must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class TurboCapability:
    """Turbo Boost parameters (§3.6).

    All active cores may run ``all_core_steps`` bins above the base clock;
    with a single active core the part may add ``single_core_extra`` more.
    A step is one 133 MHz bus multiplier increment on Nehalem.
    """

    step_ghz: float = 0.133
    all_core_steps: int = 1
    single_core_extra: int = 1


@dataclass(frozen=True, slots=True)
class ProcessorSpec:
    """One experimental processor (a row of Table 3)."""

    key: str  # stable identifier, e.g. "i7_45"
    label: str  # the paper's display name, e.g. "i7 (45)"
    model: str  # market name, e.g. "Core i7 920"
    family: Microarchitecture
    codename: str
    sspec: str
    release: str  # e.g. "Nov '08"
    price_usd: Optional[int]
    cores: int
    threads_per_core: int
    llc_mb: float
    stock_clock: Hertz
    node: ProcessNode
    transistors_m: int
    die_mm2: float
    vid_range: Optional[tuple[float, float]]
    tdp_w: float
    memory: MemorySystem
    power: PowerCharacter
    #: Selectable clock frequencies (GHz), lowest to highest; the highest
    #: equals the stock clock.  Single-entry list => no DVFS in the study.
    clock_points_ghz: Sequence[float] = field(default=())
    turbo: Optional[TurboCapability] = None
    #: Residual per-platform performance factor after the structural model;
    #: documented calibration per DESIGN.md §5.
    platform_efficiency: float = 1.0
    #: Per-extra-thread coherence/snoop overhead of the platform's
    #: interconnect (multi-die FSB parts pay the most).
    smp_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1 or self.threads_per_core < 1:
            raise ValueError("cores and threads per core must be >= 1")
        points = tuple(self.clock_points_ghz) or (self.stock_clock.ghz,)
        object.__setattr__(self, "clock_points_ghz", points)
        if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
            raise ValueError("clock points must be strictly increasing")
        if abs(points[-1] - self.stock_clock.ghz) > 1e-9:
            raise ValueError("highest clock point must equal the stock clock")

    @property
    def hardware_contexts(self) -> int:
        """Total hardware thread contexts, e.g. 8 for the i7 (4C2T)."""
        return self.cores * self.threads_per_core

    @property
    def cmp_smt(self) -> str:
        """Table 3's nCmT notation, e.g. ``4C2T``."""
        return f"{self.cores}C{self.threads_per_core}T"

    @property
    def has_turbo(self) -> bool:
        return self.turbo is not None

    @property
    def min_clock(self) -> Hertz:
        return Hertz.from_ghz(self.clock_points_ghz[0])

    def voltage_curve(self) -> VoltageCurve:
        """VID interpolation over this part's DVFS range (Table 3)."""
        if self.vid_range is None:
            flat = self.node.nominal_voltage
            return VoltageCurve(flat, flat, self.min_clock, self.stock_clock)
        v_min, v_max = self.vid_range
        return VoltageCurve(
            Volts(v_min), Volts(v_max), self.min_clock, self.stock_clock
        )

    def voltage_at(self, frequency: Hertz) -> Volts:
        return self.voltage_curve().voltage_at(frequency)

    def supports_clock(self, ghz: float) -> bool:
        return any(abs(ghz - point) < 1e-9 for point in self.clock_points_ghz)
