"""Process-technology physics: measured 130–32 nm plus projected 22–7 nm.

The paper spans four process nodes (§1, Table 3).  This module captures the
node-level scaling facts the power model needs:

* a nominal supply voltage per node (Dennard scaling slowed over this
  period, so voltage drops far less than feature size);
* an effective switched-capacitance scale per transistor (shrinks with
  feature size);
* a leakage scale per transistor (grows relative to dynamic power at
  smaller nodes — the post-Dennard effect Le Sueur & Heiser observed).

Voltage at a given operating frequency interpolates linearly across the
processor's VID range (Table 3 publishes the ranges), which is how real
desktop DVFS tables behave to first order.

Beyond the measured era, ``PROJECTED_NODES`` synthesizes 22/14/10/7 nm
operating points for the forward-projection subsystem (docs/projection.md)
by extrapolating the measured trends under post-Dennard assumptions:
capacitance shrink slows toward ~0.7x per step, supply voltage creeps down
toward a fixed floor, leakage keeps growing as a share of total power, and
a rising fraction of a fixed-area die must stay dark under a fixed power
budget.  Projected nodes carry ``synthetic=True`` so catalog views can
flag them; they never enter ``NODES``, which stays the measured study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.quantities import Hertz, Volts


@dataclass(frozen=True, slots=True)
class ProcessNode:
    """One CMOS process generation."""

    nanometers: int
    nominal_voltage: Volts
    #: Effective switched capacitance per transistor, relative to 130 nm.
    capacitance_scale: float
    #: Static (leakage) power per transistor at nominal voltage, relative
    #: to 130 nm.  Rises as a *fraction of total power* at small nodes.
    leakage_scale: float
    #: Lowest stable supply voltage for the node (projected nodes only;
    #: the measured parts publish per-processor VID ranges instead).
    voltage_floor: Volts | None = None
    #: Fraction of a fixed-area die that a fixed power budget cannot keep
    #: switching at nominal voltage and frequency — the dark-silicon share
    #: Esmaeilzadeh et al. project to grow every shrink.  Zero for the
    #: measured era, where TDP still covered the full die.
    dark_silicon_fraction: float = 0.0
    #: True for synthesized post-2011 operating points (not measured).
    synthetic: bool = False

    def __post_init__(self) -> None:
        if self.nanometers <= 0:
            raise ValueError("process node must be positive")
        if self.capacitance_scale <= 0 or self.leakage_scale <= 0:
            raise ValueError("scaling factors must be positive")
        if not 0.0 <= self.dark_silicon_fraction < 1.0:
            raise ValueError("dark-silicon fraction must be in [0, 1)")
        if self.voltage_floor is not None:
            if self.voltage_floor.value <= 0:
                raise ValueError("voltage floor must be positive")
            if self.voltage_floor.value > self.nominal_voltage.value:
                raise ValueError("voltage floor cannot exceed nominal voltage")

    @property
    def vid_span(self) -> tuple[Volts, Volts]:
        """The node's (floor, nominal) supply-voltage span.

        Falls back to the nominal voltage alone when no floor is defined,
        matching measured parts whose DVFS range is per-processor.
        """
        floor = self.voltage_floor if self.voltage_floor is not None else self.nominal_voltage
        return (floor, self.nominal_voltage)


#: The four nodes of the study.  Capacitance roughly halves per full node
#: shrink; leakage per transistor stays roughly flat in absolute terms,
#: which makes it a growing *share* as dynamic energy falls.
NODE_130NM = ProcessNode(130, Volts(1.50), capacitance_scale=1.00, leakage_scale=1.00)
NODE_65NM = ProcessNode(65, Volts(1.25), capacitance_scale=0.42, leakage_scale=1.15)
NODE_45NM = ProcessNode(45, Volts(1.10), capacitance_scale=0.26, leakage_scale=1.30)
NODE_32NM = ProcessNode(32, Volts(1.00), capacitance_scale=0.17, leakage_scale=1.45)

NODES = {
    130: NODE_130NM,
    65: NODE_65NM,
    45: NODE_45NM,
    32: NODE_32NM,
}


#: Synthesized post-2011 operating points (docs/projection.md).  The
#: per-step capacitance shrink flattens (0.42, 0.62, 0.65 per measured
#: step -> 0.68, 0.70, 0.71, 0.74 projected) as Dennard scaling ends;
#: nominal voltage keeps creeping down but the floors converge near the
#: ~0.6 V threshold-limited minimum; leakage keeps rising as a share; and
#: the dark-silicon fraction grows every shrink because the power budget
#: scales far slower than transistor density ("16 Years of SPEC Power"
#: and "Trends in Processor Architecture", PAPERS.md).
NODE_22NM = ProcessNode(
    22, Volts(0.95), capacitance_scale=0.115, leakage_scale=1.62,
    voltage_floor=Volts(0.65), dark_silicon_fraction=0.45, synthetic=True,
)
NODE_14NM = ProcessNode(
    14, Volts(0.90), capacitance_scale=0.080, leakage_scale=1.80,
    voltage_floor=Volts(0.62), dark_silicon_fraction=0.55, synthetic=True,
)
NODE_10NM = ProcessNode(
    10, Volts(0.85), capacitance_scale=0.057, leakage_scale=2.00,
    voltage_floor=Volts(0.60), dark_silicon_fraction=0.60, synthetic=True,
)
NODE_7NM = ProcessNode(
    7, Volts(0.80), capacitance_scale=0.042, leakage_scale=2.22,
    voltage_floor=Volts(0.58), dark_silicon_fraction=0.64, synthetic=True,
)

PROJECTED_NODES = {
    22: NODE_22NM,
    14: NODE_14NM,
    10: NODE_10NM,
    7: NODE_7NM,
}

#: Measured and projected nodes together, largest feature size first.
ALL_NODES = {**NODES, **PROJECTED_NODES}


def node_for(nanometers: int) -> ProcessNode:
    """Look up the :class:`ProcessNode` for a feature size in nanometers."""
    try:
        return NODES[nanometers]
    except KeyError:
        raise KeyError(
            f"unknown process node {nanometers} nm; the study covers {sorted(NODES)}"
        ) from None


@dataclass(frozen=True, slots=True)
class VoltageCurve:
    """Linear VID interpolation between a processor's frequency extremes.

    Real processors publish a VID range (Table 3) and walk through it as
    frequency scales.  Below ``f_min`` the curve clamps at ``v_min`` and
    above ``f_max`` (Turbo Boost territory) it extrapolates, which is why
    Turbo steps are disproportionately expensive in power (§3.6).
    """

    v_min: Volts
    v_max: Volts
    f_min: Hertz
    f_max: Hertz

    def __post_init__(self) -> None:
        if self.f_max.value < self.f_min.value:
            raise ValueError("f_max must be >= f_min")
        if self.v_max.value < self.v_min.value:
            raise ValueError("v_max must be >= v_min")

    def voltage_at(self, frequency: Hertz) -> Volts:
        if frequency.value <= 0:
            raise ValueError("frequency must be positive")
        if self.f_max.value == self.f_min.value:
            return self.v_max
        fraction = (frequency.value - self.f_min.value) / (
            self.f_max.value - self.f_min.value
        )
        fraction = max(fraction, 0.0)  # clamp below the DVFS floor
        span = self.v_max.value - self.v_min.value
        return Volts(self.v_min.value + fraction * span)
