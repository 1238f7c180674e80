"""Thermal model: junction temperature and boost headroom (§3.6).

Turbo Boost engages "if temperature, power, and current conditions
allow".  The study's benchmarks all boosted successfully (the paper
verified the frequencies empirically), but the *sustainability* of the
boost depends on how close a workload drives the die to its thermal
limit.  This module provides a first-order steady-state model — junction
temperature from package power through a junction-to-ambient thermal
resistance — used by the thermal-headroom analysis experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.quantities import Watts
from repro.hardware.processor import ProcessorSpec

#: Maximum junction temperature for this era of parts (degrees C).
T_JUNCTION_MAX = 100.0

#: Typical ambient inside a desktop case.
T_AMBIENT = 40.0


@dataclass(frozen=True, slots=True)
class ThermalModel:
    """Steady-state die temperature under a heatsink."""

    #: Junction-to-ambient thermal resistance (degrees C per watt).  The
    #: stock cooler is sized to hold TDP at the junction limit.
    theta_ja: float
    ambient_c: float = T_AMBIENT

    def __post_init__(self) -> None:
        if self.theta_ja <= 0:
            raise ValueError("thermal resistance must be positive")

    def junction_c(self, power: Watts) -> float:
        """Steady-state junction temperature at a package power."""
        if power.value < 0:
            raise ValueError("power cannot be negative")
        return self.ambient_c + self.theta_ja * power.value

    def headroom_c(self, power: Watts) -> float:
        """Degrees below the junction limit (negative = throttling)."""
        return T_JUNCTION_MAX - self.junction_c(power)


def stock_cooler(spec: ProcessorSpec) -> ThermalModel:
    """The boxed cooler: sized so TDP sits exactly at the junction limit.

    That is the *definition* of TDP (§2.5): "the nominal amount of power
    the chip is designed to dissipate without exceeding the maximum
    junction temperature."
    """
    theta = (T_JUNCTION_MAX - T_AMBIENT) / spec.tdp_w
    return ThermalModel(theta_ja=theta)


def boost_headroom(spec: ProcessorSpec, power: Watts) -> float:
    """Fraction of the TDP-limited thermal budget still unused.

    1.0 means idle-cold; 0.0 means the die is at the junction limit and
    Turbo Boost's thermal condition fails.
    """
    cooler = stock_cooler(spec)
    budget = T_JUNCTION_MAX - cooler.ambient_c
    return max(cooler.headroom_c(power), 0.0) / budget
