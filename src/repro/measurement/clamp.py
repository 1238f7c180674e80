"""Whole-system AC clamp-ammeter measurement (§2.5's contrast, §5).

Prior studies (Isci & Martonosi; Bircher & John; Le Sueur & Heiser)
measured *system* power with a clamp ammeter on the AC feed.  The paper
deliberately isolates the chip instead.  This module models the
whole-system path — board overhead, VRM losses and PSU conversion
efficiency — so the difference between the two methodologies can be
demonstrated quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.quantities import Watts
from repro.execution.engine import Execution


@dataclass(frozen=True, slots=True)
class SystemPlatform:
    """DC power draw of everything on the board except the processor."""

    #: Motherboard, DRAM, disk, fans: roughly constant while running.
    board_watts: float
    #: Voltage-regulator loss as a fraction of processor power.
    vrm_overhead: float = 0.15
    #: AC->DC conversion efficiency of the power supply.
    psu_efficiency: float = 0.78

    def __post_init__(self) -> None:
        if self.board_watts < 0:
            raise ValueError("board power cannot be negative")
        if not 0.0 <= self.vrm_overhead < 1.0:
            raise ValueError("VRM overhead must be a fraction")
        if not 0.0 < self.psu_efficiency <= 1.0:
            raise ValueError("PSU efficiency must be in (0, 1]")

    def wall_power(self, chip: Watts) -> Watts:
        """AC power at the wall for a given chip draw."""
        if chip.value < 0:
            raise ValueError("chip power cannot be negative")
        dc = self.board_watts + chip.value * (1.0 + self.vrm_overhead)
        return Watts(dc / self.psu_efficiency)


#: Typical platforms for the study's machine classes: desktop boards for
#: the big parts, a nettop board for the Atoms.
DESKTOP_PLATFORM = SystemPlatform(board_watts=45.0)
NETTOP_PLATFORM = SystemPlatform(board_watts=14.0, psu_efficiency=0.72)


def platform_for(processor_key: str) -> SystemPlatform:
    if processor_key.startswith("atom"):
        return NETTOP_PLATFORM
    return DESKTOP_PLATFORM


def chip_share_of_wall(execution: Execution) -> float:
    """Fraction of wall power the processor itself accounts for.

    The paper's methodological point in one number: on an Atom nettop the
    chip is a sliver of the wall draw, so whole-system measurement cannot
    resolve chip-level effects.
    """
    platform = platform_for(execution.config.spec.key)
    wall = platform.wall_power(execution.average_power)
    return execution.average_power.value / wall.value
