"""The isolated processor power supply (§2.5).

Each experimental machine has an isolated supply for the processor on the
motherboard — a prerequisite the paper verified against motherboard
specifications and empirically (it excluded the Pentium M for lacking one).
The sensor sits on the 12 V line feeding only the processor; measured
voltage is stable to within 1 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantities import Volts
from repro.core.seeding import rng_for, run_key

#: The processor rail the paper instruments.
RAIL_VOLTS = 12.0

#: Measured voltage stability: "varying less than 1%" (§2.5).
VOLTAGE_STABILITY = 0.01


@dataclass(frozen=True)
class ProcessorSupply:
    """The 12 V processor rail of one experimental machine."""

    machine_key: str
    nominal: Volts = Volts(RAIL_VOLTS)
    stability: float = VOLTAGE_STABILITY

    def __post_init__(self) -> None:
        if not 0.0 <= self.stability < 0.1:
            raise ValueError("rail stability outside plausible range")

    @property
    def wander_sigma(self) -> float:
        """Sigma of the per-sample wander draw (the +/-stability band is
        three sigmas out, so clipping is rare) — shared by the per-run
        sampler and the compiled-kernel path."""
        return self.stability / 3.0

    def volts_from_wander(self, wander: np.ndarray) -> np.ndarray:
        """Rail voltage for pre-drawn wander samples.  The one transfer
        every path shares, so per-run and compiled-kernel sampling are
        bit-identical by construction.

        ``nominal * (1.0 + clip(wander))``, computed in the one array the
        clip returns (``wander`` itself is left as it was)."""
        volts = np.clip(wander, -self.stability, self.stability)
        np.add(1.0, volts, out=volts)
        np.multiply(self.nominal.value, volts, out=volts)
        return volts

    def voltage_samples(self, count: int, seed_salt: str = "") -> np.ndarray:
        """Rail voltage at ``count`` sampling instants (slow wander within
        the measured +/-1 % band)."""
        if count < 1:
            raise ValueError("need at least one sample")
        rng = rng_for(run_key("supply", self.machine_key, seed_salt))
        wander = rng.normal(0.0, self.wander_sigma, size=count)
        return self.volts_from_wander(wander)
