"""The ACS714 Hall-effect current sensor (§2.5).

The paper uses Pololu's carrier for Allegro's ACS714 Hall-effect linear
current sensor: a bidirectional +/-5 A part (a +/-30 A sibling on the
high-draw i7) whose output is an analog voltage of 185 mV/A centred at
2.5 V, with a typical error under 1.5 %.  The logging stick digitises that
voltage to an integer code; across the calibration sweep the observed codes
span roughly 400-503, so quantisation contributes about 1 % per-sample
error ("the fidelity of the quantization (103 points)").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantities import Amperes, Volts
from repro.core.seeding import rng_for, run_key

#: Transfer slope of the +/-5 A ACS714.
MV_PER_AMP_5A = 185.0
#: Transfer slope of the +/-30 A variant (66 mV/A per its data sheet).
MV_PER_AMP_30A = 66.0
#: Output is centred at mid-supply.
ZERO_CURRENT_VOLTS = 2.5

#: The logging stick's ADC: code = round(volts * counts / full-scale).
ADC_COUNTS = 1024
ADC_FULL_SCALE_VOLTS = 5.0


@dataclass(frozen=True)
class HallEffectSensor:
    """One physical sensor instance with its own (stable) imperfections.

    A real part's gain and offset deviate from nominal but are fixed for
    the life of the device — which is exactly why the paper calibrates
    each sensor against reference currents and fits a line per sensor.
    """

    sensor_key: str
    range_amps: float = 5.0
    mv_per_amp: float = MV_PER_AMP_5A
    #: Per-sample noise as a fraction of full scale.  The ACS714's 1.5 %
    #: "typical error" is dominated by gain/offset error (removed by
    #: calibration); the residual noise floor is a few millivolts.
    noise_fraction: float = 0.003

    def __post_init__(self) -> None:
        if self.range_amps <= 0 or self.mv_per_amp <= 0:
            raise ValueError("sensor range and slope must be positive")
        rng = rng_for(run_key("sensor-build", self.sensor_key))
        # Per-device gain within +/-1.5 % and a small offset, fixed at
        # manufacture.
        object.__setattr__(self, "_gain_error", float(rng.normal(0.0, 0.007)))
        object.__setattr__(self, "_offset_volts", float(rng.normal(0.0, 0.004)))

    # -- analog path ---------------------------------------------------------

    def output_volts(self, current: Amperes, noise: float = 0.0) -> Volts:
        """Analog output for ``current`` with additive noise (volts)."""
        if abs(current.value) > self.range_amps:
            # Saturate rather than fold over, as the real part does.
            clipped = np.clip(current.value, -self.range_amps, self.range_amps)
        else:
            clipped = current.value
        slope = self.mv_per_amp / 1000.0 * (1.0 + self._gain_error)
        volts = ZERO_CURRENT_VOLTS + self._offset_volts + slope * clipped + noise
        return Volts(float(np.clip(volts, 0.0, ADC_FULL_SCALE_VOLTS)))

    def digitise(self, volts: Volts) -> int:
        """The logging stick's ADC code for an analog level."""
        code = round(volts.value / ADC_FULL_SCALE_VOLTS * ADC_COUNTS)
        return int(np.clip(code, 0, ADC_COUNTS - 1))

    @property
    def noise_sigma_volts(self) -> float:
        """Per-sample noise sigma in volts — the draw parameter both
        read paths (per-run and compiled kernel) share.  Noise is
        proportional to full scale (Hall sensors are dominated by a fixed
        noise floor, not signal-proportional noise)."""
        full_scale_volts = self.mv_per_amp / 1000.0 * self.range_amps
        return self.noise_fraction * full_scale_volts

    def transfer_codes(self, currents: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """The sensor transfer for pre-drawn noise: clip to range, apply
        the device's affine response, clip to the ADC input, quantise.

        Both read paths funnel through this one function, so the per-run
        and compiled-kernel pipelines are bit-identical by construction:
        same ufuncs, same operand order, only the noise array's
        provenance differs (and that is keyed per run salt).

        The float steps run in place in the array the first clip returns
        and the integer clip in the codes array, each ufunc with the
        expression's own operands in its own order; neither input is
        written."""
        volts = np.clip(currents, -self.range_amps, self.range_amps)
        slope = self.mv_per_amp / 1000.0 * (1.0 + self._gain_error)
        # ZERO_CURRENT_VOLTS + offset + slope * clipped + noise, left to right.
        np.multiply(slope, volts, out=volts)
        np.add(ZERO_CURRENT_VOLTS + self._offset_volts, volts, out=volts)
        volts += noise
        np.clip(volts, 0.0, ADC_FULL_SCALE_VOLTS, out=volts)
        volts /= ADC_FULL_SCALE_VOLTS
        volts *= ADC_COUNTS
        codes = np.rint(volts, out=volts).astype(int)
        return np.clip(codes, 0, ADC_COUNTS - 1, out=codes)

    def read_codes(self, currents: np.ndarray, seed_salt: str) -> np.ndarray:
        """Digitised codes for an array of instantaneous currents.
        Vectorised equivalent of :meth:`output_volts` + :meth:`digitise`
        per sample, with the run's noise stream keyed by ``seed_salt``.
        """
        currents = np.asarray(currents, dtype=float)
        rng = rng_for(run_key("sensor-read", self.sensor_key, seed_salt))
        noise = rng.normal(0.0, self.noise_sigma_volts, size=len(currents))
        return self.transfer_codes(currents, noise)


def sensor_for_processor(processor_key: str, max_power_watts: float) -> HallEffectSensor:
    """Pick the sensor variant for a machine, as the paper did: the
    +/-30 A part for the i7-class draw, the +/-5 A part elsewhere."""
    if max_power_watts <= 0:
        raise ValueError("maximum power must be positive")
    max_current = max_power_watts / 12.0
    if max_current > 5.0:
        return HallEffectSensor(
            sensor_key=processor_key, range_amps=30.0, mv_per_amp=MV_PER_AMP_30A
        )
    return HallEffectSensor(sensor_key=processor_key)
