"""Sensor calibration (§2.5).

"To calibrate the meters, we use a current source to provide 28 reference
currents between 300 mA and 3 A, and for each meter record the output value
(an integer in the range 400-503).  We compute linear fits for each of the
sensors.  Each sensor has an R² value of 0.999 or better."

The calibration inverts the sensor's code-versus-current line so logged
codes can be mapped back to amperes during measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.statistics import LinearFit, linear_fit
from repro.measurement.sensor import HallEffectSensor

#: The paper's calibration sweep.
REFERENCE_POINT_COUNT = 28
REFERENCE_MIN_AMPS = 0.3
REFERENCE_MAX_AMPS = 3.0

#: Fit quality the paper reports ("0.999 or better").
REQUIRED_R_SQUARED = 0.999


class CalibrationError(RuntimeError):
    """Raised when a sensor's calibration fit is below the paper's bar."""


def reference_currents(
    count: int = REFERENCE_POINT_COUNT,
    low: float = REFERENCE_MIN_AMPS,
    high: float = REFERENCE_MAX_AMPS,
) -> np.ndarray:
    """The bench current source's sweep: ``count`` evenly spaced points."""
    if count < 2:
        raise ValueError("a sweep needs at least two points")
    if not 0 < low < high:
        raise ValueError("sweep bounds must be positive and ordered")
    return np.linspace(low, high, count)


def sweep_for(sensor: HallEffectSensor) -> np.ndarray:
    """The calibration sweep appropriate to a sensor's range.

    The paper's 0.3-3 A sweep matches the +/-5 A part's useful span; the
    +/-30 A part on high-draw machines needs a proportionally wider sweep
    to exercise enough of its shallower 66 mV/A transfer to resolve the
    fit above quantisation noise.
    """
    scale = sensor.range_amps / 5.0
    return reference_currents(
        low=REFERENCE_MIN_AMPS * scale, high=REFERENCE_MAX_AMPS * scale
    )


@dataclass(frozen=True)
class SensorCalibration:
    """A fitted code->current transfer for one sensor."""

    sensor_key: str
    fit: LinearFit  # code as a function of amps

    @property
    def r_squared(self) -> float:
        return self.fit.r_squared


def calibrate(
    sensor: HallEffectSensor,
    currents: np.ndarray | None = None,
    require_quality: bool = True,
) -> SensorCalibration:
    """Run the paper's calibration procedure against ``sensor``.

    Raises :class:`CalibrationError` if the fit is worse than the paper's
    observed R² of 0.999 (a broken or saturating sensor would fail here,
    not silently corrupt the study).
    """
    sweep = currents if currents is not None else sweep_for(sensor)
    codes = sensor.read_codes(sweep, seed_salt="calibration")
    fit = linear_fit(sweep.tolist(), codes.tolist())
    if require_quality and fit.r_squared < REQUIRED_R_SQUARED:
        raise CalibrationError(
            f"sensor {sensor.sensor_key}: calibration R^2 {fit.r_squared:.5f} "
            f"below required {REQUIRED_R_SQUARED}"
        )
    return SensorCalibration(sensor_key=sensor.sensor_key, fit=fit)
