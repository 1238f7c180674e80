"""Unit tests for the sensor calibration procedure (§2.5)."""

import numpy as np
import pytest

from repro.measurement.calibration import (
    CalibrationError,
    REFERENCE_POINT_COUNT,
    REQUIRED_R_SQUARED,
    calibrate,
    reference_currents,
    sweep_for,
)
from repro.measurement.sensor import HallEffectSensor, sensor_for_processor


def _amps(calibration, codes):
    """Mean current behind logged codes, inverted as the meter does."""
    fit = calibration.fit
    return (float(np.mean(codes)) - fit.intercept) / fit.slope


class TestReferenceSweep:
    def test_paper_sweep_shape(self):
        """'28 reference currents between 300mA and 3A'."""
        sweep = reference_currents()
        assert len(sweep) == REFERENCE_POINT_COUNT == 28
        assert sweep[0] == pytest.approx(0.3)
        assert sweep[-1] == pytest.approx(3.0)

    def test_evenly_spaced(self):
        sweep = reference_currents()
        gaps = np.diff(sweep)
        assert np.allclose(gaps, gaps[0])

    def test_30a_part_gets_wider_sweep(self):
        wide = sweep_for(sensor_for_processor("i7_45", 130.0))
        narrow = sweep_for(HallEffectSensor("x"))
        assert wide[-1] > narrow[-1]
        assert len(wide) == len(narrow) == 28

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            reference_currents(low=3.0, high=0.3)
        with pytest.raises(ValueError):
            reference_currents(count=1)


class TestCalibration:
    def test_meets_paper_quality(self):
        """'Each sensor has an R^2 value of 0.999 or better.'"""
        calibration = calibrate(HallEffectSensor("bench"))
        assert calibration.r_squared >= REQUIRED_R_SQUARED

    def test_30a_part_also_calibrates(self):
        calibration = calibrate(sensor_for_processor("i7_45", 130.0))
        assert calibration.r_squared >= REQUIRED_R_SQUARED

    def test_recovers_true_current(self):
        sensor = HallEffectSensor("bench")
        calibration = calibrate(sensor)
        codes = sensor.read_codes(np.array([1.7] * 200), seed_salt="verify")
        recovered = _amps(calibration, codes)
        assert recovered == pytest.approx(1.7, rel=0.02)

    def test_removes_device_gain_error(self):
        """Two devices with different gain errors agree after calibration."""
        readings = []
        for key in ("dev-a", "dev-b"):
            sensor = HallEffectSensor(key)
            calibration = calibrate(sensor)
            codes = sensor.read_codes(np.array([2.0] * 500), seed_salt="gain")
            readings.append(_amps(calibration, codes))
        assert readings[0] == pytest.approx(readings[1], rel=0.01)

    def test_broken_sensor_fails_loudly(self):
        noisy = HallEffectSensor("broken", noise_fraction=0.2)
        with pytest.raises(CalibrationError):
            calibrate(noisy)

    def test_quality_check_can_be_waived(self):
        noisy = HallEffectSensor("broken", noise_fraction=0.2)
        calibration = calibrate(noisy, require_quality=False)
        assert calibration.r_squared < REQUIRED_R_SQUARED
