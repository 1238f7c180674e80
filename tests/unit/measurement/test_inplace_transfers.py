"""The shared metering transfers compute in place, bit for bit as the
plain expressions did, and never write their inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.measurement.meter import PowerMeter
from repro.measurement.sensor import (
    ADC_COUNTS,
    ADC_FULL_SCALE_VOLTS,
    ZERO_CURRENT_VOLTS,
    HallEffectSensor,
)
from repro.measurement.supply import ProcessorSupply


def _volts_expression(supply: ProcessorSupply, wander: np.ndarray) -> np.ndarray:
    """The rail transfer as one out-of-place expression."""
    return supply.nominal.value * (
        1.0 + np.clip(wander, -supply.stability, supply.stability)
    )


def _codes_expression(
    sensor: HallEffectSensor, currents: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """The sensor transfer as out-of-place expressions."""
    clipped = np.clip(currents, -sensor.range_amps, sensor.range_amps)
    slope = sensor.mv_per_amp / 1000.0 * (1.0 + sensor._gain_error)
    volts = ZERO_CURRENT_VOLTS + sensor._offset_volts + slope * clipped + noise
    volts = np.clip(volts, 0.0, ADC_FULL_SCALE_VOLTS)
    codes = np.rint(volts / ADC_FULL_SCALE_VOLTS * ADC_COUNTS).astype(int)
    return np.clip(codes, 0, ADC_COUNTS - 1)


_EDGES = [0.0, -0.0, 0.01, -0.01, 5.0, -5.0, 30.0, -30.0, 1e-300, -1e-300]
_finite = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)
_values = st.one_of(_finite, st.sampled_from(_EDGES))
_small = st.one_of(
    st.floats(-0.05, 0.05, allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGES),
)


def _pairs(elements):
    """Two float64 arrays of one length, 1 to 300 samples."""
    return st.integers(1, 300).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=elements),
            arrays(np.float64, n, elements=_small),
        )
    )


class TestRailTransfer:
    @settings(max_examples=150, deadline=None)
    @given(wander=arrays(np.float64, st.integers(1, 300), elements=_small))
    def test_equals_expression_and_keeps_input(self, wander):
        supply = ProcessorSupply("m")
        before = wander.copy()
        got = supply.volts_from_wander(wander)
        assert got.tobytes() == _volts_expression(supply, before).tobytes()
        assert wander.tobytes() == before.tobytes()
        assert got is not wander


class TestSensorTransfer:
    @pytest.mark.parametrize("range_amps,mv_per_amp", [(5.0, 185.0), (30.0, 66.0)])
    @settings(max_examples=150, deadline=None)
    @given(data=_pairs(_values))
    def test_equals_expression_and_keeps_inputs(self, range_amps, mv_per_amp, data):
        currents, noise = data
        sensor = HallEffectSensor("hall", range_amps=range_amps, mv_per_amp=mv_per_amp)
        kept = currents.copy(), noise.copy()
        got = sensor.transfer_codes(currents, noise)
        expected = _codes_expression(sensor, kept[0], kept[1])
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert currents.tobytes() == kept[0].tobytes()
        assert noise.tobytes() == kept[1].tobytes()


class TestMeterDivision:
    @pytest.mark.parametrize("spec", [ATOM_45, CORE_I7_45], ids=lambda s: s.key)
    def test_measure_kernel_equals_expression_and_keeps_inputs(self, spec):
        meter = PowerMeter(spec)
        rng = np.random.default_rng(34)
        counts = np.array([17, 1, 40, 9], dtype=np.int64)
        offsets = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        total = int(counts.sum())
        true_watts = rng.uniform(0.5, 1.4 * spec.tdp_w, total)
        wander = rng.normal(0.0, meter.supply.wander_sigma, total)
        noise = rng.normal(0.0, meter.sensor.noise_sigma_volts, total)
        peaks = np.maximum.reduceat(true_watts, offsets)
        kept = true_watts.copy(), wander.copy(), noise.copy()

        got = meter.measure_kernel(
            true_watts, counts, offsets, peaks, float(peaks.max()), wander, noise
        )

        currents = kept[0] / _volts_expression(meter.supply, kept[1])
        codes = _codes_expression(meter.sensor, currents, kept[2])
        fit = meter.calibration.fit
        mean_codes = np.add.reduceat(codes, offsets) / counts
        expected = (mean_codes - fit.intercept) / fit.slope * meter.supply.nominal.value
        assert got == expected.tolist()
        for array, before in zip((true_watts, wander, noise), kept):
            assert array.tobytes() == before.tobytes()
