"""Unit tests for the supply rail, the 50 Hz logger, and the power meter."""

import numpy as np
import pytest

from repro.core.quantities import Seconds, Watts
from repro.execution.trace import PowerTrace
from repro.hardware.catalog import ATOM_45, CORE_I7_45, PROCESSORS
from repro.hardware.config import stock
from repro.measurement.logger import DataLogger, SAMPLE_RATE_HZ
from repro.measurement.meter import PowerMeter, meter_for
from repro.measurement.sensor import HallEffectSensor
from repro.measurement.supply import ProcessorSupply, RAIL_VOLTS
from repro.workloads.catalog import benchmark


def _trace(watts=24.0, seconds=10.0) -> PowerTrace:
    return PowerTrace(Seconds(seconds), (seconds,), (watts,))


class TestSupply:
    def test_rail_is_12v(self):
        assert RAIL_VOLTS == 12.0

    def test_voltage_within_one_percent(self):
        """§2.5: measured voltage 'varying less than 1%'."""
        supply = ProcessorSupply("m")
        samples = supply.voltage_samples(1000, "salt")
        assert np.all(np.abs(samples - 12.0) <= 0.12 + 1e-9)

    def test_samples_deterministic(self):
        supply = ProcessorSupply("m")
        assert (
            supply.voltage_samples(10, "s") == supply.voltage_samples(10, "s")
        ).all()


class TestLogger:
    def _logger(self) -> DataLogger:
        return DataLogger(sensor=HallEffectSensor("log"), supply=ProcessorSupply("log"))

    def test_samples_at_50hz(self):
        logged = self._logger().log(_trace(seconds=4.0), run_salt="r")
        assert logged.rate_hz == SAMPLE_RATE_HZ
        assert logged.sample_count == 200

    def test_long_runs_capped(self):
        logged = self._logger().log(_trace(seconds=3600.0), run_salt="r")
        assert logged.sample_count == 2000

    def test_codes_in_adc_range(self):
        logged = self._logger().log(_trace(), run_salt="r")
        assert logged.codes.min() >= 0
        assert logged.codes.max() < 1024

    def test_run_salt_varies_noise(self):
        logger = self._logger()
        a = logger.log(_trace(), run_salt="a")
        b = logger.log(_trace(), run_salt="b")
        assert (a.codes != b.codes).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            DataLogger(HallEffectSensor("x"), ProcessorSupply("x"), rate_hz=0.0)

    def test_empty_record_error_names_the_likely_cause(self):
        from repro.measurement.logger import LoggedRun

        with pytest.raises(ValueError, match="dropout or"):
            LoggedRun(
                sample_times=np.array([]),
                codes=np.array([], dtype=np.int64),
                rate_hz=SAMPLE_RATE_HZ,
            )


class TestMeter:
    def test_measures_within_two_percent(self, engine):
        ex = engine.ideal(benchmark("db"), stock(CORE_I7_45))
        m = meter_for(CORE_I7_45).measure(ex)
        assert m.average_watts == pytest.approx(ex.average_power.value, rel=0.02)

    def test_atom_measured_accurately_despite_low_draw(self, engine):
        ex = engine.ideal(benchmark("db"), stock(ATOM_45))
        m = meter_for(ATOM_45).measure(ex)
        assert m.average_watts == pytest.approx(ex.average_power.value, rel=0.05)

    def test_meter_rejects_foreign_execution(self, engine):
        ex = engine.ideal(benchmark("db"), stock(ATOM_45))
        with pytest.raises(ValueError):
            meter_for(CORE_I7_45).measure(ex)

    def test_meter_cached_per_machine(self):
        assert meter_for(ATOM_45) is meter_for(ATOM_45)

    def test_every_machine_has_calibratable_meter(self):
        for spec in PROCESSORS:
            meter = meter_for(spec)
            assert meter.calibration.r_squared >= 0.999

    def test_measurement_energy(self, engine):
        ex = engine.ideal(benchmark("db"), stock(ATOM_45))
        m = meter_for(ATOM_45).measure(ex)
        assert m.energy_joules == pytest.approx(m.average_watts * m.seconds)

    def test_fresh_meter_equals_cached(self, engine):
        ex = engine.ideal(benchmark("db"), stock(ATOM_45))
        fresh = PowerMeter(ATOM_45).measure(ex)
        cached = meter_for(ATOM_45).measure(ex)
        assert fresh.average_watts == cached.average_watts


class TestSaturationTelemetry:
    """Clamp-event metrics: the per-sample scan is gated on true power."""

    def _execution(self, watts: float, seconds: float = 10.0):
        from repro.core.quantities import Hertz, Seconds
        from repro.execution.engine import Execution, Phase
        from repro.hardware.events import EventCounts
        from repro.hardware.turbo import TurboState

        config = stock(ATOM_45)
        phase = Phase(
            name="serial",
            seconds=seconds,
            busy_cores=1.0,
            utilisation=1.0,
            frequency=config.spec.stock_clock,
            turbo=TurboState(steps=0, frequency=config.spec.stock_clock),
            power=Watts(watts),
        )
        return Execution(
            benchmark=benchmark("db"),
            config=config,
            seconds=Seconds(seconds),
            phases=(phase,),
            events=EventCounts(1e9, 1e9, 0.0, 0.0, 0.0),
        )

    def test_saturated_run_counts_clamped_samples(self):
        from repro.obs.metrics import default_registry

        meter = PowerMeter(ATOM_45)
        clamp = default_registry().get("repro_meter_clamp_events_total")
        child = clamp.labels(machine=ATOM_45.key)
        before = child.value
        # The Atom rig uses the +/-5 A sensor on a 12 V rail: 80 W demands
        # ~6.7 A, past the rail, so every sample saturates.
        meter.measure(self._execution(watts=80.0))
        assert child.value - before >= 400  # 10 s at 50 Hz, most samples

    def test_comfortable_run_counts_nothing(self):
        from repro.obs.metrics import default_registry

        meter = PowerMeter(ATOM_45)
        clamp = default_registry().get("repro_meter_clamp_events_total")
        child = clamp.labels(machine=ATOM_45.key)
        before = child.value
        meter.measure(self._execution(watts=4.0))
        assert child.value == before
