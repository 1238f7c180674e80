"""End-to-end power measurement (§2.5).

"We execute each benchmark, log its measured power values, and then compute
the average power consumption over the duration of the benchmark."

:class:`PowerMeter` assembles the full physical pipeline — isolated 12 V
rail, Hall-effect sensor, 50 Hz logger, per-sensor calibration — and turns
an :class:`~repro.execution.engine.Execution` into the measured average
power the analyses consume.  Meters are built once per machine, mirroring
the physical setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantities import Watts
from repro.execution.engine import Execution
from repro.execution.trace import trace_of
from repro.faults.injector import active as _faults_active
from repro.hardware.processor import ProcessorSpec
from repro.measurement.calibration import SensorCalibration, calibrate
from repro.measurement.logger import DataLogger, LoggedRun
from repro.measurement.sensor import ADC_COUNTS, HallEffectSensor, sensor_for_processor
from repro.measurement.supply import ProcessorSupply
from repro.obs.metrics import default_registry, enabled as _metrics_enabled

_REGISTRY = default_registry()
_SAMPLES = _REGISTRY.counter(
    "repro_meter_samples_total",
    "50 Hz power samples drawn through the sensor pipeline, by machine",
)
_CLAMP_EVENTS = _REGISTRY.counter(
    "repro_meter_clamp_events_total",
    "Samples clamped at the sensor or ADC rails (saturation), by machine",
)

#: Codes within this band of the rail count as clamped: a railed sample
#: still scatters by quantisation, sensor noise, and fit error.
_SAT_GUARD_CODES = 3.0


@dataclass(frozen=True)
class Measurement:
    """One measured run: the quantities the paper's dataset records."""

    average_watts: float
    sample_count: int
    seconds: float

    @property
    def average_power(self) -> Watts:
        return Watts(self.average_watts)

    @property
    def energy_joules(self) -> float:
        return self.average_watts * self.seconds


class PowerMeter:
    """The measurement rig attached to one experimental machine."""

    def __init__(self, spec: ProcessorSpec) -> None:
        self._spec = spec
        self._sensor = sensor_for_processor(spec.key, max_power_watts=spec.tdp_w)
        self._supply = ProcessorSupply(machine_key=spec.key)
        self._logger = DataLogger(sensor=self._sensor, supply=self._supply)
        self._calibration = calibrate(self._sensor)
        self._samples_metric = _SAMPLES.labels(machine=spec.key)
        self._clamp_metric = _CLAMP_EVENTS.labels(machine=spec.key)
        # Saturation telemetry, precomputed: the codes the logger reports
        # when the Hall sensor rails at +/- its current range (the ADC
        # itself clips too, whichever bites first), and the true package
        # power below which no sample can rail.  The guard keeps the
        # per-sample scan off the hot path — a 0.9 margin absorbs supply
        # droop and sensor noise.
        fit = self._calibration.fit
        rail = self._sensor.range_amps
        # A railed sample still carries quantisation + sensor noise
        # (+/- a couple of codes), so the rail threshold gets a guard band.
        guard = _SAT_GUARD_CODES
        self._sat_code_high = min(fit.intercept + fit.slope * rail - guard,
                                  float(ADC_COUNTS - 1))
        self._sat_code_low = max(fit.intercept - fit.slope * rail + guard, 0.0)
        self._sat_scan_watts = 0.9 * rail * self._supply.nominal.value
        # The unguarded code the sensor pins at when driven past +range —
        # where an injected saturation burst parks its samples.
        self._rail_code = int(round(min(fit.intercept + fit.slope * rail,
                                        float(ADC_COUNTS - 1))))

    @property
    def spec(self) -> ProcessorSpec:
        return self._spec

    @property
    def sensor(self) -> HallEffectSensor:
        return self._sensor

    @property
    def supply(self) -> ProcessorSupply:
        return self._supply

    @property
    def logger(self) -> DataLogger:
        return self._logger

    @property
    def calibration(self) -> SensorCalibration:
        return self._calibration

    def clamped_sample_count(self, codes: np.ndarray) -> int:
        """Samples sitting on (or within the guard band of) either rail —
        the quantity the clamp-event telemetry reports."""
        return int(np.count_nonzero(
            (codes <= self._sat_code_low) | (codes >= self._sat_code_high)
        ))

    def measure(self, execution: Execution, run_salt: str = "run0") -> Measurement:
        """Measure one execution: log at 50 Hz, calibrate codes back to
        amperes, convert to watts on the nominal rail, and average."""
        if execution.config.spec.key != self._spec.key:
            raise ValueError(
                f"meter is attached to {self._spec.key}, not "
                f"{execution.config.spec.key}"
            )
        trace = trace_of(execution)
        logged = self._logger.log(trace, run_salt=run_salt)
        injector = _faults_active()
        if injector is not None:
            faulted = injector.saturate_meter_codes(
                run_salt, logged.codes, self._rail_code
            )
            if faulted is not logged.codes:
                logged = LoggedRun(
                    sample_times=logged.sample_times,
                    codes=faulted,
                    rate_hz=logged.rate_hz,
                )
        if _metrics_enabled():
            self._samples_metric.inc(logged.sample_count)
            # Samples can only sit on a rail if some phase's true power
            # approaches the sensor's range, so a scalar compare against
            # the trace's peak level gates the per-sample scan — except
            # under fault injection, where a saturation burst can rail
            # samples at any true power and must still be counted.
            if injector is not None or trace.peak >= self._sat_scan_watts:
                clamped = self.clamped_sample_count(logged.codes)
                if clamped:
                    self._clamp_metric.inc(clamped)
        return Measurement(
            average_watts=self._average_watts(logged.codes),
            sample_count=logged.sample_count,
            seconds=execution.seconds.value,
        )

    def measure_kernel(
        self,
        true_watts: np.ndarray,
        counts: np.ndarray,
        offsets: np.ndarray,
        peaks: np.ndarray,
        peak: float,
        wander: np.ndarray,
        sensor_noise: np.ndarray,
    ) -> list[float]:
        """Meter a compiled pair kernel: every invocation's samples in
        one array pass.

        ``true_watts`` concatenates the pair's per-sample ground-truth
        power (segment ``i`` spans ``offsets[i]:offsets[i]+counts[i]``);
        ``wander``/``sensor_noise`` are the pre-drawn per-salt noise
        streams (:mod:`repro.execution.kernels` draws them from the same
        seeds the per-run path derives).  The pipeline reuses the exact
        shared transfers — :meth:`ProcessorSupply.volts_from_wander` and
        :meth:`HallEffectSensor.transfer_codes` — and the per-segment
        reduction is an exact integer sum (``np.add.reduceat`` over
        int64 codes), so each returned average is bit-identical to
        :meth:`measure` on that invocation alone.  Saturation telemetry
        follows :meth:`measure`'s fault-free gate: segments whose true
        peak (``peaks``) clears the scan threshold contribute their
        clamped samples to the clamp counter, and the pair's peak
        (``peak``, the kernel's ``peaks.max()``, taken once per kernel)
        skips the scan when no segment does.
        """
        # ``true_watts / voltages``, written over the voltages array the
        # transfer just built.
        currents = self._supply.volts_from_wander(wander)
        np.divide(true_watts, currents, out=currents)
        codes = self._sensor.transfer_codes(currents, sensor_noise)
        sums = np.add.reduceat(codes, offsets)
        mean_codes = sums / counts
        fit = self._calibration.fit
        watts = (mean_codes - fit.intercept) / fit.slope * self._supply.nominal.value
        if _metrics_enabled():
            # The flat sample array's length is the pair's sample total,
            # and the pair's peak gates the per-sample scan.
            self._samples_metric.inc(true_watts.size)
            if peak >= self._sat_scan_watts:
                hot = peaks >= self._sat_scan_watts
                railed = (codes <= self._sat_code_low) | (codes >= self._sat_code_high)
                per_run = np.add.reduceat(railed.astype(np.int64), offsets)
                clamped = int(per_run[hot].sum())
                if clamped:
                    self._clamp_metric.inc(clamped)
        return watts.tolist()

    def _average_watts(self, codes: np.ndarray) -> float:
        """Calibrated average power of one run's codes, in a single fused
        pass.

        The sum is taken over the codes as exact integers
        (``np.add.reduce`` with an int64 accumulator) rather than by
        float accumulation: ADC codes are < 2**10 and runs < 2**11
        samples, so the integer sum — hence the mean and everything
        downstream — is *provably* exact at any magnitude, and in
        particular equal to the compiled-kernel path's per-segment
        ``np.add.reduceat`` regardless of summation order.  Averaging
        the codes first and applying the affine calibration once is then
        bit-for-bit independent of whether the codes arrived standalone
        or as a kernel segment — and skips the
        ``astype(float)`` copy and per-sample affine of the naive path."""
        fit = self._calibration.fit
        total = int(np.add.reduce(codes, dtype=np.int64))
        mean_code = total / codes.size
        return (mean_code - fit.intercept) / fit.slope * self._supply.nominal.value


_METERS: dict[str, PowerMeter] = {}


def meter_for(spec: ProcessorSpec) -> PowerMeter:
    """The process-wide meter for a machine (built and calibrated once)."""
    meter = _METERS.get(spec.key)
    if meter is None:
        meter = PowerMeter(spec)
        _METERS[spec.key] = meter
    return meter


def reset_meters() -> None:
    """Tear down every cached meter so the next :func:`meter_for` builds
    and recalibrates afresh — test fixtures use this to stop one test's
    rig state leaking into the next."""
    _METERS.clear()
