"""The AVR data-logging stick (§2.5).

"We send the measured values from the current sensor to the measured
machine's USB port using Sparkfun's Atmel AVR Stick, which is a simple
data-logging device.  We use a data-sampling rate of 50 Hz."

The logger samples the sensor's analog output on a fixed clock for the
duration of a benchmark run and emits the raw integer codes.

This is also where an armed fault injector touches the sample stream:
sensor-stage corruptions (glitches, drift, stuck-at codes) apply to the
codes as they are read, and logger-stage faults (sample gaps, mid-run
disconnects) to what survives onto the USB bus.  Calibration reads the
sensor directly and is never corrupted — a broken calibration would fail
the R² gate rather than model a run-time fault.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.execution.trace import PowerTrace
from repro.faults.injector import active as _faults_active
from repro.measurement.sensor import ADC_COUNTS, HallEffectSensor
from repro.measurement.supply import ProcessorSupply

#: The paper's sampling rate.
SAMPLE_RATE_HZ = 50.0


@dataclass(frozen=True)
class LoggedRun:
    """Raw output of one logged benchmark run."""

    sample_times: np.ndarray
    codes: np.ndarray
    rate_hz: float

    def __post_init__(self) -> None:
        if len(self.sample_times) != len(self.codes):
            raise ValueError("sample times and codes must align")
        if len(self.codes) == 0:
            raise ValueError(
                "a logged run needs at least one sample: the sample array "
                "is empty, which usually means a logger dropout or "
                "disconnect consumed the whole record — re-run the "
                "invocation rather than averaging nothing"
            )

    @property
    def sample_count(self) -> int:
        return len(self.codes)


#: Sample cap for very long runs: the power signal has at most a handful
#: of constant pieces, so two thousand samples average the noise as well
#: as a hundred thousand would.
DEFAULT_MAX_SAMPLES = 2000


@dataclass(frozen=True)
class DataLogger:
    """A 50 Hz sampling logger attached to one sensor and supply rail."""

    sensor: HallEffectSensor
    supply: ProcessorSupply
    rate_hz: float = SAMPLE_RATE_HZ
    max_samples: int | None = DEFAULT_MAX_SAMPLES

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError("sampling rate must be positive")
        if self.max_samples is not None and self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")

    def log(self, trace: PowerTrace, run_salt: str) -> LoggedRun:
        """Sample a run's true power through the sensor into ADC codes.

        ``run_salt`` distinguishes repeated runs so their noise streams
        are independent but reproducible.
        """
        times = trace.sample_times(self.rate_hz, max_samples=self.max_samples)
        voltages = self.supply.voltage_samples(len(times), seed_salt=run_salt)
        true_watts = trace.powers_at(times)
        currents = true_watts / voltages
        codes = self.sensor.read_codes(currents, seed_salt=run_salt)
        injector = _faults_active()
        if injector is not None:
            codes = injector.corrupt_sensor_codes(
                run_salt, codes, ADC_COUNTS - 1
            )
            times, codes = injector.filter_logged_samples(run_salt, times, codes)
        return LoggedRun(sample_times=times, codes=codes, rate_hz=self.rate_hz)
