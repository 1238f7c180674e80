"""Typed failure taxonomy of the measurement rig.

The paper's dataset came from a physical setup — Hall-effect sensors, an
AVR logging stick, BIOS-configured machines — and every stage of that rig
can fail: sensors drift or rail, the logger drops samples or disconnects,
a JVM invocation crashes or hangs.  This module names those failures as a
typed hierarchy so the campaign harness can react per class (retry a
crash, quarantine a persistently railing sensor) instead of pattern
matching on strings.

Every error carries the ``site`` that failed — the same
``config/benchmark/invocation`` key the seeding layer uses — so a failure
is attributable to one specific invocation of one benchmark on one
machine.
"""

from __future__ import annotations


class MeasurementError(RuntimeError):
    """Base class for every failure of the simulated measurement rig."""

    #: Stage of the pipeline this class belongs to (sensor/logger/
    #: invocation/meter/campaign); subclasses override.
    stage = "measurement"

    def __init__(self, message: str, site: str = "") -> None:
        super().__init__(message)
        self.site = site


class LoggerDropout(MeasurementError):
    """The AVR logging stick lost samples or disconnected mid-run."""

    stage = "logger"


class MeterSaturation(MeasurementError):
    """The metered rail saturated hard enough that no usable samples remain."""

    stage = "meter"


class InvocationCrash(MeasurementError):
    """A benchmark invocation died before producing a run (JVM crash,
    OOM kill, segfault in a native binary)."""

    stage = "invocation"


class InvocationTimeout(MeasurementError):
    """A benchmark invocation exceeded its timeout budget (simulated hang).

    ``elapsed_s`` is the simulated wall time spent before the harness gave
    up; no real time passes when the fault is injected.
    """

    stage = "invocation"

    def __init__(self, message: str, site: str = "", elapsed_s: float = 0.0) -> None:
        super().__init__(message, site=site)
        self.elapsed_s = elapsed_s


class RetriesExhausted(MeasurementError):
    """A site kept failing through every allowed retry.

    Carries the final underlying error as ``last_error``; the study turns
    this into a quarantine entry rather than aborting the campaign.
    """

    stage = "campaign"

    def __init__(
        self, message: str, site: str = "", last_error: MeasurementError | None = None
    ) -> None:
        super().__init__(message, site=site)
        self.last_error = last_error


class CheckpointError(MeasurementError):
    """A checkpoint file could not be parsed or applied."""

    stage = "campaign"
