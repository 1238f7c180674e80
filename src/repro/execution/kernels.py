"""Compiled sweep kernels: a (benchmark, configuration) pair as one
numpy array program.

The scalar measurement path walks a pair's invocation loop one run at a
time: two lognormal noise draws on the pair's execution plan, a
per-phase power replay, a 50 Hz trace sampling, and a sensor/calibration
pass per invocation.  Every one of those steps is a pure function of the pair and
its per-site seeds, so this module *compiles* the whole loop once — into
per-phase factor vectors plus per-invocation seed tables — and replays it
as a handful of vectorised array operations:

* the deterministic skeleton is the pair's execution plan, built once
  (:meth:`~repro.execution.engine.ExecutionEngine.execution_plan`), with
  the package-power model folded into per-phase ``const + coeff *
  switching`` factors precomputed in the scalar model's exact operation
  order;
* the per-invocation noise scalars and per-sample noise streams are
  *seeded identically* to the scalar path — the kernel stores the derived
  integer seeds (``seed_from_key`` over the same ``run_key`` sites, hashed
  a stream at a time by :func:`~repro.core.seeding.site_seeds`).  On
  its first replay it draws and keeps its per-invocation scalars (noisy
  durations, sample counts, per-phase power: a few scalars per
  invocation); the per-sample arrays (true power, supply wander, sensor
  noise) are rebuilt on every replay and freed once metered, so a
  kernel's memory grows with its invocations, never with its samples;
* each site's stream starts in the state the scalar path's fresh
  per-site generator starts in, without building one per site:
  :func:`prime` derives the PCG64 start states of a whole sweep's
  kernels in one vectorised pass
  (:func:`~repro.core.seeding.pcg64_seed_table` and
  :func:`~repro.core.seeding.pcg64_states`), the kernel keeps them,
  in its thread writer's word order, and replay writes each site's row
  straight into its thread's one generator
  (:class:`~repro.core.seeding.PCG64Writer`) before drawing.  A kernel
  nobody primed derives its own seeds' states on its first replay;
* the metering pipeline runs as one array pass through the shared
  transfers (:meth:`ProcessorSupply.volts_from_wander`,
  :meth:`HallEffectSensor.transfer_codes`, both in place on the arrays
  the replay just built) and an exact per-segment integer reduction
  (:meth:`PowerMeter.measure_kernel`).

Because every elementwise float64 ufunc agrees bit-for-bit with the
equivalent Python-scalar arithmetic on the same operands in the same
order, and every reduction here is an exact integer sum, a compiled
kernel's ``(seconds, watts)`` outputs are **byte-identical** to the
scalar path's — goldens, checkpoint bytes, and campaign health do not
move (docs/performance.md, "Vectorized path").

A kernel lives for one pair's measurement: :func:`compile_pair` builds
it, :func:`run_pair` replays it and the caller drops it, so nothing
accumulates across pairs (a pool worker compiles the kernels of its own
chunk).  Pairs the compiler cannot express (unexpected phase shapes) and
pairs a :class:`~repro.faults.plan.FaultPlan` has armed fall back to the
scalar path per pair — counted in
``repro_kernel_scalar_fallbacks_total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.core.seeding import (
    pcg64_seed_table,
    pcg64_states,
    site_seeds,
    thread_writer,
)
from repro.execution.engine import ExecutionEngine
from repro.execution.trace import sample_counts
from repro.hardware.config import Configuration
from repro.hardware.power import frequency_scale, voltage_scale
from repro.hardware.turbo import power_multiplier
from repro.measurement.meter import PowerMeter
from repro.obs.metrics import default_registry
from repro.runtime.methodology import MeasurementProtocol
from repro.workloads.benchmark import Benchmark

_REGISTRY = default_registry()
_COMPILES = _REGISTRY.counter(
    "repro_kernel_compiles_total",
    "Sweep kernels compiled from execution plans",
)
_FALLBACKS = _REGISTRY.counter(
    "repro_kernel_scalar_fallbacks_total",
    "Pairs measured on the scalar path instead of a kernel, by reason",
)


def note_fallback(reason: str) -> None:
    """Count one pair that took the scalar path (``reason`` is ``faults``
    for fault-armed pairs, ``shape``/``activity`` for plans the compiler
    declines; a study with vectorisation off counts nothing)."""
    _FALLBACKS.labels(reason=reason).inc()


def kernel_stats() -> dict:
    """The kernel counters as a plain dict — the shape ``/healthz``
    embeds and ``repro top`` renders."""
    fallbacks = {
        child.label_values.get("reason", "unknown"): int(child.value)
        for child in _FALLBACKS.children()
    }
    return {
        "compiles": int(_COMPILES.value),
        "fallbacks": fallbacks,
    }


@dataclass
class _Invocations:
    """One pair's per-invocation replay state (noise applied).

    A few scalars per invocation, drawn on the kernel's first replay and
    kept for its life; every field is a deterministic function of the
    kernel's stored seeds, so it is never serialised."""

    durations: np.ndarray  # (n,) per-invocation wall seconds
    counts: np.ndarray  # (n,) int64 samples per invocation
    offsets: np.ndarray  # (n,) int64 segment starts into the per-sample arrays
    first_ends: np.ndarray  # (n,) noisy end time of the first phase
    power: np.ndarray  # (n, P) true power per invocation and phase
    peaks: np.ndarray  # (n,) per-invocation true peak power
    peak: float  # the pair's true peak power, max of ``peaks``


def _scale_normals(z: np.ndarray, sigma: float) -> None:
    """Turn standard normals into ``normal(0.0, sigma)`` draws in place.

    numpy's ``normal(loc, scale)`` computes ``loc + scale * z`` per
    element: the same product, and adding ``0.0`` turns a ``-0.0``
    product into the ``+0.0`` that ``0.0 + (-0.0)`` gives, so the result
    is bit-identical for every ``sigma``, zero included."""
    z *= sigma
    z += 0.0


@dataclass
class PairKernel:
    """One (benchmark, configuration, invocations) loop, compiled.

    The stored state is small: per-phase factor vectors (precomputed
    Python-scalar arithmetic in the scalar model's exact operation order)
    plus per-invocation ``uint64`` seed tables.  Replay state is split by
    size.  The per-invocation scalars (:class:`_Invocations`) and the
    PCG64 start states are computed on the first replay and kept — under
    200 bytes per invocation.  The per-sample arrays (true power, supply
    wander, sensor noise) are rebuilt on every replay and freed once
    metered; every rebuild from seeds is deterministic, hence identical.
    """

    benchmark_name: str
    config_key: str
    invocations: int
    # --- deterministic skeleton (per-phase factor vectors, shape (P,))
    base_seconds: float
    phase_seconds: np.ndarray  # noise-free seconds of each phase
    phase_const: np.ndarray  # uncore + idle watts
    phase_coeff: np.ndarray  # (core_active_watts * busy) * dynamic_scale
    phase_switch: np.ndarray  # 0.35 + 0.65 * utilisation
    phase_smt: np.ndarray  # SMT power-overhead factor
    phase_turbo: np.ndarray  # turbo power multiplier
    serial_phases: int
    parallel_phases: int
    activity_base: float
    vendor_activity_factor: Optional[float]
    vendor_performance_factor: Optional[float]
    # --- per-invocation noise parameters and seed tables
    sigma_time: float
    sigma_power: float
    time_seeds: np.ndarray  # (n,) uint64
    power_seeds: np.ndarray
    supply_seeds: np.ndarray
    sensor_seeds: np.ndarray
    wander_sigma: float
    sensor_sigma: float
    rate_hz: float
    max_samples: Optional[int]
    _invocations: Optional[_Invocations] = field(
        default=None, repr=False, compare=False
    )
    # (4n, 4) uint64 PCG64 start states of the time, power, supply and
    # sensor seeds, in that order, each row in the thread writer's word
    # order: set by :func:`prime` or the first replay, then kept.
    _states: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    # -- replay --------------------------------------------------------------

    def _materialise(self) -> _Invocations:
        """The per-invocation replay state: drawn on the first call, then
        kept.

        The noise scalars come from one-value draws on a generator put in
        the state :meth:`ExecutionEngine._noise`'s generators start in
        (the stored integers *are* ``seed_from_key`` of the same run
        keys; their start states come from :func:`prime`, which an
        unprimed kernel runs on its own seeds).  All the derived arrays
        are elementwise float64 arithmetic on the same operands in the
        same order as the scalar path, so every element is bit-identical
        to its scalar twin.  Two threads replaying an
        unmaterialised kernel at once both draw it; the draws are equal,
        so either may be kept.
        """
        kept = self._invocations
        if kept is not None:
            return kept
        n = self.invocations
        prime((self,))
        tn = _lognormals(self._states[:n], self.sigma_time)
        pn = _lognormals(self._states[n:2 * n], self.sigma_power)
        if self.vendor_performance_factor is not None:
            tn = tn / self.vendor_performance_factor
        durations = self.base_seconds * tn
        counts = sample_counts(durations, self.rate_hz, self.max_samples)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])

        # Per-(invocation, phase) power, replaying package_power's exact
        # operation order: ((activity * smt) * switch-blend) scaled by the
        # precomputed coefficient, plus the constant floor, times turbo.
        act = self.activity_base * pn
        if self.vendor_activity_factor is not None:
            act = act * self.vendor_activity_factor
        act_phase = act[:, None] * self.phase_smt[None, :]
        switching = act_phase * self.phase_switch[None, :]
        active = self.phase_coeff[None, :] * switching
        power = (self.phase_const[None, :] + active) * self.phase_turbo[None, :]
        peaks = power.max(axis=1)
        kept = self._invocations = _Invocations(
            durations=durations,
            counts=counts,
            offsets=offsets,
            first_ends=self.phase_seconds[0] * tn,
            power=power,
            peaks=peaks,
            peak=float(peaks.max()),
        )
        return kept

    def _samples(
        self, inv: _Invocations
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rebuild one replay's per-sample arrays: ``(true_watts, wander,
        sensor_noise)``, each one value per 50 Hz sample of every
        invocation, segment ``i`` at ``inv.offsets[i]``.

        The noise streams replay :meth:`ProcessorSupply.voltage_samples`
        and :meth:`HallEffectSensor.read_codes` draw-for-draw: each salt's
        stream from its start state, one normal vector per run, drawn
        straight into its segment and scaled in one pass."""
        n = self.invocations
        counts = inv.counts
        total = int(counts.sum())
        if inv.power.shape[1] == 1:
            # Constant-power runs never need sample times at all.
            true_watts = np.repeat(inv.power[:, 0], counts)
        else:
            # Two phases, serial first: the piecewise trace is a single
            # threshold on the serial phase's noisy end time.  The scalar
            # path clips each time to the run's end and takes the last
            # level for anything past the first boundary — exactly this
            # ``>=`` (a clipped time can only move *down*, never across
            # the first boundary in the other direction).
            inv_index = np.repeat(np.arange(n), counts)
            pos = np.arange(total, dtype=np.int64) - inv.offsets[inv_index]
            times = (pos + 0.5) * (inv.durations / counts)[inv_index]
            true_watts = np.where(
                times >= inv.first_ends[inv_index],
                inv.power[:, 1][inv_index],
                inv.power[:, 0][inv_index],
            )

        writer = thread_writer()
        view, rng = writer.view, writer.generator
        wander = np.empty(total)
        sensor_noise = np.empty(total)
        sites = zip(
            inv.offsets.tolist(), counts.tolist(),
            self._states[2 * n:3 * n], self._states[3 * n:],
        )
        for start, count, wander_row, sensor_row in sites:
            stop = start + count
            view[:] = wander_row
            rng.standard_normal(out=wander[start:stop])
            view[:] = sensor_row
            rng.standard_normal(out=sensor_noise[start:stop])
        _scale_normals(wander, self.wander_sigma)
        _scale_normals(sensor_noise, self.sensor_sigma)
        return true_watts, wander, sensor_noise


def _lognormals(rows: np.ndarray, sigma: float) -> np.ndarray:
    """One ``lognormal(0.0, sigma)`` per start-state row (ones if ``sigma`` is 0)."""
    if sigma == 0.0:
        return np.ones(len(rows))
    writer = thread_writer()
    view, rng = writer.view, writer.generator
    draws = np.empty(len(rows))
    for i, row in enumerate(rows):
        view[:] = row
        draws[i] = rng.lognormal(mean=0.0, sigma=sigma)
    return draws


def prime(kernels: Iterable[PairKernel]) -> None:
    """Derive the PCG64 start states of every kernel about to replay in
    one vectorised pass.

    Building a site's state alone costs about as much as the generator
    it replaces; the batch is what makes them cheap, so callers prime a
    whole sweep's (or a worker chunk's) kernels at once.  Kernels that
    hold their states already (primed, or replayed before) are skipped.
    Each kernel keeps its own copy of its rows, not a view of the batch,
    so the batch is freed as soon as this returns.  Rows are permuted
    into the writer's word order here, once per batch."""
    todo = [k for k in kernels if k._states is None]
    if not todo:
        return
    seeds = [
        stream for k in todo
        for stream in (k.time_seeds, k.power_seeds, k.supply_seeds, k.sensor_seeds)
    ]
    table = pcg64_states(pcg64_seed_table(np.concatenate(seeds)))
    table = table[:, thread_writer().order]
    start = 0
    for kernel in todo:
        stop = start + 4 * kernel.invocations
        kernel._states = table[start:stop].copy()
        start = stop


def compile_pair(
    engine: ExecutionEngine,
    meter: PowerMeter,
    benchmark: Benchmark,
    config: Configuration,
    protocol: MeasurementProtocol,
    invocations: int,
) -> Optional[PairKernel]:
    """Compile the kernel for one pair's invocation loop.

    Returns ``None`` — after counting the fallback — for plans the
    compiler does not express: anything but the engine's one- or
    two-phase (serial, parallel) shape, or a non-positive activity base
    (which the scalar model rejects too).  The factor precomputation
    below is deliberately *Python-scalar* arithmetic copied operation for
    operation from :func:`repro.hardware.power.package_power`, so the
    folded constants are the exact floats the scalar path computes."""
    plan = engine.execution_plan(benchmark, config, protocol.iteration)
    phases = plan.phases
    if len(phases) not in (1, 2) or (
        len(phases) == 2 and phases[0].name != "serial"
    ):
        note_fallback("shape")
        return None
    if plan.activity_base <= 0.0:
        note_fallback("activity")
        return None

    character = config.spec.power
    dynamic_scale = voltage_scale(config) * frequency_scale(config)
    uncore_dyn = character.uncore_dynamic_fraction
    uncore = character.uncore_watts * (1.0 - uncore_dyn + uncore_dyn * dynamic_scale)
    idle = character.core_idle_watts * config.active_cores * dynamic_scale
    const = uncore + idle

    phase_seconds: list[float] = []
    phase_const: list[float] = []
    phase_coeff: list[float] = []
    phase_switch: list[float] = []
    phase_smt: list[float] = []
    phase_turbo: list[float] = []
    serial = 0
    for skeleton in phases:
        if skeleton.name == "serial":
            serial += 1
        busy = min(skeleton.busy_cores, config.active_cores)
        phase_seconds.append(skeleton.base_seconds)
        phase_const.append(const)
        phase_coeff.append(character.core_active_watts * busy * dynamic_scale)
        phase_switch.append(0.35 + 0.65 * skeleton.utilisation)
        phase_smt.append(skeleton.smt_factor)
        phase_turbo.append(power_multiplier(config, skeleton.turbo))

    root = engine.seed_root
    config_key, name = config.key, benchmark.name
    # Every site key is ``run_key(...)`` of its stream's parts with the
    # invocation index last, so each stream hashes from one prefix; the
    # meter's per-run salt is ``{config_key}/{name}/{i}``.
    salt = f"{config_key}/{name}/"
    supply_key = meter.supply.machine_key
    sensor_key = meter.sensor.sensor_key
    logger = meter.logger
    kernel = PairKernel(
        benchmark_name=name,
        config_key=config_key,
        invocations=invocations,
        base_seconds=plan.base_seconds,
        phase_seconds=np.array(phase_seconds),
        phase_const=np.array(phase_const),
        phase_coeff=np.array(phase_coeff),
        phase_switch=np.array(phase_switch),
        phase_smt=np.array(phase_smt),
        phase_turbo=np.array(phase_turbo),
        serial_phases=serial,
        parallel_phases=len(phases) - serial,
        activity_base=plan.activity_base,
        vendor_activity_factor=plan.vendor_activity_factor,
        vendor_performance_factor=plan.vendor_performance_factor,
        sigma_time=engine.noise_sigma(benchmark, channel="time"),
        sigma_power=engine.noise_sigma(benchmark, channel="power", scale=1.6),
        time_seeds=site_seeds(f"{root}/time/{name}/{config_key}/", invocations),
        power_seeds=site_seeds(f"{root}/power/{name}/{config_key}/", invocations),
        supply_seeds=site_seeds(f"supply/{supply_key}/{salt}", invocations),
        sensor_seeds=site_seeds(f"sensor-read/{sensor_key}/{salt}", invocations),
        wander_sigma=meter.supply.wander_sigma,
        sensor_sigma=meter.sensor.noise_sigma_volts,
        rate_hz=logger.rate_hz,
        max_samples=logger.max_samples,
    )
    _COMPILES.inc()
    return kernel


def run_pair(
    kernel: PairKernel, engine: ExecutionEngine, meter: PowerMeter
) -> tuple[list[float], list[float]]:
    """Replay one compiled pair: ``(seconds, watts)`` per invocation,
    byte-identical to the scalar loop's, plus the same telemetry totals
    (bulk execution/phase counters, meter sample/clamp counts)."""
    inv = kernel._materialise()
    true_watts, wander, sensor_noise = kernel._samples(inv)
    watts = meter.measure_kernel(
        true_watts, inv.counts, inv.offsets, inv.peaks, inv.peak, wander,
        sensor_noise,
    )
    engine.record_plan_replays(
        kernel.invocations,
        kernel.serial_phases * kernel.invocations,
        kernel.parallel_phases * kernel.invocations,
    )
    return inv.durations.tolist(), watts
