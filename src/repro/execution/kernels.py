"""Compiled sweep kernels: a (benchmark, configuration) pair as one
numpy array program.

The scalar measurement path walks a pair's invocation loop one run at a
time: plan-cache lookup, two lognormal noise draws, a per-phase power
replay, a 50 Hz trace sampling, and a sensor/calibration pass per
invocation.  Every one of those steps is a pure function of the pair and
its per-site seeds, so this module *compiles* the whole loop once — into
per-phase factor vectors plus per-invocation seed tables — and replays it
as a handful of vectorised array operations:

* the deterministic skeleton comes from the engine's execution-plan cache
  (:meth:`~repro.execution.engine.ExecutionEngine.execution_plan`), with
  the package-power model folded into per-phase ``const + coeff *
  switching`` factors precomputed in the scalar model's exact operation
  order;
* the per-invocation noise scalars and per-sample noise streams are
  *seeded identically* to the scalar path — the kernel stores the derived
  integer seeds (``seed_from_key`` over the same ``run_key`` sites) and
  materialises the draws lazily on replay, keeping them in a per-process
  LRU bounded by bytes (:data:`DRAW_CACHE_CAP_BYTES`) and rebuilding an
  evicted pair's draws from its seeds when it replays again;
* the metering pipeline runs as one array pass through the shared
  transfers (:meth:`ProcessorSupply.volts_from_wander`,
  :meth:`HallEffectSensor.transfer_codes`) and an exact per-segment
  integer reduction (:meth:`PowerMeter.measure_kernel`).

Because every elementwise float64 ufunc agrees bit-for-bit with the
equivalent Python-scalar arithmetic on the same operands in the same
order, and every reduction here is an exact integer sum, a compiled
kernel's ``(seconds, watts)`` outputs are **byte-identical** to the
scalar path's — goldens, checkpoint bytes, and campaign health do not
move (docs/performance.md, "Vectorized path").

Kernels live in the engine's opaque kernel cache and ship to sweep
workers through ``WorkerSetup.kernels`` alongside the calibration
snapshot; their materialised draws are dropped on pickle
(:meth:`PairKernel.__getstate__`) and rebuilt from seeds on first use.
Pairs the compiler cannot express (unexpected phase shapes) and pairs a
:class:`~repro.faults.plan.FaultPlan` has armed fall back to the scalar
path per pair — counted in ``repro_kernel_scalar_fallbacks_total``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.seeding import run_key, seed_from_key
from repro.execution.engine import ExecutionEngine
from repro.execution.trace import sample_counts
from repro.hardware.config import Configuration
from repro.hardware.power import frequency_scale, voltage_scale
from repro.hardware.turbo import power_multiplier
from repro.measurement.meter import PowerMeter
from repro.obs.metrics import default_registry
from repro.runtime.methodology import MeasurementProtocol, STEADY_STATE_ITERATION
from repro.workloads.benchmark import Benchmark

_REGISTRY = default_registry()
_COMPILES = _REGISTRY.counter(
    "repro_kernel_compiles_total",
    "Sweep kernels compiled from execution plans",
)
_CACHE_HITS = _REGISTRY.counter(
    "repro_kernel_cache_hits_total",
    "Pair measurements answered by an already-compiled kernel",
)
_FALLBACKS = _REGISTRY.counter(
    "repro_kernel_scalar_fallbacks_total",
    "Pairs measured on the scalar path instead of a kernel, by reason",
)
_CACHE_BYTES = _REGISTRY.gauge(
    "repro_kernel_cache_bytes",
    "Bytes held by compiled kernels: serialized footprint plus the "
    "materialised draws the bounded draw cache currently keeps",
)

#: Byte cap on the materialised draws one process keeps.  Sized so the
#: warm 488-pair stock sweep's draws (79 MiB) stay resident; the whole
#: 2745-pair campaign's (430 MiB) do not, and a cold campaign, which
#: replays each pair once, never reads an evicted pair's draws again.
DRAW_CACHE_CAP_BYTES = 96 * 1024 * 1024


def note_fallback(reason: str) -> None:
    """Count one pair that took the scalar path (``reason`` is ``faults``
    for fault-armed pairs, ``shape``/``activity`` for plans the compiler
    declines, ``disabled`` when vectorisation is off)."""
    _FALLBACKS.labels(reason=reason).inc()


def kernel_stats() -> dict:
    """The kernel cache's counters as a plain dict — the shape
    ``/healthz`` embeds and ``repro top`` renders."""
    fallbacks = {
        child.label_values.get("reason", "unknown"): int(child.value)
        for child in _FALLBACKS.children()
    }
    return {
        "compiles": int(_COMPILES.value),
        "cache_hits": int(_CACHE_HITS.value),
        "fallbacks": fallbacks,
        "cache_bytes": int(_CACHE_BYTES.value),
    }


@dataclass
class _PairDraws:
    """One pair's fully materialised replay inputs (noise applied).

    Everything here is a deterministic function of the kernel's stored
    seeds, so it is rebuilt on demand and never serialised."""

    durations: np.ndarray  # (n,) per-invocation wall seconds
    counts: np.ndarray  # (n,) int64 samples per invocation
    offsets: np.ndarray  # (n,) int64 segment starts into the flat arrays
    true_watts: np.ndarray  # (total,) ground-truth power per sample
    peaks: np.ndarray  # (n,) per-invocation true peak power
    wander: np.ndarray  # (total,) supply-rail wander draws
    sensor_noise: np.ndarray  # (total,) sensor noise draws (volts)

    @property
    def nbytes(self) -> int:
        return (
            self.durations.nbytes + self.counts.nbytes + self.offsets.nbytes
            + self.true_watts.nbytes + self.peaks.nbytes
            + self.wander.nbytes + self.sensor_noise.nbytes
        )


class _DrawCache:
    """The per-process LRU of kernels whose draws are materialised.

    Holds a strong reference to every kernel it tracks (keyed by
    ``id(kernel)``, which the reference keeps from being recycled) and a
    running byte total; past :data:`DRAW_CACHE_CAP_BYTES` the oldest
    entries drop their draws (``_draws = None``) and rebuild them from
    seeds on their next replay.  A kernel is tracked exactly while its
    ``_draws`` is set through this cache.  Guarded by a lock because the
    campaign server measures from more than one thread."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict[int, PairKernel] = OrderedDict()
        self.nbytes = 0

    def admit(self, kernel: "PairKernel", draws: _PairDraws) -> _PairDraws:
        """Record ``kernel`` as most recently used, holding ``draws``
        (or the draws a concurrent replay already installed), evict
        past the cap, and return the draws to replay."""
        with self.lock:
            key = id(kernel)
            if key in self.entries:
                self.entries.move_to_end(key)
                return kernel._draws  # type: ignore[return-value]
            kernel._draws = draws
            self.entries[key] = kernel
            size = draws.nbytes
            self.nbytes += size
            _CACHE_BYTES.inc(size)
            while self.nbytes > DRAW_CACHE_CAP_BYTES and len(self.entries) > 1:
                _, oldest = self.entries.popitem(last=False)
                size = oldest._draws.nbytes  # type: ignore[union-attr]
                oldest._draws = None
                self.nbytes -= size
                _CACHE_BYTES.dec(size)
            return draws


_DRAW_CACHE = _DrawCache()
# A child forked while another thread held the lock would inherit it
# locked; taking it across the fork also keeps the entries and the byte
# total consistent in the child.
os.register_at_fork(
    before=_DRAW_CACHE.lock.acquire,
    after_in_parent=_DRAW_CACHE.lock.release,
    after_in_child=_DRAW_CACHE.lock.release,
)


@dataclass
class PairKernel:
    """One (benchmark, configuration, invocations) loop, compiled.

    The stored state is small and picklable: per-phase factor vectors
    (precomputed Python-scalar arithmetic in the scalar model's exact
    operation order) plus per-invocation integer seed tables.  The bulky
    per-sample draws (:class:`_PairDraws`) are materialised lazily on
    replay, kept only while the process's bounded draw cache has room
    for them, and dropped on pickle, so snapshots shipped to pool workers
    stay compact, and every rebuild from seeds (in a worker, or after an
    eviction) is deterministic, hence identical.
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
    time_seeds: tuple[int, ...]
    power_seeds: tuple[int, ...]
    supply_seeds: tuple[int, ...]
    sensor_seeds: tuple[int, ...]
    wander_sigma: float
    sensor_sigma: float
    rate_hz: float
    max_samples: Optional[int]
    _draws: Optional[_PairDraws] = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        """Serialise compactly: the materialised draws are pure functions
        of the seed tables, so they never travel — a worker that adopts
        this kernel re-derives byte-identical draws on first replay."""
        state = self.__dict__.copy()
        state["_draws"] = None
        return state

    @property
    def nbytes(self) -> int:
        """Approximate serialised footprint (factor arrays + seed
        tables), for the ``repro_kernel_cache_bytes`` gauge."""
        arrays = (
            self.phase_seconds, self.phase_const, self.phase_coeff,
            self.phase_switch, self.phase_smt, self.phase_turbo,
        )
        return sum(a.nbytes for a in arrays) + 8 * 4 * self.invocations

    # -- replay --------------------------------------------------------------

    def draws(self) -> _PairDraws:
        """The materialised replay inputs: rebuilt from seeds on a miss,
        then kept in the bounded draw cache as most recently used."""
        draws = self._draws
        if draws is None:
            draws = self._materialise()
        return _DRAW_CACHE.admit(self, draws)

    def _materialise(self) -> _PairDraws:
        """Re-derive every noise draw the scalar path would have made.

        Per-invocation scalars come from one-value draws on generators
        seeded exactly as :meth:`ExecutionEngine._noise` seeds them (the
        stored integers *are* ``seed_from_key`` of the same run keys);
        per-sample streams replay :meth:`ProcessorSupply.voltage_samples`
        and :meth:`HallEffectSensor.read_codes` draw-for-draw.  All the
        derived arrays are elementwise float64 arithmetic on the same
        operands in the same order as the scalar path, so every element
        is bit-identical to its scalar twin.
        """
        n = self.invocations
        if self.sigma_time == 0.0:
            tn = np.ones(n)
        else:
            tn = np.array([
                np.random.default_rng(seed).lognormal(mean=0.0, sigma=self.sigma_time)
                for seed in self.time_seeds
            ])
        if self.sigma_power == 0.0:
            pn = np.ones(n)
        else:
            pn = np.array([
                np.random.default_rng(seed).lognormal(mean=0.0, sigma=self.sigma_power)
                for seed in self.power_seeds
            ])
        if self.vendor_performance_factor is not None:
            tn = tn / self.vendor_performance_factor
        durations = self.base_seconds * tn
        counts = sample_counts(durations, self.rate_hz, self.max_samples)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        total = int(counts.sum())
        inv_index = np.repeat(np.arange(n), counts)

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

        if power.shape[1] == 1:
            # Constant-power runs never need sample times at all.
            true_watts = np.repeat(power[:, 0], counts)
        else:
            # Two phases, serial first: the piecewise trace is a single
            # threshold on the serial phase's noisy end time.  The scalar
            # path clips each time to the run's end and takes the last
            # level for anything past the first boundary — exactly this
            # ``>=`` (a clipped time can only move *down*, never across
            # the first boundary in the other direction).
            first_ends = self.phase_seconds[0] * tn
            pos = np.arange(total, dtype=np.int64) - offsets[inv_index]
            times = (pos + 0.5) * (durations / counts)[inv_index]
            true_watts = np.where(
                times >= first_ends[inv_index],
                power[:, 1][inv_index],
                power[:, 0][inv_index],
            )
        peaks = power.max(axis=1)

        # Per-sample noise streams, drawn per site salt exactly as the
        # supply and sensor draw them (one fresh generator per salt, one
        # normal vector per run) — segment i of the flat arrays holds
        # precisely what invocation i's scalar measurement would draw.
        wander = np.empty(total)
        sensor_noise = np.empty(total)
        start = 0
        for i in range(n):
            count = int(counts[i])
            wander[start:start + count] = np.random.default_rng(
                self.supply_seeds[i]
            ).normal(0.0, self.wander_sigma, size=count)
            sensor_noise[start:start + count] = np.random.default_rng(
                self.sensor_seeds[i]
            ).normal(0.0, self.sensor_sigma, size=count)
            start += count
        return _PairDraws(
            durations=durations,
            counts=counts,
            offsets=offsets,
            true_watts=true_watts,
            peaks=peaks,
            wander=wander,
            sensor_noise=sensor_noise,
        )


def kernel_key(
    benchmark: Benchmark,
    config: Configuration,
    protocol: MeasurementProtocol,
    invocations: int,
) -> tuple:
    """The engine kernel-cache key for one pair's compiled loop.

    Mirrors the execution-plan cache's iteration normalisation so two
    protocols that resolve to the same effective iteration share one
    kernel."""
    effective_iteration = (
        (protocol.iteration or STEADY_STATE_ITERATION) if benchmark.managed else None
    )
    return (benchmark, config.key, effective_iteration, invocations)


def compile_pair(
    engine: ExecutionEngine,
    meter: PowerMeter,
    benchmark: Benchmark,
    config: Configuration,
    protocol: MeasurementProtocol,
    invocations: int,
) -> Optional[PairKernel]:
    """Compile (or fetch) the kernel for one pair's invocation loop.

    Returns ``None`` — after counting the fallback — for plans the
    compiler does not express: anything but the engine's one- or
    two-phase (serial, parallel) shape, or a non-positive activity base
    (which the scalar model rejects too).  The factor precomputation
    below is deliberately *Python-scalar* arithmetic copied operation for
    operation from :func:`repro.hardware.power.package_power`, so the
    folded constants are the exact floats the scalar path computes."""
    key = kernel_key(benchmark, config, protocol, invocations)
    cached = engine.cached_kernel(key)
    if cached is not None:
        _CACHE_HITS.inc()
        return cached  # type: ignore[return-value]

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
    salts = [f"{config.key}/{benchmark.name}/{i}" for i in range(invocations)]
    supply_key = meter.supply.machine_key
    sensor_key = meter.sensor.sensor_key
    logger = meter.logger
    kernel = PairKernel(
        benchmark_name=benchmark.name,
        config_key=config.key,
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
        time_seeds=tuple(
            seed_from_key(run_key(root, "time", benchmark.name, config.key, i))
            for i in range(invocations)
        ),
        power_seeds=tuple(
            seed_from_key(run_key(root, "power", benchmark.name, config.key, i))
            for i in range(invocations)
        ),
        supply_seeds=tuple(
            seed_from_key(run_key("supply", supply_key, salt)) for salt in salts
        ),
        sensor_seeds=tuple(
            seed_from_key(run_key("sensor-read", sensor_key, salt)) for salt in salts
        ),
        wander_sigma=meter.supply.wander_sigma,
        sensor_sigma=meter.sensor.noise_sigma_volts,
        rate_hz=logger.rate_hz,
        max_samples=logger.max_samples,
    )
    engine.store_kernel(key, kernel)
    _COMPILES.inc()
    _CACHE_BYTES.inc(kernel.nbytes)
    return kernel


def run_pair(
    kernel: PairKernel, engine: ExecutionEngine, meter: PowerMeter
) -> tuple[list[float], list[float]]:
    """Replay one compiled pair: ``(seconds, watts)`` per invocation,
    byte-identical to the scalar loop's, plus the same telemetry totals
    (bulk execution/phase counters, meter sample/clamp counts)."""
    draws = kernel.draws()
    watts = meter.measure_kernel(
        draws.true_watts,
        draws.counts,
        draws.offsets,
        draws.peaks,
        draws.wander,
        draws.sensor_noise,
    )
    engine.record_plan_replays(
        kernel.invocations,
        kernel.serial_phases * kernel.invocations,
        kernel.parallel_phases * kernel.invocations,
    )
    return draws.durations.tolist(), watts


def measure_pair(
    engine: ExecutionEngine,
    meter: PowerMeter,
    benchmark: Benchmark,
    config: Configuration,
    protocol: MeasurementProtocol,
    invocations: int,
) -> Optional[tuple[list[float], list[float]]]:
    """The study's entry point: compile-or-fetch, then replay.

    ``None`` means the pair needs the scalar path (the fallback has
    already been counted)."""
    kernel = compile_pair(engine, meter, benchmark, config, protocol, invocations)
    if kernel is None:
        return None
    return run_pair(kernel, engine, meter)
