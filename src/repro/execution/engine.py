"""The execution engine: runs a benchmark on a processor configuration.

``ExecutionEngine.execute`` is the testbed: it produces the ground-truth
execution (wall time, per-phase power, event counters) that the measurement
substrate then observes through the Hall-effect sensor pipeline, exactly
mirroring the paper's physical setup.

An execution has up to two work phases — the Amdahl serial fraction on one
core and the parallel fraction across the placed threads — plus, for Java,
runtime-service work that either serialises with the application or
overlaps on spare contexts (:mod:`repro.runtime.jvm`).  Turbo Boost is
resolved per phase, because the boost depends on how many cores the phase
keeps busy (§3.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.quantities import Hertz, Joules, Seconds, Watts, energy
from repro.core.seeding import rng_for, run_key
from repro.execution.cpi import CpiBreakdown, thread_cpi
from repro.faults.injector import active as _faults_active
from repro.execution.scaling import (
    Placement,
    aggregate_throughput,
    place_threads,
    sync_inflation,
)
from repro.hardware.config import Configuration
from repro.hardware.events import EventCounts
from repro.hardware.memory import capped_throughput
from repro.hardware.power import package_power
from repro.hardware.turbo import TurboState, resolve as resolve_turbo
from repro.native.binary import NATIVE_VARIABILITY, binary_for
from repro.native.compiler import Toolchain
from repro.obs.metrics import default_registry
from repro.runtime.heap import HeapPolicy
from repro.runtime.jit import DEFAULT_WARMUP, JitWarmup
from repro.runtime.jvm import JvmPlan, ServicePlacement, plan as jvm_plan
from repro.runtime.methodology import STEADY_STATE_ITERATION
from repro.runtime.vendors import HOTSPOT, JvmVendor
from repro.workloads.benchmark import Benchmark
from repro.hardware.catalog import reference_processors
from repro.hardware.config import stock

#: Nominal instruction volume used while calibrating per-benchmark work.
_PROBE_INSTRUCTIONS = 1e9

#: DTLB displacement is sharper than LLC displacement: the collector walks
#: the whole heap, evicting translations wholesale (db's 2.5x, §3.1).
_DTLB_DISPLACEMENT_GAIN = 2.0

_REGISTRY = default_registry()
_EXECUTIONS = _REGISTRY.counter(
    "repro_engine_executions_total",
    "Measured executions performed by the engine",
)
_CALIBRATION_PROBES = _REGISTRY.counter(
    "repro_engine_calibration_probes_total",
    "Reference-machine probe runs used to calibrate benchmark work",
)
_INSTRUCTION_CACHE_HITS = _REGISTRY.counter(
    "repro_engine_instruction_cache_hits_total",
    "instructions_for answered from the per-benchmark calibration cache",
)
_INSTRUCTION_CACHE_MISSES = _REGISTRY.counter(
    "repro_engine_instruction_cache_misses_total",
    "instructions_for calibrations performed",
)
_PHASES = _REGISTRY.counter(
    "repro_engine_phases_total",
    "Execution phases simulated, by phase name",
)
_SERIAL_PHASES = _PHASES.labels(phase="serial")
_PARALLEL_PHASES = _PHASES.labels(phase="parallel")


@dataclass(frozen=True, slots=True)
class Phase:
    """One homogeneous interval of an execution."""

    name: str
    seconds: float
    busy_cores: float
    utilisation: float
    frequency: Hertz
    turbo: TurboState
    power: Watts


@dataclass(frozen=True, slots=True)
class _PhaseSkeleton:
    """The noise-independent shape of one phase: everything except the
    per-invocation noise scalars and the power they modulate."""

    name: str
    base_seconds: float
    busy_cores: float
    utilisation: float
    turbo: TurboState
    smt_factor: float


@dataclass(frozen=True, slots=True)
class ExecutionPlan:
    """Deterministic skeleton of a (benchmark, configuration) run.

    Everything upstream of the noise scalars — JVM service plan, thread
    placement, per-phase CPI and throughput, turbo resolution, event
    counts — is a pure function of the pair, so a pair measurement
    builds it once and replays it per invocation
    (:meth:`ExecutionEngine.replay`), applying only ``time_noise`` and
    ``activity_noise``.  The stored factors are replayed in the exact
    operation order of the unplanned path, so a planned execution is
    bit-identical to an unplanned one.
    """

    benchmark: Benchmark
    config: Configuration
    phases: tuple[_PhaseSkeleton, ...]
    base_seconds: float
    events: EventCounts
    jvm: Optional[JvmPlan]
    activity_base: float
    vendor_activity_factor: Optional[float]
    vendor_performance_factor: Optional[float]


@dataclass(frozen=True, slots=True)
class Execution:
    """Ground truth of one run: what a perfect observer would see."""

    benchmark: Benchmark
    config: Configuration
    seconds: Seconds
    phases: tuple[Phase, ...]
    events: EventCounts
    jvm: Optional[JvmPlan] = None

    @property
    def average_power(self) -> Watts:
        """Time-weighted true average package power."""
        total = sum(p.power.value * p.seconds for p in self.phases)
        return Watts(total / self.seconds.value)

    @property
    def energy(self) -> Joules:
        return energy(self.average_power, self.seconds)


class ExecutionEngine:
    """Runs benchmarks on configurations; the simulated testbed.

    ``heap`` selects the JVM heap policy (default: the paper's 3x minimum);
    ``warmup`` the JIT warm-up curve; ``seed_root`` re-rolls every
    stochastic component at once.
    """

    def __init__(
        self,
        heap: Optional[HeapPolicy] = None,
        warmup: JitWarmup = DEFAULT_WARMUP,
        seed_root: str = "engine",
        jvm_services_enabled: bool = True,
        jvm_vendor: JvmVendor = HOTSPOT,
        native_toolchain: Optional[Toolchain] = None,
    ) -> None:
        self._heap = heap or HeapPolicy()
        self._warmup = warmup
        self._seed_root = seed_root
        self._jvm_services_enabled = jvm_services_enabled
        self._jvm_vendor = jvm_vendor
        self._native_toolchain = native_toolchain
        # Pickled with the engine when it ships to pool workers: a small
        # dict of floats that saves each worker four probe runs per
        # benchmark.
        self._instruction_cache: dict[Benchmark, float] = {}

    # -- public API ----------------------------------------------------------

    def execute(
        self,
        benchmark: Benchmark,
        config: Configuration,
        invocation: int = 0,
        iteration: Optional[int] = None,
    ) -> Execution:
        """One measured run following the paper's protocol.

        ``iteration`` defaults to the steady-state iteration for Java and
        is ignored for native benchmarks (they have no warm-up).  Builds
        the pair's plan and replays it once; a loop over invocations
        builds the plan once and calls :meth:`replay` instead.
        """
        return self.replay(
            self.execution_plan(benchmark, config, iteration), invocation
        )

    def replay(self, plan: ExecutionPlan, invocation: int) -> Execution:
        """One measured run of ``plan``: the invocation's noise applied
        to the pair's deterministic skeleton.

        An armed fault injector may abort the invocation here with
        :class:`~repro.faults.InvocationCrash` or
        :class:`~repro.faults.InvocationTimeout` — before the execution
        counter ticks, so telemetry counts completed runs.  Calibration
        probes and :meth:`ideal` bypass the hook: they model the
        analytical reference, not a run of the physical rig.
        """
        benchmark, config = plan.benchmark, plan.config
        injector = _faults_active()
        if injector is not None:
            injector.check_invocation(
                f"{config.key}/{benchmark.name}/{invocation}"
            )
        _EXECUTIONS.inc()
        noise = self._noise(benchmark, config, invocation)
        power_noise = self._noise(
            benchmark, config, invocation, channel="power", scale=1.6
        )
        return self._run_plan(plan, time_noise=noise, activity_noise=power_noise)

    def execution_plan(
        self,
        benchmark: Benchmark,
        config: Configuration,
        iteration: Optional[int] = None,
    ) -> ExecutionPlan:
        """The deterministic skeleton of one measured run, built anew.

        ``iteration or STEADY_STATE_ITERATION`` (the falsy-zero default)
        selects the warm-up overhead for managed benchmarks; native
        benchmarks have no warm-up.  The sweep-kernel compiler
        (:mod:`repro.execution.kernels`) and the scalar pair loop each
        build one plan per pair.
        """
        instructions = self.instructions_for(benchmark)
        if benchmark.managed:
            instructions *= self._warmup.overhead_at(
                iteration or STEADY_STATE_ITERATION
            )
        return self._plan_for(
            benchmark, config, instructions, vendor=self._jvm_vendor
        )

    def ideal(self, benchmark: Benchmark, config: Configuration) -> Execution:
        """A noise-free steady-state run (the model's platonic output)."""
        return self._raw_execute(
            benchmark, config, self.instructions_for(benchmark),
            time_noise=1.0, activity_noise=1.0, vendor=self._jvm_vendor,
        )

    def instructions_for(self, benchmark: Benchmark) -> float:
        """Per-benchmark work, calibrated so the mean run time across the
        four stock reference machines equals Table 1's reference time."""
        # Keyed by the benchmark *value* (frozen, hashable), not its name:
        # synthetic workloads may share names while differing in signature.
        cached = self._instruction_cache.get(benchmark)
        if cached is not None:
            _INSTRUCTION_CACHE_HITS.inc()
            return cached
        _INSTRUCTION_CACHE_MISSES.inc()
        probe_times = [
            self._raw_execute(
                benchmark, stock(spec), _PROBE_INSTRUCTIONS, time_noise=1.0
            ).seconds.value
            for spec in reference_processors()
        ]
        _CALIBRATION_PROBES.inc(len(probe_times))
        mean_probe = sum(probe_times) / len(probe_times)
        instructions = _PROBE_INSTRUCTIONS * benchmark.reference_seconds / mean_probe
        self._instruction_cache[benchmark] = instructions
        return instructions

    # -- compiled sweep kernels ----------------------------------------------

    @property
    def seed_root(self) -> str:
        """The root under which every engine noise stream is keyed."""
        return self._seed_root

    def noise_sigma(
        self, benchmark: Benchmark, channel: str = "time", scale: float = 1.0
    ) -> float:
        """The lognormal sigma :meth:`_noise` draws with for ``channel``
        — exposed so the kernel compiler can precompute draw parameters
        without duplicating the variability policy."""
        variability = (
            benchmark.jvm.variability if benchmark.managed else NATIVE_VARIABILITY
        ) * scale
        if channel == "power":
            # Even deterministic native code draws measurably different
            # power run to run (thermal state, DRAM refresh phase): the
            # paper's Table 2 shows native power CIs well above its time
            # CIs, so the power channel has a noise floor.
            variability = max(variability, 0.012)
        return variability

    def kernel_snapshot(self) -> dict:
        """Always empty: the engine keeps no compiled kernels.  Kept only
        because the repository benchmark's layer tracer wraps this name
        (ROADMAP item 6 drops that target); nothing in the program calls
        it."""
        return {}

    def record_plan_replays(
        self, invocations: int, serial_phases: int, parallel_phases: int
    ) -> None:
        """Bulk execution telemetry for a compiled-kernel replay.

        A kernel evaluates a pair's whole invocation loop in one numpy
        pass, so the per-execution counters tick once with the batch
        totals — the same final values the scalar loop produces."""
        _EXECUTIONS.inc(invocations)
        if serial_phases:
            _SERIAL_PHASES.inc(serial_phases)
        if parallel_phases:
            _PARALLEL_PHASES.inc(parallel_phases)

    # -- internals -----------------------------------------------------------

    def _noise(
        self,
        benchmark: Benchmark,
        config: Configuration,
        invocation: int,
        channel: str = "time",
        scale: float = 1.0,
    ) -> float:
        """Run-to-run multiplicative noise for one measurement channel.

        Power varies between invocations too (GC timing shifts which
        phases coincide with sampling; §2.2's nondeterminism), with a
        somewhat smaller coefficient than time."""
        variability = self.noise_sigma(benchmark, channel=channel, scale=scale)
        if variability == 0.0:
            return 1.0
        rng = rng_for(
            run_key(self._seed_root, channel, benchmark.name, config.key, invocation)
        )
        return float(rng.lognormal(mean=0.0, sigma=variability))

    def _toolchain(self, benchmark: Benchmark) -> Toolchain:
        if benchmark.managed:
            return Toolchain.JIT
        if self._native_toolchain is not None:
            return self._native_toolchain
        return binary_for(benchmark).toolchain

    def _raw_execute(
        self,
        benchmark: Benchmark,
        config: Configuration,
        instructions: float,
        time_noise: float,
        activity_noise: float = 1.0,
        vendor: Optional[JvmVendor] = None,
    ) -> Execution:
        """One uncached run: build the deterministic plan, apply noise.

        Calibration probes and :meth:`ideal` come through here; measured
        runs replay an :meth:`execution_plan` instead."""
        plan = self._plan_for(benchmark, config, instructions, vendor)
        return self._run_plan(plan, time_noise=time_noise, activity_noise=activity_noise)

    def _plan_for(
        self,
        benchmark: Benchmark,
        config: Configuration,
        instructions: float,
        vendor: Optional[JvmVendor] = None,
    ) -> ExecutionPlan:
        character = benchmark.character
        # Vendor effects apply to measured runs but not to the work
        # calibration (Table 1's reference times are HotSpot's).  They
        # are stored as factors and replayed per invocation so the noisy
        # arithmetic keeps its original operation order.
        vendor_activity: Optional[float] = None
        vendor_performance: Optional[float] = None
        if vendor is not None and benchmark.managed:
            vendor_activity = vendor.activity_factor
            vendor_performance = vendor.performance_factor(benchmark)
        toolchain = self._toolchain(benchmark)

        plan: Optional[JvmPlan] = None
        mpki_factor = 1.0
        serial_service = 0.0
        overlapped_service = 0.0
        friction = 0.0
        if benchmark.managed and self._jvm_services_enabled:
            service_scale = vendor.service_scale if vendor is not None else 1.0
            plan = jvm_plan(benchmark, config, self._heap)
            mpki_factor = plan.displacement
            serial_service = plan.serial_service * service_scale
            overlapped_service = plan.overlapped_service * service_scale
            friction = plan.sibling_friction
            threads = plan.app_threads
        else:
            threads = min(
                character.threads_on(config.hardware_contexts),
                config.hardware_contexts,
            )

        placement = place_threads(threads, config)
        parallel_fraction = character.parallel_fraction if threads > 1 else 0.0

        skeletons: list[_PhaseSkeleton] = []
        total_app_cycles = 0.0
        total_misses = 0.0

        # --- serial phase: Amdahl remainder plus serialised service work.
        serial_instructions = instructions * (1.0 - parallel_fraction + serial_service)
        serial_busy = 1 + self._service_cores(plan, config, placement)
        # Turbo counts cores that are continuously loaded; bursty service
        # threads do not hold a core awake long enough to drop a step.
        serial_turbo = resolve_turbo(config, max(int(serial_busy), 1))
        serial_cpi = self._phase_cpi(
            character, config, toolchain, serial_turbo.frequency,
            mpki_factor, sharing=1, threads=1, friction=friction,
        )
        if serial_instructions > 0:
            serial_rate = capped_throughput(
                serial_turbo.frequency.value / serial_cpi.total,
                serial_cpi.mpki,
                config.spec.memory,
            )
            seconds = serial_instructions / serial_rate
            serial_smt_share = (
                1.0 if plan is not None
                and plan.placement is ServicePlacement.SMT_SIBLING else 0.0
            )
            skeletons.append(
                self._make_skeleton(
                    "serial", seconds, serial_busy, config, serial_turbo,
                    throughput=serial_rate,
                    smt_share=serial_smt_share,
                )
            )
            total_app_cycles += serial_instructions * serial_cpi.total
            total_misses += serial_instructions * serial_cpi.mpki / 1000.0

        # --- parallel phase across the placed threads.
        if parallel_fraction > 0.0:
            parallel_instructions = instructions * parallel_fraction
            busy = placement.cores_used + self._service_cores(plan, config, placement)
            busy = min(busy, config.active_cores)
            turbo = resolve_turbo(config, max(placement.cores_used, 1))
            par_cpi = self._phase_cpi(
                character, config, toolchain, turbo.frequency,
                mpki_factor, sharing=placement.threads,
                threads=placement.threads, friction=friction,
            )
            throughput = capped_throughput(
                aggregate_throughput(
                    placement, par_cpi, config, turbo.frequency.value
                ),
                par_cpi.mpki,
                config.spec.memory,
            )
            platform_sync = character.sync_overhead + config.spec.smp_overhead
            seconds = (
                parallel_instructions / throughput
            ) * sync_inflation(platform_sync, placement.threads)
            skeletons.append(
                self._make_skeleton(
                    "parallel", seconds, busy, config, turbo,
                    throughput=throughput,
                    smt_share=placement.smt_pairs / placement.cores_used,
                )
            )
            total_app_cycles += parallel_instructions * par_cpi.total
            total_misses += parallel_instructions * par_cpi.mpki / 1000.0

        events = self._events(
            benchmark, instructions, serial_service + overlapped_service,
            total_app_cycles, total_misses, mpki_factor,
        )
        return ExecutionPlan(
            benchmark=benchmark,
            config=config,
            phases=tuple(skeletons),
            base_seconds=sum(s.base_seconds for s in skeletons),
            events=events,
            jvm=plan,
            activity_base=character.activity,
            vendor_activity_factor=vendor_activity,
            vendor_performance_factor=vendor_performance,
        )

    def _run_plan(
        self, plan: ExecutionPlan, time_noise: float, activity_noise: float
    ) -> Execution:
        """Apply one invocation's noise scalars to a plan.

        The arithmetic replays the unplanned path's exact operation order
        (activity times noise, then the vendor factor; base seconds times
        the vendor-adjusted time noise), so planned and unplanned runs are
        bit-identical."""
        activity = plan.activity_base * activity_noise
        if plan.vendor_activity_factor is not None:
            activity *= plan.vendor_activity_factor
        if plan.vendor_performance_factor is not None:
            time_noise /= plan.vendor_performance_factor
        config = plan.config
        phases: list[Phase] = []
        for skeleton in plan.phases:
            if skeleton.name == "serial":
                _SERIAL_PHASES.inc()
            else:
                _PARALLEL_PHASES.inc()
            power = package_power(
                config,
                busy_cores=min(skeleton.busy_cores, config.active_cores),
                core_utilisation=skeleton.utilisation,
                activity=activity * skeleton.smt_factor,
                turbo=skeleton.turbo,
            )
            phases.append(
                Phase(
                    name=skeleton.name,
                    seconds=skeleton.base_seconds * time_noise,
                    busy_cores=skeleton.busy_cores,
                    utilisation=skeleton.utilisation,
                    frequency=skeleton.turbo.frequency,
                    turbo=skeleton.turbo,
                    power=power.total,
                )
            )
        return Execution(
            benchmark=plan.benchmark,
            config=config,
            seconds=Seconds(plan.base_seconds * time_noise),
            phases=tuple(phases),
            events=plan.events,
            jvm=plan.jvm,
        )

    def _phase_cpi(
        self,
        character,
        config: Configuration,
        toolchain: Toolchain,
        frequency: Hertz,
        mpki_factor: float,
        sharing: int,
        threads: int,
        friction: float,
    ) -> CpiBreakdown:
        """Thread CPI for one phase (bandwidth saturation is applied to
        the phase's aggregate throughput, not per-thread CPI, so that
        adding threads or clock is always monotone)."""
        breakdown = thread_cpi(
            character, config, toolchain, frequency,
            mpki_factor=mpki_factor, llc_sharing_contexts=sharing,
        )
        if friction > 0.0:
            # Sibling service threads contend for the whole pipeline
            # (front-end, caches, TLBs), so the tax applies to every CPI
            # component, not only issue.
            breakdown = CpiBreakdown(
                base=breakdown.base * (1.0 + friction),
                dependency=breakdown.dependency * (1.0 + friction),
                branch=breakdown.branch * (1.0 + friction),
                memory=breakdown.memory * (1.0 + friction),
                mpki=breakdown.mpki,
            )
        return breakdown

    def _service_cores(
        self,
        plan: Optional[JvmPlan],
        config: Configuration,
        placement: Placement,
    ) -> float:
        """Fractional cores kept busy by overlapped runtime services."""
        if plan is None or plan.overlapped_service <= 0.0:
            return 0.0
        if plan.placement is ServicePlacement.SMT_SIBLING:
            return 0.0  # shares an already-busy core
        spare = config.active_cores - placement.cores_used
        if spare <= 0:
            return 0.0
        # A background collector/JIT thread keeps its core partially awake
        # beyond its retired work (polling, safepoint spins), so occupancy
        # carries a floor on top of the work fraction.
        occupancy = 0.30 + 12.0 * plan.overlapped_service
        return min(occupancy, float(spare))

    def _make_skeleton(
        self,
        name: str,
        seconds: float,
        busy_cores: float,
        config: Configuration,
        turbo: TurboState,
        throughput: float,
        smt_share: float = 0.0,
    ) -> _PhaseSkeleton:
        peak_ips = busy_cores * turbo.frequency.value * config.spec.family.issue_width
        utilisation = min(throughput / peak_ips, 1.0) if peak_ips > 0 else 0.0
        smt_factor = 1.0 + config.spec.family.smt_power_overhead * smt_share
        return _PhaseSkeleton(
            name=name,
            base_seconds=seconds,
            busy_cores=busy_cores,
            utilisation=utilisation,
            turbo=turbo,
            smt_factor=smt_factor,
        )

    def _events(
        self,
        benchmark: Benchmark,
        instructions: float,
        service_fraction: float,
        app_cycles: float,
        llc_misses: float,
        mpki_factor: float,
    ) -> EventCounts:
        total_instructions = instructions * (1.0 + service_fraction)
        dtlb_factor = 1.0 + (mpki_factor - 1.0) * _DTLB_DISPLACEMENT_GAIN
        dtlb = benchmark.character.dtlb_mpki * dtlb_factor * instructions / 1000.0
        branch = benchmark.character.branch_mpki * instructions / 1000.0
        return EventCounts(
            cycles=app_cycles * (1.0 + service_fraction),
            instructions=total_instructions,
            llc_misses=llc_misses,
            dtlb_misses=dtlb,
            branch_misses=branch,
        )


_DEFAULT_ENGINE: Optional[ExecutionEngine] = None


def default_engine() -> ExecutionEngine:
    """A process-wide engine with the paper's settings (cached because
    instruction calibration is shared across users)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExecutionEngine()
    return _DEFAULT_ENGINE
