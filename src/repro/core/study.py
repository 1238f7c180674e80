"""Campaign orchestration: running the paper's measurement study.

A :class:`Study` binds the execution engine, the per-machine power meters,
and the normalisation references, and runs benchmarks over configurations
following the paper's measurement protocol (3/5 executions for native,
20 JVM invocations reporting the fifth iteration for Java), producing a
:class:`~repro.core.results.ResultSet`.

The pure **pair measurement** (:class:`_PairMeasurement`) measures one
(benchmark, configuration) pair — a compiled sweep kernel or the
per-invocation scalar reference through engine and meter, under a
bounded :class:`~repro.faults.RetryPolicy` (immediate retries within a
simulated-timeout budget), the MAD outlier re-measure and the 95%
confidence intervals, in one ``study.measure`` span — and returns a
:class:`PairOutcome`: the result or the failure, with its retries,
re-measures and failure events.  It holds no cache, quarantine or
checkpoint, so pool workers run it directly.  Before measuring, a sweep
compiles the kernels of the pairs it measures in-process (a pool
worker: of its chunk) and primes their generator states in one batch
(:meth:`_PairMeasurement.prepared`).

The **study** measures and dispatches: it runs the worker pool and
hands each sweep's outcomes, and the pair measurement for whatever the
pool did not measure, to the merge loop of its campaign ledger
(``study.ledger``, :class:`~repro.core.ledger.Ledger`), which keeps the
cache, quarantine, checkpoint and study metrics.  A pair that exhausts
its retries is quarantined instead of aborting the sweep, and ``run()``
returns a partial :class:`ResultSet` carrying the health report.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.core.ledger import Ledger
from repro.core.normalization import References
from repro.core.results import ResultSet, RunResult
from repro.core.statistics import confidence_interval, mad_outlier_indices
from repro.execution import kernels as _kernels
from repro.execution.engine import ExecutionEngine, ExecutionPlan
from repro.faults.errors import (
    InvocationTimeout,
    MeasurementError,
    RetriesExhausted,
)
from repro.faults.injector import active as _faults_active, attempt_scope
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.hardware.config import Configuration
from repro.hardware.processor import ProcessorSpec
from repro.measurement.meter import PowerMeter, meter_for
from repro.obs.metrics import enabled as _metrics_enabled
from repro.obs.progress import ProgressReporter
from repro.obs.tracing import current_span_id, default_tracer, wall_time_of
from repro.runtime.methodology import MeasurementProtocol, protocol_for
from repro.workloads.benchmark import Benchmark
from repro.workloads.catalog import BENCHMARKS


@dataclass
class PairOutcome:
    """One pair measurement: its result (or failure) and what it took.

    ``failure_events`` lists the failure type names the pair observed in
    order, so the merge loop replays them at the pair's position in the
    sweep and the failure dict keeps first-observed order at any worker
    count.  ``measure_seconds`` is the wall time the measurement took;
    the merge loop moves the study's invocation, retry, re-measure and
    latency metrics from these fields, once per pair, wherever the pair
    was measured.  Pool workers fill ``index`` (the pair's position in
    the pending list) and ``spans`` (its finished span subtree) and drop
    ``error``, the exception :meth:`Study.measure` re-raises."""

    result: Optional[RunResult] = None
    failure: Optional[str] = None
    retries: int = 0
    remeasures: int = 0
    failure_events: Sequence[str] = field(default_factory=list)
    measure_seconds: float = field(default=0.0, compare=False)
    index: int = 0
    spans: tuple[dict, ...] = ()
    error: Optional[MeasurementError] = field(
        default=None, compare=False, repr=False
    )


class _PairMeasurement:
    """The pure pair measurement (see the module docstring).

    Its state is memoised per-benchmark protocols and per-machine
    meters — a 61x45 sweep re-derives neither inside the measurement
    loop — and, inside :meth:`prepared`, the sweep's compiled kernels;
    measuring a pair twice gives an equal outcome."""

    def __init__(
        self,
        references: References,
        invocation_scale: float,
        retry: RetryPolicy,
        vectorize: bool,
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        self.references = references
        self.engine = references.engine
        self.invocation_scale = invocation_scale
        self.retry = retry
        self.vectorize = vectorize
        self.progress = progress
        self._protocols: dict[Benchmark, MeasurementProtocol] = {}
        self._meters: dict[str, PowerMeter] = {}
        self._prepared: dict[tuple[Benchmark, str], Optional[_kernels.PairKernel]] = {}

    def protocol(self, benchmark: Benchmark) -> MeasurementProtocol:
        if benchmark not in self._protocols:
            self._protocols[benchmark] = protocol_for(benchmark)
        return self._protocols[benchmark]

    def meter(self, spec: ProcessorSpec) -> PowerMeter:
        if spec.key not in self._meters:
            self._meters[spec.key] = meter_for(spec)
        return self._meters[spec.key]

    def scaled_invocations(self, benchmark: Benchmark) -> int:
        protocol = self.protocol(benchmark)
        return max(1, math.ceil(protocol.invocations * self.invocation_scale))

    @contextlib.contextmanager
    def prepared(self, pairs: Iterable[tuple[Benchmark, Configuration]]):
        """Compile the kernels of ``pairs`` and prime their generator
        states in one batch, for the measurements inside the block.

        Seeding words are cheap only in bulk (:func:`repro.execution.
        kernels.prime`), so a sweep prepares its whole in-process pending
        list and a pool worker its chunk.  Each prepared pair's measurement
        replays the kernel compiled here instead of compiling again, so a
        pair still calls ``compile_pair`` once and the kernel counters
        move as they would without preparation.  Fault-armed pairs are
        skipped: they take the scalar path and count their fallback when
        measured."""
        kernels = []
        for benchmark, config in pairs:
            invocations = self.scaled_invocations(benchmark)
            if not self._vectorises(benchmark, config, invocations):
                continue
            kernel = self._prepared[(benchmark, config.key)] = _kernels.compile_pair(
                self.engine, self.meter(config.spec), benchmark, config,
                self.protocol(benchmark), invocations,
            )
            if kernel is not None:
                kernels.append(kernel)
        _kernels.prime(kernels)
        try:
            yield
        finally:
            self._prepared.clear()

    def measure(self, benchmark: Benchmark, config: Configuration) -> PairOutcome:
        """Measure one pair, traced as one finished ``study.measure`` span.

        The span is recorded after the pair from two clock reads, under
        the span that was open when the measurement began.  A pair that
        exhausts its retries comes back as a failed outcome rather than
        an exception; the caller decides what a failure means (the study
        quarantines it)."""
        outcome = PairOutcome()
        tracer = default_tracer()
        parent = current_span_id() if tracer.is_enabled else None
        started = time.perf_counter()
        try:
            outcome.result = self._measure(benchmark, config, outcome)
        except MeasurementError as exc:
            outcome.failure, outcome.error = str(exc), exc
        outcome.measure_seconds = time.perf_counter() - started
        if tracer.is_enabled:
            attributes: dict[str, object] = {
                "benchmark": benchmark.name, "config": config.key,
            }
            result = outcome.result
            if result is not None:
                attributes["invocations"] = result.invocations
                attributes["seconds"] = round(result.seconds, 6)
                if outcome.retries:
                    attributes["retries"] = outcome.retries
                if outcome.remeasures:
                    attributes["outlier_remeasures"] = outcome.remeasures
            tracer.record_span(
                "study.measure", parent, wall_time_of(started),
                outcome.measure_seconds, **attributes,
            )
        return outcome

    def _vectorises(
        self, benchmark: Benchmark, config: Configuration, invocations: int
    ) -> bool:
        """Whether the pair runs through a compiled kernel.

        A pair vectorises when kernels are enabled and no armed fault
        spec's scope reaches any of its sites — the scalar path is the
        only one that walks the per-invocation fault hooks.  The scope
        check draws no RNG, and an unarmed pair's hooks are no-ops that
        also draw none, so skipping them is behaviour-identical."""
        if not self.vectorize:
            return False
        injector = _faults_active()
        return injector is None or not injector.may_fault_pair(
            config.key, benchmark.name, invocations
        )

    def _metered_invocation(
        self,
        plan: ExecutionPlan,
        index: int,
        meter: PowerMeter,
        outcome: PairOutcome,
    ) -> tuple[float, float]:
        """One invocation of the pair's plan through engine and meter,
        with bounded retries.

        The site key doubles as the run salt, so measurement noise is a
        function of the site alone while injected-fault decisions also see
        the attempt (via :func:`~repro.faults.injector.attempt_scope`):
        a recovered fail-stop fault reproduces the fault-free measurement
        exactly.  Returns ``(seconds, average_watts)``.
        """
        site = f"{plan.config.key}/{plan.benchmark.name}/{index}"
        policy = self.retry
        hung_s = 0.0
        attempt = 0
        while True:
            try:
                with attempt_scope(attempt):
                    execution = self.engine.replay(plan, invocation=index)
                    measurement = meter.measure(execution, run_salt=site)
                return execution.seconds.value, measurement.average_watts
            except RetriesExhausted:
                raise
            except MeasurementError as exc:
                outcome.failure_events.append(type(exc).__name__)
                if isinstance(exc, InvocationTimeout):
                    hung_s += exc.elapsed_s
                if attempt >= policy.max_retries:
                    raise RetriesExhausted(
                        f"{site} failed {attempt + 1} attempts "
                        f"(last: {exc})",
                        site=site,
                        last_error=exc,
                    ) from exc
                if hung_s > policy.timeout_budget_s:
                    raise RetriesExhausted(
                        f"{site} spent a simulated {hung_s:g}s hung, past "
                        f"its {policy.timeout_budget_s:g}s budget "
                        f"(last: {exc})",
                        site=site,
                        last_error=exc,
                    ) from exc
                attempt += 1
                outcome.retries += 1

    def _measure(
        self, benchmark: Benchmark, config: Configuration, outcome: PairOutcome
    ) -> RunResult:
        protocol = self.protocol(benchmark)
        invocations = self.scaled_invocations(benchmark)
        meter = self.meter(config.spec)

        use_kernel = self._vectorises(benchmark, config, invocations)
        if self.vectorize and not use_kernel:
            _kernels.note_fallback("faults")
        kernel = None
        if use_kernel:
            # One compiled numpy pass over the whole invocation loop;
            # ``None`` means the plan's shape isn't compilable and the
            # pair follows the scalar route below.
            key = (benchmark, config.key)
            if key in self._prepared:
                kernel = self._prepared.pop(key)
            else:
                kernel = _kernels.compile_pair(
                    self.engine, meter, benchmark, config, protocol,
                    invocations,
                )
        plan = None
        if kernel is not None:
            times, powers = _kernels.run_pair(kernel, self.engine, meter)
            if self.progress is not None:
                self.progress.advance(invocations)
        else:
            # The scalar reference: one plan, replayed one invocation at
            # a time through engine and meter under the retry policy.
            plan = self.engine.execution_plan(benchmark, config, protocol.iteration)
            times, powers = [], []
            for invocation in range(invocations):
                seconds, watts = self._metered_invocation(
                    plan, invocation, meter, outcome
                )
                times.append(seconds)
                powers.append(watts)
                if self.progress is not None:
                    self.progress.advance()

        self._remeasure_outliers(
            benchmark, config, protocol, plan, meter, times, powers,
            invocations, outcome,
        )

        time_ci = confidence_interval(times)
        power_ci = confidence_interval(powers)
        seconds = time_ci.mean
        watts = power_ci.mean
        return RunResult(
            benchmark_name=benchmark.name,
            group=benchmark.group,
            processor_key=config.spec.key,
            config_key=config.key,
            seconds=seconds,
            watts=watts,
            speedup=self.references.speedup(benchmark, seconds),
            normalized_energy=self.references.normalized_energy(
                benchmark, seconds * watts
            ),
            time_ci=time_ci,
            power_ci=power_ci,
            invocations=invocations,
        )

    def _remeasure_outliers(
        self,
        benchmark: Benchmark,
        config: Configuration,
        protocol: MeasurementProtocol,
        plan: Optional[ExecutionPlan],
        meter: PowerMeter,
        times: list[float],
        powers: list[float],
        invocations: int,
        outcome: PairOutcome,
    ) -> None:
        """MAD outlier screen: re-measure suspect invocations in place.

        Replacement runs replay the pair's plan (built here if a kernel
        measured the pair) with salt indices past the protocol's range,
        so they draw fresh noise (re-running the same salt would
        reproduce the same glitch) without disturbing the other
        invocations' streams.  Off unless the policy sets
        ``outlier_threshold``, which keeps the default protocol
        byte-identical to the unscreened one.
        """
        threshold = self.retry.outlier_threshold
        if threshold is None or self.retry.max_remeasures <= 0:
            return
        suspects = sorted(
            set(mad_outlier_indices(powers, threshold))
            | set(mad_outlier_indices(times, threshold))
        )[: self.retry.max_remeasures]
        if suspects and plan is None:
            plan = self.engine.execution_plan(benchmark, config, protocol.iteration)
        for index in suspects:
            seconds, watts = self._metered_invocation(
                plan, invocations + index, meter, outcome
            )
            times[index] = seconds
            powers[index] = watts
            outcome.remeasures += 1


class Study:
    """The measurement campaign harness: measurement and dispatch.

    ``invocation_scale`` proportionally reduces the protocol's repetition
    counts (floored at one) for quick exploratory sweeps; the default of
    1.0 is the paper's full protocol.  ``progress`` receives one tick per
    invocation.  ``retry`` governs recovery from measurement failures
    (the default retries each invocation up to three times without
    sleeping).  ``checkpoint_path`` and ``cache_capacity`` configure the
    campaign's :class:`~repro.core.ledger.Ledger` (``study.ledger``),
    which keeps the cache, quarantine and checkpoint.

    Every uncached pair is metered by a compiled sweep kernel
    (``vectorize``, on by default) or, byte-identically, by the
    per-invocation scalar loop: ``vectorize=False`` studies, pairs a
    kernel declines, and fault-armed pairs.  Telemetry is always
    recorded; turn it off with :func:`repro.obs.metrics.set_enabled` and
    a disabled tracer.

    ``jobs`` shards sweeps across a
    :class:`~repro.core.executor.SweepPool`: ``None`` (the default) runs
    in-process, an integer pins the worker count, and ``"auto"`` (or 0)
    uses the machine's CPU count.  Workers beat every ``heartbeat_s``
    seconds and are respawned, their chunk requeued, after
    ``liveness_misses`` missed beats; when no worker can be spawned the
    sweep runs in-process.  Measurements are pure and every sweep merges
    through one loop, so results, health, checkpoint bytes and cache and
    invocation telemetry are identical at any worker count (see
    docs/performance.md).  ``reuse_pool`` keeps the pool alive between
    sweeps (the campaign server); :meth:`close_pool` releases it.
    """

    def __init__(
        self,
        engine: Optional[ExecutionEngine] = None,
        references: Optional[References] = None,
        invocation_scale: float = 1.0,
        benchmarks: Sequence[Benchmark] = BENCHMARKS,
        progress: Optional[ProgressReporter] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint_path: Optional[Path | str] = None,
        jobs: Optional[Union[int, str]] = None,
        cache_capacity: Optional[int] = None,
        reuse_pool: bool = False,
        heartbeat_s: float = 0.25,
        liveness_misses: int = 4,
        vectorize: bool = True,
    ) -> None:
        if not math.isfinite(invocation_scale) or invocation_scale <= 0:
            raise ValueError(
                f"invocation scale must be positive and finite, "
                f"got {invocation_scale!r}"
            )
        if not isinstance(vectorize, bool):
            # A falsy non-bool (None) would silently pin the scalar path.
            raise TypeError(f"vectorize must be a bool, got {vectorize!r}")
        self._references = references or References(engine)
        self._benchmarks = tuple(benchmarks)
        self.ledger = Ledger(self._benchmarks, cache_capacity, checkpoint_path)
        self._progress = progress
        self._jobs = jobs
        self._reuse_pool = reuse_pool
        self._pool = None  # lazily created when reuse_pool is set
        self._heartbeat_s = heartbeat_s
        self._liveness_misses = liveness_misses
        self._pair = _PairMeasurement(
            self._references,
            invocation_scale,
            retry or DEFAULT_RETRY_POLICY,
            vectorize,
            progress,
        )

    @property
    def engine(self) -> ExecutionEngine:
        return self._pair.engine

    @property
    def references(self) -> References:
        return self._references

    @property
    def benchmarks(self) -> tuple[Benchmark, ...]:
        return self._benchmarks

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._pair.retry

    def scaled_invocations(self, benchmark: Benchmark) -> int:
        """Protocol repetitions after ``invocation_scale`` (floored at 1)."""
        return self._pair.scaled_invocations(benchmark)

    def planned_invocations(
        self,
        configurations: Iterable[Configuration],
        benchmarks: Optional[Sequence[Benchmark]] = None,
    ) -> int:
        """Invocations a sweep would actually execute: those of the
        ledger's pending pairs (uncached, unquarantined, each once)."""
        chosen = tuple(benchmarks) if benchmarks is not None else self._benchmarks
        pending = self.ledger.pending(
            [(benchmark, config) for config in configurations for benchmark in chosen]
        )
        return sum(self.scaled_invocations(benchmark) for benchmark, _ in pending)

    # -- measurement ----------------------------------------------------------

    def measure(self, benchmark: Benchmark, config: Configuration) -> RunResult:
        """Measure one benchmark on one configuration (cached).

        A one-pair sweep through the ledger's merge, so the pair is
        cached, checkpointed and counted as in any sweep, whenever it is
        called — also from inside another sweep (a progress callback).
        Raises :class:`~repro.faults.RetriesExhausted` if an invocation
        keeps failing through the retry policy (the pair is then
        quarantined), or at once if the pair is quarantined.
        """
        outcomes: dict[tuple[Benchmark, str], PairOutcome] = {}
        swept = self.ledger.merge(((benchmark, config),), outcomes, self._pair.measure)
        if swept:
            return swept.single()
        if outcomes:  # measured and failed in this sweep
            raise outcomes[(benchmark, config.key)].error
        (entry,) = swept.health.quarantined
        raise RetriesExhausted(
            f"{benchmark.name} @ {config.key} is quarantined: {entry.reason}",
            site=f"{config.key}/{benchmark.name}",
        )

    def run(
        self,
        configurations: Iterable[Configuration],
        benchmarks: Optional[Sequence[Benchmark]] = None,
        jobs: Optional[Union[int, str]] = None,
    ) -> ResultSet:
        """Measure every benchmark on every configuration, resiliently.

        Pairs that exhaust the retry policy are quarantined — recorded in
        the returned set's :class:`CampaignHealth` and skipped by later
        sweeps — instead of aborting the campaign, so one pathological
        (benchmark, configuration) cell cannot take down a 61x45 sweep.
        ``jobs`` overrides the study-level worker count for this sweep
        (``None`` inherits the study's setting).
        """
        chosen = tuple(benchmarks) if benchmarks is not None else self._benchmarks
        pairs = [
            (benchmark, config)
            for config in configurations
            for benchmark in chosen
        ]
        return self.run_pairs(pairs, jobs=jobs)

    def run_pairs(
        self,
        pairs: Sequence[tuple[Benchmark, Configuration]],
        jobs: Optional[Union[int, str]] = None,
    ) -> ResultSet:
        """Measure an explicit (benchmark, configuration) pair list.

        The primitive under :meth:`run` — same resilience, caching,
        parallel dispatch, and deterministic merge — but without the
        cross-product, so callers that accumulate *heterogeneous* work
        (the campaign server batches whatever requests arrived together)
        can dispatch it as one sweep.  Duplicate pairs are measured once
        and each occurrence reported, exactly as ``run`` treats a repeated
        configuration."""
        pairs = list(pairs)
        pending = self.ledger.pending(pairs)
        if self._progress is not None:
            self._progress.extend_total(
                sum(self.scaled_invocations(benchmark) for benchmark, _ in pending)
            )
        workers = self._resolve_jobs(jobs)
        outcomes: dict[tuple[Benchmark, str], PairOutcome] = {}
        if workers is not None and pending:
            outcomes = self._dispatch(pending, workers)
        # Whatever the pool did not measure, the merge loop measures
        # in-process: compile it and prime its seeding in one batch first.
        with self._pair.prepared(() if outcomes else pending):
            return self.ledger.merge(pairs, outcomes, self._pair.measure)

    # -- parallel sweeps -------------------------------------------------------

    def _resolve_jobs(
        self, override: Optional[Union[int, str]]
    ) -> Optional[int]:
        """Worker count for a sweep, or ``None`` for the in-process path.

        ``"auto"`` (or 0) uses the CPU count and degrades to sequential
        on a single-core machine; an explicit integer always takes the
        pool path — even ``jobs=1``, which is how the equivalence tests
        exercise the full dispatch/merge machinery."""
        jobs = override if override is not None else self._jobs
        if jobs is None:
            return None
        if jobs == "auto":
            jobs = 0
        jobs = int(jobs)
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = auto), got {jobs}")
        if jobs == 0:
            jobs = os.cpu_count() or 1
            if jobs <= 1:
                return None
        return jobs

    def _dispatch(
        self,
        pending: Sequence[tuple[Benchmark, Configuration]],
        workers: int,
    ) -> dict[tuple[Benchmark, str], PairOutcome]:
        """Measure ``pending`` on the worker pool: each pair's outcome,
        in pending order.  Empty if no pool can be built or every worker
        died beyond repair — the merge loop then measures in-process,
        which is safe because nothing has been merged yet."""
        from repro.core import executor

        # Warm the references (and, through their probe runs, the
        # engine's instruction calibration) in the parent so workers
        # inherit both instead of re-deriving them per process.  The
        # derivations are deterministic either way; warming just moves
        # the cost out of the fan-out.
        for benchmark in dict.fromkeys(b for b, _ in pending):
            self._references.energy_joules(benchmark)
        injector = _faults_active()
        setup = executor.WorkerSetup(
            references=self._references,
            invocation_scale=self._pair.invocation_scale,
            retry=self._pair.retry,
            metrics_enabled=_metrics_enabled(),
            fault_plan=injector.plan if injector is not None else None,
            trace_enabled=default_tracer().is_enabled,
            kernels=self.engine.kernel_snapshot() or None,
            vectorize=self._pair.vectorize,
        )
        options = dict(
            heartbeat_s=self._heartbeat_s,
            liveness_misses=self._liveness_misses,
        )
        try:
            if self._reuse_pool:
                if (
                    self._pool is not None
                    and not self._pool.setup.compatible_with(setup)
                ):
                    self.close_pool()
                if self._pool is None:
                    self._pool = executor.SweepPool(setup, workers, **options)
            outcomes = executor.run_pairs(
                setup, pending, workers, self._progress, self._pool, **options
            )
        except executor.PoolUnavailable:
            # Drop a kept-alive pool that died so the next dispatch
            # starts a fresh one.
            self.close_pool()
            return {}
        return {
            (benchmark, config.key): outcome
            for (benchmark, config), outcome in zip(pending, outcomes)
        }

    def fleet_snapshot(self):
        """Per-worker health of the kept-alive pool (``None`` when the
        study is not keeping one) — the ``/healthz`` worker table."""
        pool = self._pool  # the measurement thread may drop it meanwhile
        if pool is None:
            return None
        pool.poll()
        return pool.snapshot()

    def close_pool(self) -> None:
        """Shut down the kept-alive worker pool, if one exists.

        Only meaningful for ``reuse_pool=True`` studies (the campaign
        server calls this on drain); a no-op otherwise.  Bounded: workers
        that ignore the shutdown sentinel are SIGKILLed."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def run_config(
        self,
        configuration: Configuration,
        benchmarks: Optional[Sequence[Benchmark]] = None,
    ) -> ResultSet:
        """Measure one configuration across benchmarks."""
        return self.run((configuration,), benchmarks)


_SHARED_STUDY: Optional[Study] = None


def shared_study() -> Study:
    """A process-wide full-protocol study (shared cache across
    experiments, exactly like the paper's single physical dataset)."""
    global _SHARED_STUDY
    if _SHARED_STUDY is None:
        _SHARED_STUDY = Study()
    return _SHARED_STUDY


def reset_shared_study() -> None:
    """Drop the process-wide study so the next :func:`shared_study` call
    builds a fresh one — test fixtures use this to stop one test's cached
    campaign (or quarantine list) leaking into the next."""
    global _SHARED_STUDY
    _SHARED_STUDY = None
