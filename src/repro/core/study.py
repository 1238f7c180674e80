"""Campaign orchestration: running the paper's measurement study.

A :class:`Study` binds the execution engine, the per-machine power meters,
and the normalisation references, and runs benchmarks over configurations
following the paper's measurement protocol (3/5 executions for native,
20 JVM invocations reporting the fifth iteration for Java), producing a
:class:`~repro.core.results.ResultSet`.

Two layers.  The pure **pair measurement** measures one (benchmark,
configuration) pair — a compiled sweep kernel or the per-invocation
scalar reference through engine and meter, under a bounded
:class:`~repro.faults.RetryPolicy` (backoff + jitter, a simulated-timeout
budget), the MAD outlier re-measure and the 95% confidence intervals, in
one ``study.measure`` span — and returns a :class:`PairOutcome`: the
result or the failure, with its retries, re-measures and failure events.
It holds no cache, quarantine or checkpoint, so pool workers run it
directly.  Before measuring, a sweep compiles the kernels of the pairs
it measures in-process (a pool worker: of its chunk) and primes their
generator states in one batch (:meth:`_PairMeasurement.prepared`).  The **study** keeps the campaign ledger and one merge loop:
every sweep — in-process, on the worker pool, or falling back from the
pool — walks its pairs in sweep order through that loop, which alone
turns outcomes into cache entries, hit/miss counts, checkpoint lines,
quarantine entries, adopted worker spans and the sweep's
:class:`~repro.core.results.CampaignHealth`.

The cache keys by the benchmark *value* — not its name — for the same
reason the engine's instruction cache does: synthetic workloads may share
a name while differing in signature.  The paper's physical rig really
failed, and the authors silently re-ran invocations; here recovery is
explicit: a pair that exhausts its retries is quarantined instead of
aborting the sweep, ``run()`` returns a partial :class:`ResultSet`
carrying the health report, and an optional JSONL checkpoint lets an
interrupted campaign resume where it stopped.  Cache, invocation, retry,
quarantine and restore counts feed the metrics registry, and an optional
:class:`~repro.obs.progress.ProgressReporter` gets one tick per invocation.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.core.normalization import References
from repro.core.results import (
    CampaignHealth,
    QuarantineEntry,
    ResultSet,
    RunResult,
)
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
from repro.obs.metrics import default_registry, enabled as _metrics_enabled
from repro.obs.progress import ProgressReporter
from repro.obs.tracing import current_span_id, default_tracer, wall_time_of
from repro.runtime.methodology import MeasurementProtocol, protocol_for
from repro.workloads.benchmark import Benchmark
from repro.workloads.catalog import BENCHMARKS, BENCHMARKS_BY_NAME

_REGISTRY = default_registry()
_CACHE_HITS = _REGISTRY.counter(
    "repro_study_cache_hits_total",
    "Measurements answered from the study's result cache",
)
_CACHE_MISSES = _REGISTRY.counter(
    "repro_study_cache_misses_total",
    "Measurements that had to be performed",
)
_INVOCATIONS = _REGISTRY.counter(
    "repro_study_invocations_total",
    "Individual benchmark invocations executed and metered",
)
_MEASURE_SECONDS = _REGISTRY.histogram(
    "repro_measure_seconds",
    "Latency of one pair measurement (all invocations)",
)
_RETRIES = _REGISTRY.counter(
    "repro_study_retries_total",
    "Invocation retries after a measurement-pipeline failure",
)
_QUARANTINED = _REGISTRY.counter(
    "repro_study_quarantined_pairs_total",
    "(benchmark, configuration) pairs quarantined after exhausting retries",
)
_REMEASURES = _REGISTRY.counter(
    "repro_study_outlier_remeasures_total",
    "Invocations re-measured after the MAD outlier screen flagged them",
)
_RESTORED = _REGISTRY.counter(
    "repro_study_checkpoint_restores_total",
    "Cache entries restored from a checkpoint file",
)
_CACHE_EVICTIONS = _REGISTRY.counter(
    "repro_study_cache_evictions_total",
    "Results evicted from a capacity-bounded study cache (LRU order)",
)


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
                delay = policy.delay_for(attempt, site)
                if delay > 0.0:
                    time.sleep(delay)

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
    """The measurement campaign harness.

    ``invocation_scale`` proportionally reduces the protocol's repetition
    counts (floored at one) for quick exploratory sweeps; the default of
    1.0 is the paper's full protocol.  ``progress`` receives one tick per
    invocation.  ``retry`` governs recovery from measurement failures
    (the default retries each invocation up to three times without
    sleeping); ``checkpoint_path`` appends every new result to a JSONL
    file so a killed campaign can :meth:`restore_checkpoint` and
    continue where it stopped.

    Every uncached pair is metered by a compiled sweep kernel
    (``vectorize``) or, byte-identically, by the per-invocation scalar
    loop: ``vectorize=False`` studies, pairs a kernel declines, and
    fault-armed pairs.  Telemetry is always recorded; turn it off with
    :func:`repro.obs.metrics.set_enabled` and a disabled tracer.

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

    ``cache_capacity`` bounds the in-memory result cache: past that many
    pairs the least-recently-used result is evicted (counted in
    ``repro_study_cache_evictions_total``) and, measurements being pure,
    re-measures to the byte-identical result if asked for again.
    ``None`` (the default) keeps the cache unbounded.
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
        vectorize: Optional[bool] = None,
    ) -> None:
        if not math.isfinite(invocation_scale) or invocation_scale <= 0:
            raise ValueError(
                f"invocation scale must be positive and finite, "
                f"got {invocation_scale!r}"
            )
        if cache_capacity is not None and cache_capacity < 1:
            raise ValueError(
                f"cache capacity must be >= 1 (or None for unbounded), "
                f"got {cache_capacity!r}"
            )
        self._references = references or References(engine)
        self._benchmarks = tuple(benchmarks)
        self._progress = progress
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._jobs = jobs
        self._cache_capacity = cache_capacity
        self._reuse_pool = reuse_pool
        self._pool = None  # lazily created when reuse_pool is set
        self._heartbeat_s = heartbeat_s
        self._liveness_misses = liveness_misses
        # ``vectorize`` routes fault-free pairs through compiled sweep
        # kernels (:mod:`repro.execution.kernels`) — byte-identical
        # results, one numpy pass per pair.  ``None`` defers to the
        # REPRO_SWEEP_KERNELS env switch (on unless explicitly "0"/"off"/
        # "false"/"no"), so CI and the benchmark can pin either path.
        if vectorize is None:
            env = os.environ.get("REPRO_SWEEP_KERNELS", "").strip().lower()
            vectorize = env not in ("0", "off", "false", "no")
        self._pair = _PairMeasurement(
            self._references,
            invocation_scale,
            retry or DEFAULT_RETRY_POLICY,
            bool(vectorize),
            progress,
        )
        self._cache: dict[tuple[Benchmark, str], RunResult] = {}
        self._restored_keys: set[tuple[Benchmark, str]] = set()
        self._quarantine: dict[tuple[Benchmark, str], QuarantineEntry] = {}
        # The outcomes of the sweep the merge loop is walking (None
        # between sweeps); :meth:`measure` adds the in-process ones.
        self._sweep_outcomes: Optional[dict] = None

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
    def progress(self) -> Optional[ProgressReporter]:
        return self._progress

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._pair.retry

    @property
    def vectorize(self) -> bool:
        """Whether fault-free pairs run through compiled sweep kernels."""
        return self._pair.vectorize

    @property
    def quarantined(self) -> tuple[QuarantineEntry, ...]:
        """Pairs that exhausted their retries, in quarantine order."""
        return tuple(self._quarantine.values())

    # -- caching / planning ----------------------------------------------------

    @property
    def cache_capacity(self) -> Optional[int]:
        return self._cache_capacity

    @property
    def cached_pairs(self) -> int:
        """Results currently held in the in-memory cache."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Evict every cached result (measurements are pure, so a re-run
        reproduces the identical dataset)."""
        self._cache.clear()
        self._restored_keys.clear()

    def _cache_get(
        self, key: tuple[Benchmark, str]
    ) -> Optional[RunResult]:
        """Cache lookup that refreshes LRU recency on a hit.

        The cache dict's insertion order doubles as the recency order:
        re-inserting a hit key moves it to the far (young) end, so
        eviction can always take the dict's first key."""
        result = self._cache.get(key)
        if result is not None and self._cache_capacity is not None:
            self._cache[key] = self._cache.pop(key)
        return result

    def _cache_store(self, key: tuple[Benchmark, str], result: RunResult) -> None:
        """Insert one result, evicting the least-recently-used entries
        past ``cache_capacity`` (unbounded when the capacity is None)."""
        self._cache[key] = result
        if self._cache_capacity is None:
            return
        while len(self._cache) > self._cache_capacity:
            oldest = next(iter(self._cache))
            del self._cache[oldest]
            self._restored_keys.discard(oldest)
            _CACHE_EVICTIONS.inc()

    def clear_quarantine(self) -> None:
        """Give quarantined pairs another chance on the next sweep."""
        self._quarantine.clear()

    def is_cached(self, benchmark: Benchmark, config: Configuration) -> bool:
        return (benchmark, config.key) in self._cache

    def is_quarantined(self, benchmark: Benchmark, config: Configuration) -> bool:
        return (benchmark, config.key) in self._quarantine

    def scaled_invocations(self, benchmark: Benchmark) -> int:
        """Protocol repetitions after ``invocation_scale`` (floored at 1)."""
        return self._pair.scaled_invocations(benchmark)

    def planned_invocations(
        self,
        configurations: Iterable[Configuration],
        benchmarks: Optional[Sequence[Benchmark]] = None,
    ) -> int:
        """Invocations a sweep would actually execute (uncached,
        unquarantined pairs, each once)."""
        chosen = tuple(benchmarks) if benchmarks is not None else self._benchmarks
        pending = self._pending(
            [(benchmark, config) for config in configurations for benchmark in chosen]
        )
        return sum(self.scaled_invocations(benchmark) for benchmark, _ in pending)

    def _pending(
        self, pairs: Iterable[tuple[Benchmark, Configuration]]
    ) -> list[tuple[Benchmark, Configuration]]:
        """The pairs a sweep must measure: uncached, unquarantined, each
        once, in sweep order."""
        pending: dict[tuple[Benchmark, str], tuple[Benchmark, Configuration]] = {}
        for benchmark, config in pairs:
            key = (benchmark, config.key)
            if not (
                key in pending or key in self._cache or key in self._quarantine
            ):
                pending[key] = (benchmark, config)
        return list(pending.values())

    # -- checkpointing ---------------------------------------------------------

    def enable_checkpoint(self, path: Path | str) -> None:
        """Start appending every newly measured result to ``path``."""
        self._checkpoint_path = Path(path)

    def save_checkpoint(self, path: Path | str) -> Path:
        """Write the entire result cache as one JSONL checkpoint.

        Records are emitted in sorted (benchmark, configuration) order,
        so the file's bytes are independent of the order the cache was
        populated in — the same dataset produces the same checkpoint
        whether it was measured sequentially, in parallel, or resumed."""
        out = Path(path)
        ordered = sorted(self._cache, key=lambda key: (key[0].name, key[1]))
        with out.open("w", encoding="utf-8") as fh:
            for key in ordered:
                fh.write(json.dumps(self._cache[key].as_record()) + "\n")
        return out

    def restore_checkpoint(self, path: Path | str) -> int:
        """Load a JSONL checkpoint into the result cache.

        Returns the number of entries restored.  Records for benchmarks
        this study does not know (e.g. synthetics from another session)
        and malformed trailing lines — the expected residue of a campaign
        killed mid-write — are skipped, not fatal: a checkpoint is a
        cache, and the worst a skipped line costs is one re-measurement.
        """
        results = []
        with Path(path).open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    results.append(RunResult.from_record(json.loads(line)))
                except (ValueError, KeyError, TypeError):
                    continue  # truncated / malformed line: re-measure instead
        return self.restore_records(results)

    def restore_records(self, records: Iterable[RunResult]) -> int:
        """Load pre-measured results straight into the result cache.

        The warm-start primitive shared by :meth:`restore_checkpoint` and
        the campaign server's persistent store: records for unknown
        benchmarks are skipped, already-cached pairs keep their existing
        result, and restored pairs are accounted as ``restored`` (not
        ``cached``) in later campaign health reports.  Returns the number
        of entries actually restored."""
        by_name = {b.name: b for b in self._benchmarks}
        restored = 0
        for result in records:
            benchmark = by_name.get(result.benchmark_name) or (
                BENCHMARKS_BY_NAME.get(result.benchmark_name)
            )
            if benchmark is None:
                continue
            key = (benchmark, result.config_key)
            if key not in self._cache:
                self._cache_store(key, result)
                self._restored_keys.add(key)
                restored += 1
        if restored:
            _RESTORED.inc(restored)
        return restored

    def _checkpoint_append(self, result: RunResult) -> None:
        if self._checkpoint_path is None:
            return
        with self._checkpoint_path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(result.as_record()) + "\n")

    # -- measurement ----------------------------------------------------------

    def measure(self, benchmark: Benchmark, config: Configuration) -> RunResult:
        """Measure one benchmark on one configuration (cached).

        Called on its own, this is a one-pair in-process sweep through
        the merge loop, so the pair is cached, checkpointed and accounted
        as in any sweep.  Raises :class:`~repro.faults.RetriesExhausted`
        if an invocation keeps failing through the retry policy (the pair
        is then quarantined), or at once if the pair is quarantined.  The
        merge loop calls it for each uncached pair it measures in-process
        and takes the pair's outcome from ``_sweep_outcomes``.
        """
        key = (benchmark, config.key)
        if self._sweep_outcomes is not None:
            outcome = self._pair.measure(benchmark, config)
            self._sweep_outcomes[key] = outcome
            return outcome.result
        outcomes: dict[tuple[Benchmark, str], PairOutcome] = {}
        swept = self._merge(((benchmark, config),), outcomes)
        if swept:
            return swept.single()
        if key in outcomes:  # measured and failed in this sweep
            raise outcomes[key].error
        raise RetriesExhausted(
            f"{benchmark.name} @ {config.key} is quarantined: "
            f"{self._quarantine[key].reason}",
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
        pending = self._pending(pairs)
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
            return self._merge(pairs, outcomes)

    def _merge(
        self,
        pairs: Sequence[tuple[Benchmark, Configuration]],
        outcomes: dict[tuple[Benchmark, str], PairOutcome],
    ) -> ResultSet:
        """The one merge loop: walk the sweep's pairs in order and turn
        each into a quarantine entry, a cache hit, or a measured outcome.

        ``outcomes`` holds the pool's outcomes (in pending order) when the
        sweep was dispatched; any other uncached pair is measured here,
        lazily through :meth:`measure`, so the checkpoint grows pair by
        pair and every ledger entry lands where it would at any worker
        count.  It is also the only code that moves the invocation,
        retry, re-measure and latency metrics, from each outcome's
        fields, so they read the same however the sweep was measured."""
        # Workers' span subtrees hang off the span that dispatched the
        # sweep, re-issued in sweep order so the merged trace is
        # identical at any worker count.
        parent = current_span_id()
        for outcome in outcomes.values():
            default_tracer().adopt(outcome.spans, parent_id=parent)
        measured = cached = restored = retries = remeasures = 0
        failures: dict[str, int] = {}
        quarantined: list[QuarantineEntry] = []
        results: list[RunResult] = []
        self._sweep_outcomes = outcomes
        try:
            for benchmark, config in pairs:
                key = (benchmark, config.key)
                entry = self._quarantine.get(key)
                if entry is not None:
                    quarantined.append(entry)
                    continue
                result = self._cache_get(key)
                if result is not None:
                    _CACHE_HITS.inc()
                    results.append(result)
                    if key in self._restored_keys:
                        restored += 1
                    else:
                        cached += 1
                    continue
                _CACHE_MISSES.inc()
                if key not in outcomes:
                    self.measure(benchmark, config)
                outcome = outcomes[key]
                retries += outcome.retries
                remeasures += outcome.remeasures
                _RETRIES.inc(outcome.retries)
                _REMEASURES.inc(outcome.remeasures)
                for name in outcome.failure_events:
                    failures[name] = failures.get(name, 0) + 1
                if outcome.result is None:
                    entry = self._quarantine[key] = QuarantineEntry(
                        benchmark.name, config.key, outcome.failure
                    )
                    _QUARANTINED.inc()
                    quarantined.append(entry)
                    continue
                _INVOCATIONS.inc(outcome.result.invocations)
                _MEASURE_SECONDS.observe(outcome.measure_seconds)
                self._cache_store(key, outcome.result)
                self._checkpoint_append(outcome.result)
                results.append(outcome.result)
                measured += 1
        finally:
            self._sweep_outcomes = None
        health = CampaignHealth(
            attempted_pairs=len(pairs),
            measured_pairs=measured,
            cached_pairs=cached,
            restored_pairs=restored,
            retries=retries,
            remeasured_outliers=remeasures,
            failures=failures,
            quarantined=tuple(quarantined),
        )
        return ResultSet(results, health=health)

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


# -- checkpoint fingerprints -------------------------------------------------
#
# A JSONL checkpoint is a cache of measured records, and the records are
# only valid for the run parameters that produced them: the library root
# seed, the protocol's invocation scale, and the armed fault plan.  The
# fingerprint lives in a *sidecar* file (``<checkpoint>.meta``) so the
# checkpoint itself stays pure JSONL with bytes identical across
# sequential, parallel, and resumed campaigns.

CHECKPOINT_META_VERSION = 1


def checkpoint_meta_path(path: Path | str) -> Path:
    """Sidecar metadata path for a JSONL checkpoint (``<path>.meta``)."""
    path = Path(path)
    return path.with_name(path.name + ".meta")


def run_fingerprint(
    invocation_scale: float = 1.0, plan: Optional[object] = None
) -> dict[str, object]:
    """The parameters that make two campaigns byte-comparable.

    Worker count, checkpointing, and telemetry never affect result
    bytes, so they are deliberately absent; ``plan`` is the armed
    :class:`~repro.faults.plan.FaultPlan` (or None when disarmed), whose
    content fingerprint — not just its seed — is recorded."""
    from repro.core.seeding import ROOT_SEED

    return {
        "version": CHECKPOINT_META_VERSION,
        "root_seed": ROOT_SEED,
        "invocation_scale": invocation_scale,
        "fault_plan": plan.fingerprint if plan is not None else None,
    }


def write_checkpoint_meta(
    path: Path | str, fingerprint: Mapping[str, object]
) -> Path:
    meta = checkpoint_meta_path(path)
    meta.write_text(
        json.dumps(dict(fingerprint), sort_keys=True) + "\n", encoding="utf-8"
    )
    return meta


def read_checkpoint_meta(path: Path | str) -> Optional[dict]:
    """The fingerprint recorded beside a checkpoint, or ``None`` for
    checkpoints without a readable sidecar (every pre-sidecar one)."""
    try:
        data = json.loads(
            checkpoint_meta_path(path).read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def fingerprint_mismatch(
    saved: Mapping[str, object],
    current: Mapping[str, object],
    fields: tuple[str, ...] = ("root_seed", "invocation_scale", "fault_plan"),
) -> Optional[str]:
    """One-line description of the first differing fingerprint field, or
    ``None`` when the checkpoint is compatible with the current run.

    ``fields`` narrows the comparison: checkpoints compare everything
    (a fault plan changes *which pairs* a checkpoint holds), while the
    result store skips ``fault_plan`` (stored bytes are plan-invariant,
    and crash recovery restarts without the plan that killed the
    coordinator)."""
    for field in fields:
        if saved.get(field) != current.get(field):
            return (
                f"{field}: saved run had {saved.get(field)!r}, "
                f"this run has {current.get(field)!r}"
            )
    return None


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
