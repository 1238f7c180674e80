"""Campaign orchestration: running the paper's measurement study.

A :class:`Study` binds the execution engine, the per-machine power meters,
and the normalisation references, and runs benchmarks over configurations
following the paper's measurement protocol (3/5 executions for native,
20 JVM invocations reporting the fifth iteration for Java), producing a
:class:`~repro.core.results.ResultSet`.

Results are cached per (benchmark, configuration), so experiments that
share configurations (most of §3's feature analyses share the stock
settings) pay for each measurement once.  The cache keys by the benchmark
*value* — not its name — for the same reason the engine's instruction
cache does: synthetic workloads may share a name while differing in
signature, and a name-keyed cache would silently hand one workload the
other's measurements.

The study is also the campaign's *survival* layer.  The paper's physical
rig really failed — invocations crashed and hung, the logger disconnected
— and the authors silently re-ran them; here that recovery is explicit:
each invocation runs under a bounded :class:`~repro.faults.RetryPolicy`
(exponential backoff + jitter, a cumulative simulated-timeout budget),
suspect invocations can be re-measured via a MAD outlier screen, pairs
that exhaust their retries are quarantined instead of aborting the sweep,
``run()`` returns a partial :class:`ResultSet` carrying a
:class:`~repro.core.results.CampaignHealth` report, and an optional JSONL
checkpoint lets an interrupted campaign resume where it stopped.

The study is the natural place to account for the campaign, so it is
instrumented: cache hits/misses, invocations, retries, quarantines, and
checkpoint restores feed the process metrics registry, each uncached
measurement runs under a ``study.measure`` span, and an optional
:class:`~repro.obs.progress.ProgressReporter` receives one tick per
invocation (scaled counts under ``invocation_scale``).
"""

from __future__ import annotations

import json
import math
import os
import time
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
from repro.execution.engine import ExecutionEngine
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
from repro.obs.tracing import current_span_id, default_tracer
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
    "Latency of one uncached Study.measure (all invocations)",
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


class _Stats:
    """Lifetime failure accounting for one study; ``run`` snapshots it to
    build per-campaign :class:`CampaignHealth` deltas.

    ``events`` keeps every failure's type name in observation order: pool
    workers slice it per pair so the parent can replay failures at each
    pair's position and reproduce the sequential campaign's failure-dict
    insertion order exactly."""

    __slots__ = ("retries", "remeasures", "failures", "events")

    def __init__(self) -> None:
        self.retries = 0
        self.remeasures = 0
        self.failures: dict[str, int] = {}
        self.events: list[str] = []

    def record_failure(self, error: MeasurementError) -> None:
        self.record_failure_name(type(error).__name__)

    def record_failure_name(self, name: str) -> None:
        self.failures[name] = self.failures.get(name, 0) + 1
        self.events.append(name)

    def snapshot(self) -> tuple[int, int, dict[str, int]]:
        return self.retries, self.remeasures, dict(self.failures)


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

    ``jobs`` shards sweeps across a process pool: ``None`` (the default)
    runs in-process, an integer pins the worker count, and ``"auto"``
    (or 0) uses the machine's CPU count.  Because every measurement is
    pure and keyed by deterministic per-site seeds, a parallel ``run()``
    returns results, health, and checkpoint bytes identical to the
    sequential path at any worker count (see docs/performance.md).

    ``cache_capacity`` bounds the in-memory result cache: once more than
    that many pairs are cached, the least-recently-used result is
    evicted (and counted in ``repro_study_cache_evictions_total``).
    Because measurements are pure, an evicted pair re-measures to the
    byte-identical result; the cap trades repeat work for bounded memory
    in long-lived processes such as the campaign server.  ``None`` (the
    default) keeps the cache unbounded, exactly as before.

    ``reuse_pool`` keeps the parallel sweep's worker pool alive between
    ``run()``/``run_pairs()`` calls instead of tearing it down per sweep
    — again a long-lived-process affordance; call :meth:`close_pool`
    (or rely on process exit) to release the workers.

    Parallel sweeps run on a :class:`~repro.core.executor.SweepPool`:
    workers send heartbeats every ``heartbeat_s`` seconds, are declared
    dead after ``liveness_misses`` missed beats, and are respawned with
    their in-flight chunk requeued — the sweep survives worker crashes,
    hangs, and slow-death with the same bytes.  When no worker can be
    spawned the sweep runs in-process instead.
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
        self._engine = self._references.engine
        self._scale = invocation_scale
        self._benchmarks = tuple(benchmarks)
        self._progress = progress
        self._retry = retry or DEFAULT_RETRY_POLICY
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
        self._vectorize = bool(vectorize)
        self._cache: dict[tuple[Benchmark, str], RunResult] = {}
        self._restored_keys: set[tuple[Benchmark, str]] = set()
        self._quarantine: dict[tuple[Benchmark, str], QuarantineEntry] = {}
        self._stats = _Stats()
        # Memoised per-benchmark protocol and per-machine meter lookups:
        # a 61x45 sweep re-derives neither inside the measurement loop.
        self._protocols: dict[Benchmark, MeasurementProtocol] = {}
        self._meters: dict[str, PowerMeter] = {}

    @property
    def engine(self) -> ExecutionEngine:
        return self._engine

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
        return self._retry

    @property
    def vectorize(self) -> bool:
        """Whether fault-free pairs run through compiled sweep kernels."""
        return self._vectorize

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
        protocol = self._protocol(benchmark)
        return max(1, math.ceil(protocol.invocations * self._scale))

    def planned_invocations(
        self,
        configurations: Iterable[Configuration],
        benchmarks: Optional[Sequence[Benchmark]] = None,
    ) -> int:
        """Invocations a sweep would actually execute (uncached,
        unquarantined pairs only)."""
        chosen = tuple(benchmarks) if benchmarks is not None else self._benchmarks
        return sum(
            self.scaled_invocations(benchmark)
            for config in configurations
            for benchmark in chosen
            if not self.is_cached(benchmark, config)
            and not self.is_quarantined(benchmark, config)
        )

    def _protocol(self, benchmark: Benchmark) -> MeasurementProtocol:
        protocol = self._protocols.get(benchmark)
        if protocol is None:
            protocol = protocol_for(benchmark)
            self._protocols[benchmark] = protocol
        return protocol

    def _meter(self, spec: ProcessorSpec) -> PowerMeter:
        meter = self._meters.get(spec.key)
        if meter is None:
            meter = meter_for(spec)
            self._meters[spec.key] = meter
        return meter

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

        Raises :class:`~repro.faults.RetriesExhausted` if an invocation
        keeps failing through the retry policy, or immediately if the
        pair is already quarantined; ``run()`` turns both into quarantine
        entries instead of propagating.
        """
        cache_key = (benchmark, config.key)
        cached = self._cache_get(cache_key)
        if cached is not None:
            _CACHE_HITS.inc()
            return cached
        entry = self._quarantine.get(cache_key)
        if entry is not None:
            raise RetriesExhausted(
                f"{benchmark.name} @ {config.key} is quarantined: {entry.reason}",
                site=f"{config.key}/{benchmark.name}",
            )
        _CACHE_MISSES.inc()
        retries_before = self._stats.retries
        remeasures_before = self._stats.remeasures
        with default_tracer().span(
            "study.measure", benchmark=benchmark.name, config=config.key
        ) as span:
            started = time.perf_counter()
            result = self._measure_uncached(benchmark, config)
            span.set_attribute("invocations", result.invocations)
            span.set_attribute("seconds", round(result.seconds, 6))
            retries = self._stats.retries - retries_before
            remeasures = self._stats.remeasures - remeasures_before
            if retries:
                span.set_attribute("retries", retries)
            if remeasures:
                span.set_attribute("outlier_remeasures", remeasures)
            _MEASURE_SECONDS.observe(time.perf_counter() - started)
        self._cache_store(cache_key, result)
        self._checkpoint_append(result)
        return result

    def _metered_invocation(
        self,
        benchmark: Benchmark,
        config: Configuration,
        index: int,
        protocol: MeasurementProtocol,
        meter: PowerMeter,
    ) -> tuple[float, float]:
        """One invocation through engine and meter, with bounded retries.

        The site key doubles as the run salt, so measurement noise is a
        function of the site alone while injected-fault decisions also see
        the attempt (via :func:`~repro.faults.injector.attempt_scope`):
        a recovered fail-stop fault reproduces the fault-free measurement
        exactly.  Returns ``(seconds, average_watts)``.
        """
        site = f"{config.key}/{benchmark.name}/{index}"
        policy = self._retry
        hung_s = 0.0
        attempt = 0
        while True:
            try:
                with attempt_scope(attempt):
                    execution = self._engine.execute(
                        benchmark, config,
                        invocation=index,
                        iteration=protocol.iteration,
                    )
                    measurement = meter.measure(execution, run_salt=site)
                return execution.seconds.value, measurement.average_watts
            except RetriesExhausted:
                raise
            except MeasurementError as exc:
                self._stats.record_failure(exc)
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
                self._stats.retries += 1
                _RETRIES.inc()
                delay = policy.delay_for(attempt, site)
                if delay > 0.0:
                    time.sleep(delay)

    def _measure_uncached(
        self, benchmark: Benchmark, config: Configuration
    ) -> RunResult:
        protocol = self._protocol(benchmark)
        invocations = self.scaled_invocations(benchmark)
        meter = self._meter(config.spec)

        injector = _faults_active()
        # A pair vectorises when kernels are enabled and no armed fault
        # spec's scope reaches any of its sites — the scalar path is the
        # only one that walks the per-invocation fault hooks.  The scope
        # check draws no RNG, and an unarmed pair's hooks are no-ops that
        # also draw none, so skipping them is behaviour-identical.
        use_kernel = self._vectorize and (
            injector is None
            or not injector.may_fault_pair(
                config.key, benchmark.name, invocations
            )
        )
        if self._vectorize and not use_kernel:
            _kernels.note_fallback("faults")
        with default_tracer().span(
            "engine.execute",
            benchmark=benchmark.name,
            config=config.key,
            invocations=invocations,
        ):
            kernel_result = None
            if use_kernel:
                # One compiled numpy pass over the whole invocation loop;
                # ``None`` means the plan's shape isn't compilable and the
                # pair follows the scalar route below.
                kernel_result = _kernels.measure_pair(
                    self._engine, meter, benchmark, config, protocol,
                    invocations,
                )
            if kernel_result is not None:
                times, powers = kernel_result
                if self._progress is not None:
                    self._progress.advance(invocations)
            else:
                # The scalar reference: one invocation at a time through
                # engine and meter under the retry policy.
                times = []
                powers = []
                for invocation in range(invocations):
                    seconds, watts = self._metered_invocation(
                        benchmark, config, invocation, protocol, meter
                    )
                    times.append(seconds)
                    powers.append(watts)
                    if self._progress is not None:
                        self._progress.advance()
        _INVOCATIONS.inc(invocations)

        self._remeasure_outliers(
            benchmark, config, protocol, meter, times, powers, invocations
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
            speedup=self._references.speedup(benchmark, seconds),
            normalized_energy=self._references.normalized_energy(
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
        meter: PowerMeter,
        times: list[float],
        powers: list[float],
        invocations: int,
    ) -> None:
        """MAD outlier screen: re-measure suspect invocations in place.

        Replacement runs use salt indices past the protocol's range, so
        they draw fresh noise (re-running the same salt would reproduce
        the same glitch) without disturbing the other invocations'
        streams.  Off unless the policy sets ``outlier_threshold``, which
        keeps the default protocol byte-identical to the unscreened one.
        """
        threshold = self._retry.outlier_threshold
        if threshold is None or self._retry.max_remeasures <= 0:
            return
        suspects = sorted(
            set(mad_outlier_indices(powers, threshold))
            | set(mad_outlier_indices(times, threshold))
        )
        for index in suspects[: self._retry.max_remeasures]:
            seconds, watts = self._metered_invocation(
                benchmark, config, invocations + index, protocol, meter
            )
            times[index] = seconds
            powers[index] = watts
            self._stats.remeasures += 1
            _REMEASURES.inc()

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
        Every pair funnels through :meth:`measure`, whose cache-hit fast
        path touches nothing but the cache dict and one counter, so hit
        and miss accounting cannot diverge between entry points.

        ``jobs`` overrides the study-level worker count for this sweep
        (``None`` inherits the study's setting).  The parallel path
        shards uncached pairs across a process pool and merges worker
        results deterministically, producing the byte-identical
        :class:`ResultSet`, health report, and checkpoint bytes the
        sequential path would have — see :mod:`repro.core.executor`.
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
        if self._progress is not None:
            self._progress.extend_total(
                sum(
                    self.scaled_invocations(b)
                    for b, c in pairs
                    if not self.is_cached(b, c) and not self.is_quarantined(b, c)
                )
            )
        workers = self._resolve_jobs(jobs)
        if workers is not None:
            pending: list[tuple[Benchmark, Configuration]] = []
            seen: set[tuple[Benchmark, str]] = set()
            for benchmark, config in pairs:
                key = (benchmark, config.key)
                if (
                    key in self._cache
                    or key in self._quarantine
                    or key in seen
                ):
                    continue
                seen.add(key)
                pending.append((benchmark, config))
            if pending:
                chunks = self._dispatch_parallel(pending, workers)
                if chunks is not None:
                    return self._merge_parallel(pairs, pending, chunks)
        before = self._stats.snapshot()
        measured = cached = restored = 0
        quarantined: list[QuarantineEntry] = []
        results: list[RunResult] = []
        for benchmark, config in pairs:
            key = (benchmark, config.key)
            entry = self._quarantine.get(key)
            if entry is not None:
                quarantined.append(entry)
                continue
            was_cached = key in self._cache
            try:
                results.append(self.measure(benchmark, config))
            except MeasurementError as exc:
                quarantined.append(self._quarantine_pair(key, str(exc)))
                continue
            if was_cached:
                if key in self._restored_keys:
                    restored += 1
                else:
                    cached += 1
            else:
                measured += 1
        health = self._health_since(
            before, len(pairs), measured, cached, restored, quarantined
        )
        return ResultSet(results, health=health)

    def _quarantine_pair(
        self, key: tuple[Benchmark, str], reason: str
    ) -> QuarantineEntry:
        """Quarantine one pair that exhausted its retries."""
        entry = QuarantineEntry(
            benchmark_name=key[0].name, config_key=key[1], reason=reason
        )
        self._quarantine[key] = entry
        _QUARANTINED.inc()
        return entry

    def _health_since(
        self,
        before: tuple[int, int, dict[str, int]],
        attempted: int,
        measured: int,
        cached: int,
        restored: int,
        quarantined: Sequence[QuarantineEntry],
    ) -> CampaignHealth:
        """One sweep's health report: pair counts as tallied, and the
        retry, re-measure, and failure movement since ``before`` (a
        stats snapshot taken when the sweep started)."""
        retries_0, remeasures_0, failures_0 = before
        retries_1, remeasures_1, failures_1 = self._stats.snapshot()
        failures = {
            name: count - failures_0.get(name, 0)
            for name, count in failures_1.items()
            if count - failures_0.get(name, 0) > 0
        }
        return CampaignHealth(
            attempted_pairs=attempted,
            measured_pairs=measured,
            cached_pairs=cached,
            restored_pairs=restored,
            retries=retries_1 - retries_0,
            remeasured_outliers=remeasures_1 - remeasures_0,
            failures=failures,
            quarantined=tuple(quarantined),
        )

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

    def _dispatch_parallel(
        self,
        pending: Sequence[tuple[Benchmark, Configuration]],
        workers: int,
    ):
        """Shard ``pending`` across the worker pool; ``None`` if no pool
        can be built or every worker died beyond repair (the caller falls
        back to the sequential loop — safe, because nothing merges until
        every chunk is back)."""
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
            calibration=self._engine.calibration_snapshot(),
            invocation_scale=self._scale,
            retry=self._retry,
            metrics_enabled=_metrics_enabled(),
            fault_plan=injector.plan if injector is not None else None,
            trace_enabled=default_tracer().is_enabled,
            kernels=self._engine.kernel_snapshot() or None,
            vectorize=self._vectorize,
        )
        indexed = tuple(
            (benchmark, config, index)
            for index, (benchmark, config) in enumerate(pending)
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
            return executor.run_pairs(
                setup, indexed, workers, self._progress, self._pool, **options
            )
        except executor.PoolUnavailable:
            # Drop a kept-alive pool that died so the next dispatch
            # starts a fresh one.
            self.close_pool()
            return None

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

    def _merge_parallel(
        self,
        pairs: Sequence[tuple[Benchmark, Configuration]],
        pending: Sequence[tuple[Benchmark, Configuration]],
        chunks,
    ) -> ResultSet:
        """Fold worker outcomes back in, reproducing the sequential path.

        Worker metric deltas merge in chunk order; then the full pair
        list replays in sweep order, so cache inserts, checkpoint
        appends, failure-dict insertion order, hit/miss accounting, and
        quarantine decisions all land exactly where the sequential loop
        would have put them."""
        before = self._stats.snapshot()
        for chunk in chunks:
            _REGISTRY.apply_snapshot(chunk.metrics_delta)
        outcome_by_index = {
            outcome.index: outcome
            for chunk in chunks
            for outcome in chunk.outcomes
        }
        tracer = default_tracer()
        if tracer.is_enabled:
            # Adopt worker span subtrees in sweep (pending) order — the
            # span analogue of the metric-delta merge above: IDs are
            # re-issued from the parent tracer in a deterministic order,
            # so the merged trace is identical at any worker count and
            # every subtree hangs off the span that dispatched the sweep.
            parent = current_span_id()
            for index in range(len(pending)):
                outcome = outcome_by_index.get(index)
                if outcome is not None and outcome.spans:
                    tracer.adopt(outcome.spans, parent_id=parent)
        pending_index = {
            (benchmark, config.key): index
            for index, (benchmark, config) in enumerate(pending)
        }
        measured = cached = restored = 0
        quarantined: list[QuarantineEntry] = []
        results: list[RunResult] = []
        for benchmark, config in pairs:
            key = (benchmark, config.key)
            entry = self._quarantine.get(key)
            if entry is not None:
                quarantined.append(entry)
                continue
            cached_result = self._cache_get(key)
            if cached_result is not None:
                _CACHE_HITS.inc()
                results.append(cached_result)
                if key in self._restored_keys:
                    restored += 1
                else:
                    cached += 1
                continue
            outcome = outcome_by_index[pending_index[key]]
            self._stats.retries += outcome.retries
            self._stats.remeasures += outcome.remeasures
            for name in outcome.failure_events:
                self._stats.record_failure_name(name)
            if outcome.result is not None:
                self._cache_store(key, outcome.result)
                self._checkpoint_append(outcome.result)
                results.append(outcome.result)
                measured += 1
            else:
                quarantined.append(
                    self._quarantine_pair(
                        key, outcome.failure or "worker failure"
                    )
                )
        health = self._health_since(
            before, len(pairs), measured, cached, restored, quarantined
        )
        return ResultSet(results, health=health)

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
