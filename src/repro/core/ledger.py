"""The campaign ledger: what a study has measured, restored and given up on.

The paper's dataset is one physical campaign, measured once, with
invocations re-run where the rig failed.  A :class:`Ledger` is that
bookkeeping: the result cache (keyed by the benchmark *value*, since
synthetic workloads may share a name while differing in signature), the
quarantine, the JSONL checkpoint with its fingerprint sidecar, and the
study metrics.  :meth:`Ledger.merge` is the one merge loop every sweep
walks in sweep order, whether its pairs were measured in-process or on
the worker pool; it keeps no per-sweep state, so a merge may run inside
another (a progress callback measuring a pair mid-sweep).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

from repro.core.results import (
    CampaignHealth,
    QuarantineEntry,
    ResultSet,
    RunResult,
)
from repro.hardware.config import Configuration
from repro.obs.metrics import default_registry
from repro.obs.tracing import current_span_id, default_tracer
from repro.workloads.benchmark import Benchmark
from repro.workloads.catalog import BENCHMARKS_BY_NAME

if TYPE_CHECKING:
    from repro.core.study import PairOutcome

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
    "Cache entries restored from pre-measured records "
    "(a checkpoint file or the server's result store)",
)
_CACHE_EVICTIONS = _REGISTRY.counter(
    "repro_study_cache_evictions_total",
    "Results evicted from a capacity-bounded study cache (LRU order)",
)

Pair = tuple[Benchmark, Configuration]
Key = tuple[Benchmark, str]


class CheckpointMismatch(ValueError):
    """A checkpoint whose sidecar records a different run; the message
    names the first differing fingerprint field."""


class Ledger:
    """The cache, quarantine and checkpoint of one study.

    ``benchmarks`` resolves restored records by name before the catalog.
    ``cache_capacity`` bounds the cache: past that many pairs the
    least-recently-used result is evicted (counted in
    ``repro_study_cache_evictions_total``) and, measurements being pure,
    re-measures byte-identically if asked for again; ``None`` keeps it
    unbounded.  ``checkpoint_path`` gets every newly measured result
    appended as one JSON line."""

    def __init__(
        self,
        benchmarks: Sequence[Benchmark],
        cache_capacity: Optional[int] = None,
        checkpoint_path: Optional[Path | str] = None,
    ) -> None:
        if cache_capacity is not None and cache_capacity < 1:
            raise ValueError(
                f"cache capacity must be >= 1 (or None for unbounded), "
                f"got {cache_capacity!r}"
            )
        self._benchmarks = tuple(benchmarks)
        self._capacity = cache_capacity
        self._checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._cache: dict[Key, RunResult] = {}
        self._restored_keys: set[Key] = set()
        self._quarantine: dict[Key, QuarantineEntry] = {}

    # -- cache and quarantine --------------------------------------------------

    @property
    def cache_capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def cached_pairs(self) -> int:
        """Results currently held in the in-memory cache."""
        return len(self._cache)

    @property
    def quarantined(self) -> tuple[QuarantineEntry, ...]:
        """Pairs that exhausted their retries, in quarantine order."""
        return tuple(self._quarantine.values())

    def is_cached(self, benchmark: Benchmark, config: Configuration) -> bool:
        return (benchmark, config.key) in self._cache

    def is_quarantined(self, benchmark: Benchmark, config: Configuration) -> bool:
        return (benchmark, config.key) in self._quarantine

    def clear_cache(self) -> None:
        """Evict every cached result (measurements are pure, so a re-run
        reproduces the identical dataset)."""
        self._cache.clear()
        self._restored_keys.clear()

    def clear_quarantine(self) -> None:
        """Give quarantined pairs another chance on the next sweep."""
        self._quarantine.clear()

    def pending(self, pairs: Iterable[Pair]) -> list[Pair]:
        """The pairs a sweep must measure: uncached, unquarantined, each
        once, in sweep order."""
        pending: dict[Key, Pair] = {}
        for benchmark, config in pairs:
            key = (benchmark, config.key)
            if not (key in pending or key in self._cache or key in self._quarantine):
                pending[key] = (benchmark, config)
        return list(pending.values())

    def _cache_store(self, key: Key, result: RunResult) -> None:
        """Insert ``result``; the dict's insertion order is the recency
        order, so past the capacity eviction takes its first keys."""
        self._cache[key] = result
        if self._capacity is None:
            return
        while len(self._cache) > self._capacity:
            oldest = next(iter(self._cache))
            del self._cache[oldest]
            self._restored_keys.discard(oldest)
            _CACHE_EVICTIONS.inc()

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
        """Load a JSONL checkpoint into the result cache; returns the
        number of entries restored.

        Records for benchmarks this ledger does not know and malformed
        trailing lines — the expected residue of a campaign killed
        mid-write — are skipped, not fatal: a checkpoint is a cache, and
        the worst a skipped line costs is one re-measurement."""
        results = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            try:
                results.append(RunResult.from_record(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                continue  # blank, truncated or malformed: re-measure instead
        return self.restore_records(results)

    def restore_records(self, records: Iterable[RunResult]) -> int:
        """Load pre-measured results (a checkpoint's, or the campaign
        server's store) straight into the result cache.

        Records for unknown benchmarks are skipped, already-cached pairs
        keep their result, and restored pairs are accounted as
        ``restored`` (not ``cached``) in later health reports.  Returns
        the number of entries actually restored."""
        by_name = {**BENCHMARKS_BY_NAME, **{b.name: b for b in self._benchmarks}}
        restored = 0
        for result in records:
            benchmark = by_name.get(result.benchmark_name)
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

    def resume(
        self, path: Optional[Path | str], fingerprint: Mapping[str, object]
    ) -> Optional[int]:
        """Restore the checkpoint at ``path`` (if any) for the run
        ``fingerprint`` describes, then stamp ``fingerprint`` beside this
        ledger's own checkpoint, so even an interrupted first run leaves
        one that can be validated on resume.

        Returns the entries restored, or ``None`` for no ``path`` or a
        missing one that is this ledger's own checkpoint (a cold start).
        Raises :class:`FileNotFoundError` for any other missing ``path``
        and :class:`CheckpointMismatch` when its sidecar records another
        run; a checkpoint without a sidecar resumes unchecked."""
        restored = None
        if path is not None:
            if Path(path).exists():
                saved = read_checkpoint_meta(path)
                if saved is not None:
                    mismatch = fingerprint_mismatch(saved, fingerprint)
                    if mismatch is not None:
                        raise CheckpointMismatch(mismatch)
                restored = self.restore_checkpoint(path)
            elif Path(path) != self._checkpoint_path:
                raise FileNotFoundError(path)
        if self._checkpoint_path is not None:
            checkpoint_meta_path(self._checkpoint_path).write_text(
                json.dumps(dict(fingerprint), sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return restored

    # -- the merge loop --------------------------------------------------------

    def merge(
        self,
        pairs: Sequence[Pair],
        outcomes: dict[Key, "PairOutcome"],
        measure: Callable[[Benchmark, Configuration], "PairOutcome"],
    ) -> ResultSet:
        """Walk a sweep's pairs in order and turn each into a quarantine
        entry, a cache hit, or a measured outcome.

        ``outcomes`` holds the pool's outcomes when the sweep was
        dispatched; any other uncached pair is measured here, lazily
        through ``measure``, and its outcome added to ``outcomes``, so
        the checkpoint grows pair by pair and every entry lands where it
        would at any worker count.  This is the only code that moves the
        study metrics, from each outcome's fields."""
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
        for benchmark, config in pairs:
            key = (benchmark, config.key)
            entry = self._quarantine.get(key)
            if entry is not None:
                quarantined.append(entry)
                continue
            result = self._cache.get(key)
            if result is not None:
                if self._capacity is not None:  # refresh LRU recency
                    self._cache[key] = self._cache.pop(key)
                _CACHE_HITS.inc()
                results.append(result)
                if key in self._restored_keys:
                    restored += 1
                else:
                    cached += 1
                continue
            _CACHE_MISSES.inc()
            outcome = outcomes.get(key)
            if outcome is None:
                outcome = outcomes[key] = measure(benchmark, config)
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
            if self._checkpoint_path is not None:
                with self._checkpoint_path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(outcome.result.as_record()) + "\n")
            results.append(outcome.result)
            measured += 1
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


# -- checkpoint fingerprints -------------------------------------------------
#
# A JSONL checkpoint's records are only valid for the run parameters that
# produced them: the library root seed, the protocol's invocation scale,
# and the armed fault plan.  The fingerprint lives in a *sidecar* file
# (``<checkpoint>.meta``) so the checkpoint itself stays pure JSONL with
# bytes identical across sequential, parallel, and resumed campaigns.

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


def read_checkpoint_meta(path: Path | str) -> Optional[dict]:
    """The fingerprint recorded beside a checkpoint, or ``None`` for
    checkpoints without a readable sidecar (every pre-sidecar one)."""
    try:
        data = json.loads(checkpoint_meta_path(path).read_text(encoding="utf-8"))
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
