"""Per-layer tracing from outside the program.

The benchmark wraps public functions of each layer at the name its
caller looks up (``repro.core.study.confidence_interval`` is the name
``Study`` calls, not ``repro.core.statistics.confidence_interval``), so
the program itself carries no benchmark code.  Each wrapper records one
span — name, start, end, parent — in memory; :meth:`Recorder.dump`
writes them out when the traced process ends, together with the counts
the program already keeps in its ``repro_*`` metrics registry.

A layer's self time is its spans' duration minus the part its child
wrappers cover.  Wrappers nest strictly within one thread, so the self
times of a run partition the time under its outermost wrapper.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import resource
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Mapping

#: (layer name, module, attribute path): the name each layer's caller
#: looks up.  Layer names are ``<package>.<module>.<function>``.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("core.study.run_pairs", "repro.core.study", "Study.run_pairs"),
    ("core.study.measure", "repro.core.study", "Study.measure"),
    ("core.statistics.confidence_interval", "repro.core.study", "confidence_interval"),
    ("execution.kernels.compile_pair", "repro.execution.kernels", "compile_pair"),
    ("execution.kernels.run_pair", "repro.execution.kernels", "run_pair"),
    ("execution.engine.execution_plan", "repro.execution.engine", "ExecutionEngine.execution_plan"),
    ("execution.engine.kernel_snapshot", "repro.execution.engine", "ExecutionEngine.kernel_snapshot"),
    ("measurement.meter.measure_kernel", "repro.measurement.meter", "PowerMeter.measure_kernel"),
    ("core.executor.run_pairs", "repro.core.executor", "run_pairs"),
    ("core.executor.SweepPool.init", "repro.core.executor", "SweepPool.__init__"),
    ("core.executor.SweepPool.close", "repro.core.executor", "SweepPool.close"),
)


class Recorder:
    """Installs the layer wrappers and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def install(self) -> "Recorder":
        for name, module_name, path in TARGETS:
            owner: object = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            setattr(owner, attribute, self._wrap(name, getattr(owner, attribute)))
        return self

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))

        return wrapper

    def dump(self, path: Path | str) -> None:
        """Write the spans and the registry readings of this process."""
        payload = {
            "spans": self.spans,
            "registry": registry_readings(),
            "worker_peak_rss_mib": children_peak_rss_mib(),
        }
        Path(path).write_text(json.dumps(payload))


def self_times(spans: Iterable[Iterable]) -> dict[str, dict[str, float]]:
    """``{layer: {"calls", "self_s"}}`` from recorded spans."""
    spans = [tuple(span) for span in spans]
    covered: dict[int, int] = {}
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start - covered.get(span_id, 0)) / 1e9
    return out


def children_peak_rss_mib() -> float:
    """High-water RSS of this process's reaped children (pool workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _value(registry, name: str) -> float:
    metric = registry.get(name)
    if metric is None:
        return 0.0
    children = metric.children()
    if children:
        return float(sum(child.value for child in children))
    return float(metric.value)


def _p50_ms(histogram) -> float:
    if histogram is None or not histogram.count:
        return 0.0
    return histogram.quantile(0.5) * 1000.0


def _labelled(registry, name: str, label: str, value: str):
    metric = registry.get(name)
    if metric is None:
        return None
    for child in metric.children():
        if child.label_values.get(label) == value:
            return child
    return None


def registry_readings() -> dict[str, float]:
    """The counts the program keeps in its ``repro_*`` registry."""
    from repro.obs.metrics import default_registry

    registry = default_registry()
    hits = _value(registry, "repro_study_cache_hits_total")
    misses = _value(registry, "repro_study_cache_misses_total")
    batch = registry.get("repro_service_batch_pairs")
    readings = {
        "execution.kernels.compiles": _value(registry, "repro_kernel_compiles_total"),
        "execution.kernels.cache_bytes": _value(registry, "repro_kernel_cache_bytes"),
        "execution.kernels.scalar_fallbacks": _value(
            registry, "repro_kernel_scalar_fallbacks_total"
        ),
        "core.study.cache_hits": hits,
        "core.study.cache_misses": misses,
        "service.batch_pairs.mean": batch.mean if batch is not None and batch.count else 0.0,
        "service.coalesced": _value(registry, "repro_service_coalesced_total"),
        "service.store.reads": _value(registry, "repro_store_reads_total"),
        "service.store.writes": _value(registry, "repro_store_writes_total"),
        "service.http.results.p50_ms": _p50_ms(
            _labelled(registry, "repro_http_request_seconds", "route", "/results")
        ),
    }
    for stage in ("admission", "schedule", "batch", "store"):
        readings[f"service.stage.{stage}.p50_ms"] = _p50_ms(
            _labelled(registry, "repro_service_stage_seconds", "stage", stage)
        )
    return readings


def per_layer_metrics(dump: Mapping) -> dict[str, float]:
    """The per-layer metrics named in ``BENCHMARK.json`` from one traced
    process's :meth:`Recorder.dump`."""
    layers = self_times(dump["spans"])

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return float(layers.get(name, {}).get("calls", 0))

    registry = dict(dump["registry"])
    hits = registry.pop("core.study.cache_hits")
    misses = registry.pop("core.study.cache_misses")
    pools = calls("core.executor.SweepPool.init")
    return {
        **registry,
        "execution.kernels.compile_pair.calls": calls("execution.kernels.compile_pair"),
        "core.executor.run_pairs.calls": calls("core.executor.run_pairs"),
        "core.executor.pools_started": pools,
        "core.executor.SweepPool.init_s": self_s("core.executor.SweepPool.init"),
        "core.executor.SweepPool.close_s": self_s("core.executor.SweepPool.close"),
        **{
            f"{name}.self_s": self_s(name)
            for name, _, _ in TARGETS
            if not name.startswith("core.executor.SweepPool")
        },
        "core.study.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.executor.worker_peak_rss_mib": dump["worker_peak_rss_mib"] if pools else 0.0,
        "trace.self_sum_s": sum(entry["self_s"] for entry in layers.values()),
    }
