"""Process-wide metrics registry (counters, gauges, histograms).

A zero-dependency, stdlib-only metrics layer in the Prometheus idiom:
instruments are created once against a registry (idempotently, so modules
can declare them at import time), may carry labelled children, and are
scraped by the exporters in :mod:`repro.obs.export`.

Instrumentation is always compiled in but can be globally disabled with
:func:`set_enabled` — a disabled instrument's ``inc``/``set``/``observe``
is a cheap early return.  That switch plus a disabled tracer is the only
"telemetry off" mode, and the baseline :mod:`benchmarks.bench_obs_overhead`
measures the live instruments against.

Recording is lock-free: the campaign is single-threaded and the hot path
(several increments per engine invocation) cannot afford a lock acquire
per tick.  Under CPython's GIL each individual read/write stays
consistent; concurrent writers could at worst lose a tick, never corrupt
state.  Structural mutation (creating labelled children, registering
instruments) is fully locked.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from bisect import bisect_left
from typing import Callable, Iterator, Mapping, Optional, Sequence

_ENABLED = True


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable every instrument's recording methods."""
    global _ENABLED
    _ENABLED = bool(enabled)


def enabled() -> bool:
    return _ENABLED


#: Default latency buckets (seconds), spanning sub-millisecond counter
#: bumps to multi-second full-protocol measurements.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(f"metric name must be [A-Za-z0-9_]+, got {name!r}")
    return name


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Picklable per-instrument state: ``{"kind", "value" | ("counts", "sum",
#: "count", "buckets"), "children": {label_key: ...}}`` — the wire format
#: pool workers ship their telemetry deltas home in.
InstrumentSnapshot = dict
RegistrySnapshot = dict


class _Instrument:
    """Shared plumbing: identity, lock, and labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Mapping[str, str] | None = None) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.label_values: dict[str, str] = dict(labels or {})
        self._lock = threading.Lock()
        self._children: dict[tuple[tuple[str, str], ...], "_Instrument"] = {}

    def labels(self, **labels: str) -> "_Instrument":
        """The child instrument for one label combination (created once)."""
        if not labels:
            raise ValueError("labels() needs at least one label")
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child(labels)
                    self._children[key] = child
        return child

    def _make_child(self, labels: Mapping[str, str]) -> "_Instrument":
        return type(self)(self.name, self.help, labels)

    def children(self) -> tuple["_Instrument", ...]:
        return tuple(self._children.values())

    def samples(self) -> Iterator["_Instrument"]:
        """This instrument (if it holds data) and every labelled child."""
        if not self._children or self._touched():
            yield self
        for child in self._children.values():
            yield from child.samples()

    def _touched(self) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    # -- cross-process merging ----------------------------------------------

    def _state(self) -> dict:
        raise NotImplementedError

    def _apply(self, state: Mapping) -> None:
        raise NotImplementedError

    def snapshot(self) -> InstrumentSnapshot:
        """This instrument's state (and its children's) as picklable
        plain dicts — what a pool worker ships home."""
        snap: InstrumentSnapshot = {"kind": self.kind, **self._state()}
        if self._children:
            snap["children"] = {
                key: child.snapshot() for key, child in self._children.items()
            }
        return snap

    def apply_snapshot(self, snap: Mapping) -> None:
        """Merge a snapshot (usually a delta) additively into this
        instrument, creating labelled children as needed."""
        kind = snap.get("kind", self.kind)
        if kind != self.kind:
            raise TypeError(
                f"cannot merge a {kind} snapshot into {self.kind} {self.name!r}"
            )
        self._apply(snap)
        for key, child_snap in snap.get("children", {}).items():
            self.labels(**dict(key)).apply_snapshot(child_snap)


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Mapping[str, str] | None = None) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _touched(self) -> bool:
        return self._value != 0.0

    def reset(self) -> None:
        self._value = 0.0
        for child in self._children.values():
            child.reset()

    def _state(self) -> dict:
        return {"value": self._value}

    def _apply(self, state: Mapping) -> None:
        self._value += state.get("value", 0.0)


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Mapping[str, str] | None = None) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _touched(self) -> bool:
        return self._value != 0.0

    def reset(self) -> None:
        self._value = 0.0
        for child in self._children.values():
            child.reset()

    def _state(self) -> dict:
        return {"value": self._value}

    def _apply(self, state: Mapping) -> None:
        # A gauge delta merges additively, like a counter: the parent's
        # reading becomes its own value plus the worker's movement.
        self._value += state.get("value", 0.0)


class Histogram(_Instrument):
    """Observations bucketed by value, with sum and count.

    Buckets are upper bounds; an implicit ``+Inf`` bucket always exists.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        if any(b != b or b == math.inf for b in bounds):
            raise ValueError("explicit buckets must be finite")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing slot is +Inf
        self._sum = 0.0
        self._count = 0

    def _make_child(self, labels: Mapping[str, str]) -> "Histogram":
        return Histogram(self.name, self.help, labels, buckets=self.buckets)

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        value = float(value)
        index = bisect_left(self.buckets, value)
        self._counts[index] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Prometheus ``histogram_quantile`` semantics: the target rank is
        located in the cumulative bucket counts and linearly interpolated
        within its bucket (from the previous bound, or 0 below the first
        bucket).  Ranks landing in the ``+Inf`` bucket clamp to the
        highest finite bound — the estimate is bucket-resolution, not
        exact.  Returns 0.0 when no observations have been recorded.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            in_bucket = self._counts[index]
            if in_bucket and cumulative + in_bucket >= rank:
                lower = self.buckets[index - 1] if index else 0.0
                fraction = max(0.0, rank - cumulative) / in_bucket
                return lower + (bound - lower) * fraction
            cumulative += in_bucket
        return self.buckets[-1]

    def bucket_counts(self) -> tuple[tuple[float, int], ...]:
        """Cumulative (upper_bound, count) pairs, ending at ``+Inf``."""
        cumulative = 0
        out: list[tuple[float, int]] = []
        for bound, n in zip((*self.buckets, math.inf), self._counts):
            cumulative += n
            out.append((bound, cumulative))
        return tuple(out)

    def _touched(self) -> bool:
        return self._count != 0

    def reset(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        for child in self._children.values():
            child.reset()

    def _state(self) -> dict:
        return {
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
            "buckets": list(self.buckets),
        }

    def _apply(self, state: Mapping) -> None:
        counts = state.get("counts")
        if counts is not None:
            if len(counts) != len(self._counts):
                raise ValueError(
                    f"histogram {self.name!r}: cannot merge {len(counts)} "
                    f"bucket counts into {len(self._counts)}"
                )
            for index, n in enumerate(counts):
                self._counts[index] += n
        self._sum += state.get("sum", 0.0)
        self._count += state.get("count", 0)


class Timer:
    """Times a block (context manager) or callable (decorator) into a
    histogram of seconds."""

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._start is not None:
            self.histogram.observe(time.perf_counter() - self._start)
            self._start = None

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object) -> object:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.histogram.observe(time.perf_counter() - start)

        return wrapper


class MetricsRegistry:
    """Named instruments, created idempotently.

    Asking twice for the same name returns the same instrument (so any
    module may declare its instruments at import time); asking with a
    conflicting kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs: object) -> _Instrument:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    def timed(self, name: str, help: str = "") -> Timer:
        """A :class:`Timer` over a histogram of seconds."""
        return Timer(self.histogram(name, help))

    def get(self, name: str) -> Optional[_Instrument]:
        return self._metrics.get(name)

    def collect(self) -> tuple[_Instrument, ...]:
        """Every registered instrument, in registration order."""
        return tuple(self._metrics.values())

    def reset(self) -> None:
        """Zero every instrument (instruments stay registered, so modules
        holding references at import time keep working)."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> RegistrySnapshot:
        """Every instrument's state as picklable plain dicts.

        Pool workers snapshot before and after a chunk of work; the
        parent merges ``snapshot_delta(after, before)`` so that only the
        chunk's own movement lands in the parent registry."""
        return {name: inst.snapshot() for name, inst in self._metrics.items()}

    def apply_snapshot(self, snap: RegistrySnapshot) -> None:
        """Merge a snapshot (usually a delta) additively, creating any
        instruments and labelled children this registry has not seen."""
        for name, inst_snap in snap.items():
            kind = inst_snap.get("kind", "counter")
            inst = self._metrics.get(name)
            if inst is None:
                if kind == "histogram":
                    inst = self.histogram(
                        name, buckets=inst_snap.get("buckets") or DEFAULT_BUCKETS
                    )
                elif kind == "gauge":
                    inst = self.gauge(name)
                else:
                    inst = self.counter(name)
            inst.apply_snapshot(inst_snap)

    def __iter__(self) -> Iterator[_Instrument]:
        return iter(self.collect())


def _diff_instrument(
    after: Mapping, before: Optional[Mapping]
) -> InstrumentSnapshot:
    if before is None:
        return dict(after)
    out: InstrumentSnapshot = {"kind": after.get("kind", "counter")}
    if out["kind"] == "histogram":
        before_counts = before.get("counts", [])
        out["counts"] = [
            n - (before_counts[i] if i < len(before_counts) else 0)
            for i, n in enumerate(after.get("counts", []))
        ]
        out["sum"] = after.get("sum", 0.0) - before.get("sum", 0.0)
        out["count"] = after.get("count", 0) - before.get("count", 0)
        out["buckets"] = after.get("buckets")
    else:
        out["value"] = after.get("value", 0.0) - before.get("value", 0.0)
    after_children = after.get("children")
    if after_children:
        before_children = before.get("children", {})
        out["children"] = {
            key: _diff_instrument(child, before_children.get(key))
            for key, child in after_children.items()
        }
    return out


def snapshot_delta(
    after: RegistrySnapshot, before: RegistrySnapshot
) -> RegistrySnapshot:
    """Element-wise ``after - before`` of two registry snapshots.

    Instruments (or labelled children) absent from ``before`` contribute
    their full ``after`` state.  Counter and histogram deltas are exact:
    every recorded amount is integer-valued or summed identically on both
    sides, so merging deltas in any grouping reproduces the same totals.
    """
    return {
        name: _diff_instrument(snap, before.get(name))
        for name, snap in after.items()
    }


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every built-in instrument lives in."""
    return _DEFAULT_REGISTRY
