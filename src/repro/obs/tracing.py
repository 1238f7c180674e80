"""Hierarchical tracing: spans over the measurement campaign.

A span is one timed unit of work (an experiment regeneration, one
``study.measure``) with wall-time, attributes, and a parent resolved
through :mod:`contextvars` — so nesting follows the call structure with
no explicit threading of span objects, and survives threads/async tasks
that copy the context.

The default tracer is **disabled**: ``span()`` then yields a shared
no-op span at negligible cost.  The CLI enables it for ``--trace`` and
exports every finished span as one JSON object per line (JSONL); the
campaign server arms it per request (see :mod:`repro.obs.distributed`).

Span identity is global, not per-process: every tracer draws IDs from a
seeded 64-bit space (a sparse base derived from the pid, a per-process
tracer ordinal, and the monotonic clock, plus a low counter field), so
spans produced in pool workers do not alias the coordinator's — and
:meth:`Tracer.adopt` additionally *re-maps* incoming worker spans onto
the adopting tracer's own ID space in a deterministic order, which is
what makes the merged trace independent of worker count.
"""

from __future__ import annotations

import contextvars
import hashlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence, Union

_CURRENT_SPAN_ID: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

# Wall-clock anchor taken once: spans pay a single perf_counter() read at
# open instead of a perf_counter() + time() pair, and wall times are
# derived at export.
_WALL_ANCHOR = time.time()
_PERF_ANCHOR = time.perf_counter()


def current_span_id() -> Optional[int]:
    """The span ID of the innermost open span in this context, if any."""
    return _CURRENT_SPAN_ID.get()


def wall_time_of(perf_t: float) -> float:
    """Convert a ``perf_counter`` reading to this process's wall clock."""
    return _WALL_ANCHOR + (perf_t - _PERF_ANCHOR)


#: Low bits of a span ID reserved for the per-tracer counter; the seeded
#: base occupies the bits above, so two tracers collide only if both
#: their bases match (a 2^-43 event) *and* their counters overlap.
_COUNTER_BITS = 20

_TRACER_ORDINAL = itertools.count(1)


def _seed_id_base() -> int:
    """A sparse positive 63-bit base with the counter field cleared.

    Seeded from (pid, per-process tracer ordinal, monotonic ns): distinct
    processes — including forked pool workers after :meth:`Tracer.reseed`
    — and distinct tracers within one process land in disjoint ID ranges.
    """
    token = f"{os.getpid()}:{next(_TRACER_ORDINAL)}:{time.monotonic_ns()}"
    digest = hashlib.blake2b(token.encode("ascii"), digest_size=8).digest()
    base = int.from_bytes(digest, "big") & ((1 << 63) - 1)
    base &= ~((1 << _COUNTER_BITS) - 1)
    # A zero base would alias the historical 1, 2, 3... sequence.
    return base or (1 << _COUNTER_BITS)


class Span:
    """One finished-or-running unit of traced work.

    A span opened by :meth:`Tracer.span` is its own context manager
    (one object per span, not a span plus a handle): entering makes it
    the ambient parent, leaving finishes it and hands it to its tracer.
    :meth:`Tracer.record_span` builds one already finished."""

    __slots__ = ("name", "span_id", "parent_id",
                 "_start_perf", "duration_s", "attributes", "_tracer", "_token")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attributes: Optional[dict[str, object]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self._start_perf = time.perf_counter()
        self.duration_s: Optional[float] = None
        # The kwargs dict handed in by Tracer.span is already fresh; take
        # ownership rather than copying on the hot path.
        self.attributes: dict[str, object] = (
            attributes if attributes is not None else {}
        )
        self._tracer = tracer

    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN_ID.set(self.span_id)
        return self

    def __exit__(self, *exc: object) -> None:
        _CURRENT_SPAN_ID.reset(self._token)
        self.finish()
        self._tracer._append(self)  # type: ignore[union-attr]

    @property
    def start_wall(self) -> float:
        return _WALL_ANCHOR + (self._start_perf - _PERF_ANCHOR)

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def finish(self) -> None:
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._start_perf

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix_s": round(self.start_wall, 6),
            "duration_s": None if self.duration_s is None
            else round(self.duration_s, 9),
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(
        cls,
        record: Mapping[str, object],
        span_id: int,
        parent_id: Optional[int],
    ) -> "Span":
        """Reconstitute a shipped span under new identity.

        Used by :meth:`Tracer.adopt`: the wall start and duration are
        preserved; ``span_id``/``parent_id`` come from the adopter."""
        span = cls(
            str(record.get("name", "")),
            span_id=span_id,
            parent_id=parent_id,
            attributes=dict(record.get("attributes") or {}),  # type: ignore[arg-type]
        )
        start_unix = float(record.get("start_unix_s", _WALL_ANCHOR))  # type: ignore[arg-type]
        span._start_perf = _PERF_ANCHOR + (start_unix - _WALL_ANCHOR)
        duration = record.get("duration_s")
        span.duration_s = None if duration is None else float(duration)  # type: ignore[arg-type]
        return span


class _NullSpan:
    """What a disabled tracer hands out: accepts attributes, records nothing."""

    __slots__ = ()
    name = ""
    span_id = None
    parent_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def set_attribute(self, key: str, value: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; parenthood propagates via contextvars.

    The finished list is mutated under a lock (one uncontended acquire
    per span *close*, nothing per invocation) because the campaign server
    finishes spans on its measurement thread while the event loop prunes
    served request trees out of the same list.
    """

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._ids = itertools.count(1)
        self._id_base = _seed_id_base()
        self._lock = threading.Lock()
        self.finished: list[Span] = []

    # -- lifecycle -----------------------------------------------------------

    @property
    def is_enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        """Drop every finished span and restart the counter (the seeded
        base is kept, so a cleared tracer re-issues its own discarded IDs
        but still cannot alias another tracer's)."""
        with self._lock:
            self.finished.clear()
        self._ids = itertools.count(1)

    def reseed(self) -> None:
        """Re-derive the ID base from the *current* process.

        Pool initializers call this: a forked worker inherits the
        parent's base, and without reseeding its spans would alias the
        coordinator's (and every sibling worker's)."""
        self._id_base = _seed_id_base()
        self._ids = itertools.count(1)

    def _next_id(self) -> int:
        return self._id_base + next(self._ids)

    def _append(self, span: Span) -> None:
        with self._lock:
            self.finished.append(span)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attributes: object) -> Span | _NullSpan:
        """Open a span; the previous open span (if any) becomes its parent."""
        if not self._enabled:
            return NULL_SPAN
        return Span(
            name,
            span_id=self._next_id(),
            parent_id=_CURRENT_SPAN_ID.get(),
            attributes=attributes,
            tracer=self,
        )

    def child_span(
        self, name: str, parent_id: Optional[int], **attributes: object
    ) -> Span | _NullSpan:
        """Open a span under an *explicit* parent instead of the ambient
        one — how work dispatched across threads (the scheduler's
        measurement thread) stays attached to the request that queued it.
        Spans opened inside it still nest normally."""
        if not self._enabled:
            return NULL_SPAN
        return Span(
            name,
            span_id=self._next_id(),
            parent_id=parent_id,
            attributes=attributes,
            tracer=self,
        )

    def record_span(
        self,
        name: str,
        parent_id: Optional[int],
        start_unix_s: float,
        duration_s: float,
        **attributes: object,
    ) -> Span | _NullSpan:
        """Record an already-elapsed interval as a finished span.

        For stages whose start predates the code that reports them — the
        scheduler's queue wait is only known at dispatch time."""
        if not self._enabled:
            return NULL_SPAN
        span = Span(
            name,
            span_id=self._next_id(),
            parent_id=parent_id,
            attributes=attributes,
        )
        span._start_perf = _PERF_ANCHOR + (start_unix_s - _WALL_ANCHOR)
        span.duration_s = float(duration_s)
        self._append(span)
        return span

    # -- cross-process merge --------------------------------------------------

    def adopt(
        self,
        spans: Sequence[Mapping[str, object]],
        parent_id: Optional[int] = None,
    ) -> list[Span]:
        """Merge externally captured spans (worker ``as_dict`` payloads)
        into this tracer.

        Every incoming span is re-issued an ID from this tracer's space
        in input order — so adopting the same payloads in the same order
        yields the same structure regardless of which worker produced
        them — and parent links are remapped alongside.  Spans whose
        parent is absent from the payload (the workers' roots) are
        attached under ``parent_id``.  Returns the adopted spans."""
        id_map: dict[int, int] = {}
        for record in spans:
            old = record.get("span_id")
            if isinstance(old, int):
                id_map[old] = self._next_id()
        adopted: list[Span] = []
        for record in spans:
            old = record.get("span_id")
            new_id = id_map[old] if isinstance(old, int) else self._next_id()
            old_parent = record.get("parent_id")
            new_parent = (
                id_map[old_parent]
                if isinstance(old_parent, int) and old_parent in id_map
                else parent_id
            )
            adopted.append(Span.from_dict(record, new_id, new_parent))
        with self._lock:
            self.finished.extend(adopted)
        return adopted

    def reparent_children(
        self,
        parent_id: int,
        new_parent_for,
    ) -> int:
        """Re-home direct children of ``parent_id``: ``new_parent_for``
        maps a child span to its new parent ID (or ``None`` to leave it).
        Returns the number of spans moved — how the scheduler attaches
        each pair's measurement subtree to the request that owns it."""
        moved = 0
        with self._lock:
            for span in self.finished:
                if span.parent_id == parent_id:
                    new_parent = new_parent_for(span)
                    if new_parent is not None and new_parent != parent_id:
                        span.parent_id = new_parent
                        moved += 1
        return moved

    # -- queries -------------------------------------------------------------

    def roots(self) -> tuple[Span, ...]:
        return tuple(s for s in self.finished if s.parent_id is None)

    def children_of(self, span: Span) -> tuple[Span, ...]:
        return tuple(s for s in self.finished if s.parent_id == span.span_id)

    def by_name(self, name: str) -> tuple[Span, ...]:
        return tuple(s for s in self.finished if s.name == name)

    def subtree(self, root_id: int) -> list[Span]:
        """The span with ``root_id`` plus every finished descendant, in
        finished order (children generally precede their parents)."""
        with self._lock:
            snapshot = list(self.finished)
        keep = {root_id}
        # Children can finish before or after their parents; sweep until
        # the reachable set stops growing (bounded by the snapshot size).
        grew = True
        while grew:
            grew = False
            for span in snapshot:
                if span.span_id not in keep and span.parent_id in keep:
                    keep.add(span.span_id)
                    grew = True
        return [s for s in snapshot if s.span_id in keep]

    def detach_subtree(self, root_id: int) -> list[Span]:
        """:meth:`subtree` and :meth:`prune` fused under one lock: return
        the subtree rooted at ``root_id`` and drop it from the finished
        list in the same pass — the campaign server's per-request archive
        step, kept to a single scan on the hot path."""
        with self._lock:
            keep = {root_id}
            grew = True
            while grew:
                grew = False
                for span in self.finished:
                    if span.span_id not in keep and span.parent_id in keep:
                        keep.add(span.span_id)
                        grew = True
            detached = [s for s in self.finished if s.span_id in keep]
            if detached:
                self.finished[:] = [
                    s for s in self.finished if s.span_id not in keep
                ]
            return detached

    def prune(self, span_ids: Collection[int]) -> int:
        """Drop finished spans by ID; returns how many were removed.

        The campaign server archives each served request's subtree into
        its bounded trace store and prunes it here, so a long-lived
        process's finished list holds only not-yet-archived spans."""
        drop = set(span_ids)
        if not drop:
            return 0
        with self._lock:
            before = len(self.finished)
            self.finished[:] = [
                s for s in self.finished if s.span_id not in drop
            ]
            return before - len(self.finished)

    # -- export --------------------------------------------------------------

    def export_jsonl(self, path: str | Path) -> Path:
        """Write every finished span as one JSON object per line."""
        out = Path(path)
        with out.open("w", encoding="utf-8") as fh:
            for span in list(self.finished):
                fh.write(json.dumps(span.as_dict(), default=str) + "\n")
        return out

    def export_chrome_trace(self, path: str | Path) -> Path:
        """Write every finished span as a Chrome-trace (``trace_event``)
        JSON file, loadable in ``chrome://tracing`` / Perfetto."""
        return write_chrome_trace(list(self.finished), path)


def read_jsonl(path: str | Path) -> list[dict[str, object]]:
    """Parse a span JSONL file back into dicts (the export round-trip)."""
    spans: list[dict[str, object]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def chrome_trace_events(
    spans: Iterable[Union[Span, Mapping[str, object]]],
) -> list[dict[str, object]]:
    """Spans as Chrome-trace complete (``"ph": "X"``) events, in input
    order.  Span identity rides along in ``args`` (``span_id`` /
    ``parent_id``), so the export preserves exact nesting — not just the
    visual time-containment Perfetto infers — and a JSONL export of the
    same spans agrees with it span for span."""
    events: list[dict[str, object]] = []
    own_pid = os.getpid()
    for span in spans:
        record = span.as_dict() if isinstance(span, Span) else dict(span)
        attributes = dict(record.get("attributes") or {})  # type: ignore[arg-type]
        pid = attributes.get("pid", own_pid)
        events.append(
            {
                "name": record["name"],
                "ph": "X",
                "ts": round(float(record["start_unix_s"]) * 1e6, 3),  # type: ignore[arg-type]
                "dur": round(float(record.get("duration_s") or 0.0) * 1e6, 3),  # type: ignore[arg-type]
                "pid": pid,
                "tid": pid,
                "args": {
                    **attributes,
                    "span_id": record["span_id"],
                    "parent_id": record["parent_id"],
                },
            }
        )
    return events


def write_chrome_trace(
    spans: Iterable[Union[Span, Mapping[str, object]]], path: str | Path
) -> Path:
    """Write spans as a ``{"traceEvents": [...]}`` Chrome-trace file."""
    out = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    out.write_text(json.dumps(payload, default=str), encoding="utf-8")
    return out


_DEFAULT_TRACER = Tracer()


def default_tracer() -> Tracer:
    """The process-wide tracer all built-in instrumentation reports to."""
    return _DEFAULT_TRACER


@contextmanager
def root_span(experiment_id: str, **attributes: object) -> Iterator[Span | _NullSpan]:
    """The experiment-level root span (``experiment:<id>``).

    :func:`repro.experiments.registry.run_experiment` wraps every
    registered experiment in one of these; extension experiments that run
    outside the registry should do the same so their telemetry nests under
    a single auditable root.
    """
    with default_tracer().span(
        f"experiment:{experiment_id}", experiment=experiment_id, **attributes
    ) as span:
        yield span
