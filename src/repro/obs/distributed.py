"""Distributed trace propagation: W3C ``traceparent``, request IDs, and
per-request span trees.

The campaign server speaks a W3C-trace-context-compatible dialect on
``POST /measure``: an incoming ``traceparent`` header
(``00-<32 hex trace-id>-<16 hex parent-span-id>-<2 hex flags>``) makes
the served request a continuation of the caller's trace; the response
always carries a ``traceparent`` naming the request's root span and an
``X-Request-Id`` that keys :class:`TraceStore` /
``GET /trace/<request_id>``.

Span IDs inside the process are integers (see
:mod:`repro.obs.tracing`); on the wire they are rendered as 16 lowercase
hex digits via :func:`span_id_hex`.
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Mapping, Optional, Sequence

REQUEST_ID_HEADER = "X-Request-Id"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


@dataclass(frozen=True)
class TraceContext:
    """A parsed ``traceparent``: the caller's trace and parent span."""

    trace_id: str  # 32 lowercase hex digits
    span_id: str  # 16 lowercase hex digits
    sampled: bool = True

    def header(self) -> str:
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id}-{self.span_id}-{flags}"


def new_trace_id() -> str:
    """A fresh random 128-bit trace ID (never all-zero)."""
    while True:
        trace_id = os.urandom(16).hex()
        if trace_id != "0" * 32:
            return trace_id


def new_request_id() -> str:
    """A fresh random 64-bit request ID, hex-rendered."""
    return os.urandom(8).hex()


def span_id_hex(span_id: int) -> str:
    """An integer span ID as the 16-hex-digit wire form."""
    return format(span_id & ((1 << 64) - 1), "016x")


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header; ``None`` for anything malformed.

    Per the W3C spec an unparseable header is *ignored* (a fresh trace is
    started), never an error — telemetry must not fail a measurement."""
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, flags = match.groups()
    if version == "ff" or trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(
        trace_id=trace_id,
        span_id=span_id,
        sampled=bool(int(flags, 16) & 0x01),
    )


def format_traceparent(trace_id: str, span_id: int, sampled: bool = True) -> str:
    """The outgoing ``traceparent`` for a response or downstream call."""
    return TraceContext(trace_id, span_id_hex(span_id), sampled).header()


def orphan_parent_ids(spans: Sequence[Mapping[str, object]]) -> set[int]:
    """Parent IDs referenced by ``spans`` that name no span in the set.

    An end-to-end trace is well-formed exactly when this is empty: every
    span is either a root (``parent_id`` null) or hangs off another span
    in the same trace."""
    present = {s.get("span_id") for s in spans}
    return {
        s["parent_id"]  # type: ignore[misc]
        for s in spans
        if s.get("parent_id") is not None and s.get("parent_id") not in present
    }


def build_span_tree(
    spans: Sequence[Mapping[str, object]],
) -> Optional[dict[str, object]]:
    """Nest flat span dicts into a tree (``children`` lists, input order).

    Returns the unique root (a span whose parent is null or absent from
    the set) as a nested dict, or ``None`` when the set is empty or has
    more than one root — callers treat that as "not a single trace"."""
    if not spans:
        return None
    present = {s.get("span_id") for s in spans}
    nodes: dict[object, dict[str, object]] = {}
    roots: list[dict[str, object]] = []
    for span in spans:
        nodes[span.get("span_id")] = {**span, "children": []}
    for span in spans:
        node = nodes[span.get("span_id")]
        parent = span.get("parent_id")
        if parent is None or parent not in present:
            roots.append(node)
        else:
            nodes[parent]["children"].append(node)  # type: ignore[union-attr]
    if len(roots) != 1:
        return None
    return roots[0]


class TraceStore:
    """A bounded, most-recent-first archive of served request traces.

    The server moves each completed request's span subtree here (and
    prunes it from the live tracer), keyed by request ID; the oldest
    entry is evicted once ``capacity`` is reached, so a long-running
    service holds a sliding window of recent traces for ``/trace``.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = Lock()
        self._traces: "OrderedDict[str, dict[str, object]]" = OrderedDict()

    def put(self, request_id: str, payload: dict[str, object]) -> None:
        with self._lock:
            self._traces[request_id] = payload
            self._traces.move_to_end(request_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, request_id: str) -> Optional[dict[str, object]]:
        with self._lock:
            return self._traces.get(request_id)

    def request_ids(self) -> list[str]:
        """Stored request IDs, most recent last."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
