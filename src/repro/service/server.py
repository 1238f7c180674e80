"""The campaign server: measurement-as-a-service over HTTP.

A deliberately small asyncio HTTP/1.1 server — stdlib only, one handler
per connection, ``Connection: close`` — that exposes the measurement
campaign as an API:

========================  ====================================================
``POST /measure``         measure one (benchmark, configuration); the response
                          body is byte-for-byte ``json.dumps(result.as_record())``
``GET /results``          stored records, filterable by benchmark / config
``GET /pareto``           energy/performance points per stored configuration,
                          with the Pareto-efficient subset flagged
``GET /healthz``          liveness, queue depth, in-flight jobs, campaign health
``GET /metrics``          Prometheus exposition of the whole registry
``GET /slo``              latency quantiles, availability, error-budget burn
``GET /trace/<id>``       the span tree of one served ``/measure`` request
                          (``<id>`` is the response's ``X-Request-Id``)
========================  ====================================================

Requests are traced end to end: each ``POST /measure`` runs under an
``http.request`` root span (continuing the caller's trace when a W3C
``traceparent`` header is sent), spans cover admission → coalesce →
schedule → batch → worker chunks → engine → store, and the finished
tree is archived per request for ``GET /trace/<request_id>``.  Tracing
rides *alongside* measurement — it never touches the measured floats, so
traced responses remain byte-identical to sequential ``Study.run``.

The interesting work lives below the routes: requests funnel into a
:class:`~repro.service.scheduler.CampaignScheduler` that coalesces
identical concurrent measurements, applies admission control (bounded
queue → ``429`` + ``Retry-After``), and batches arrivals through the
study's parallel executor.  Because measurements are pure and all noise
is seeded by site, the response to a coalesced, parallel, or
warm-started request is byte-identical to a sequential ``Study.run`` —
the server is a cache in front of physics, not a new source of truth.

On SIGTERM/SIGINT the server drains: it stops admitting measurements
(``503`` for new ``POST``s), finishes every in-flight job, flushes the
result store, and prints a final health report.

The coordinator itself is crash-restartable (PR 8): every admitted
``POST /measure`` is journalled durably *before* scheduling (keyed by
the client's ``Idempotency-Key`` header or the request id), completions
are marked in the same transaction that persists records, and a restart
with ``recover=True`` replays unfinished entries byte-identically.
Clients may bound their wait with an ``X-Deadline-Ms`` header; expired
work is shed before dispatch with a ``504`` and counted in
``repro_requests_shed_total``.  See docs/robustness.md ("coordinator
recovery") for the journal lifecycle and the exactly-once argument.
"""

from __future__ import annotations

import asyncio
import errno
import json
import signal
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, TextIO, Union
from urllib.parse import parse_qsl, urlsplit

from repro.core.aggregation import group_means, weighted_average
from repro.core.pareto import TradeoffPoint, pareto_efficient
from repro.core.study import Study
from repro.execution.kernels import kernel_stats
from repro.faults.injector import coordinator_fault_point
from repro.faults.plan import FaultPlan, PlanError, plan_from_arg
from repro.hardware.config import UnsupportedConfigurationError, resolve_pair
from repro.obs.distributed import (
    REQUEST_ID_HEADER,
    TraceStore,
    build_span_tree,
    format_traceparent,
    new_request_id,
    new_trace_id,
    orphan_parent_ids,
    parse_traceparent,
)
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.metrics import default_registry
from repro.obs.slo import (
    REQUEST_SECONDS,
    SloConfig,
    observe_stage,
    parse_slo,
    slo_report,
)
from repro.obs.tracing import default_tracer
from repro.projection import (
    ProjectionQueryError,
    evaluate_projection_finding,
    parse_query,
)
from repro.service.ratelimit import ClientRateLimiter
from repro.service.scheduler import (
    CampaignScheduler,
    DeadlineExceeded,
    Draining,
    InvalidPlan,
    MeasurementFailed,
    Saturated,
    SchedulerError,
)
from repro.service.store import JournalConflict, JournalEntry, ResultStore
from repro.workloads.catalog import BENCHMARKS

_REGISTRY = default_registry()
_REQUESTS = _REGISTRY.counter(
    "repro_service_requests_total",
    "HTTP requests served, by route and status code",
)
_RATELIMITED = _REGISTRY.counter(
    "repro_service_ratelimited_total",
    "Measurement requests refused by per-client rate limiting",
)
_IDEMPOTENT_REPLAYS = _REGISTRY.counter(
    "repro_idempotent_replays_total",
    "Measure requests answered from the journal+store without any "
    "engine work (their idempotency key was already done)",
)
_RECOVERY_REPLAYED = _REGISTRY.counter(
    "repro_recovery_replayed_total",
    "Journal entries found pending at --recover startup and resubmitted",
)
_RECOVERY_COMPLETED = _REGISTRY.counter(
    "repro_recovery_completed_total",
    "Recovery replays that completed with a durable result",
)
_RECOVERY_FAILED = _REGISTRY.counter(
    "repro_recovery_failed_total",
    "Recovery replays that could not be completed (unresolvable or "
    "measurement failure)",
)

#: Maximum accepted request body (a measure request is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20
#: Per-read timeout; a stalled client cannot pin a connection forever.
IO_TIMEOUT_S = 30.0
#: Idempotency keys are client-chosen strings; bound them so the journal
#: cannot be grown by a single pathological header.
MAX_IDEMPOTENCY_KEY_CHARS = 128
#: Finished request traces ``GET /trace/<id>`` can still serve.
TRACE_CAPACITY = 256

#: Bind retries on EADDRINUSE: rapid kill -> recover cycles can race the
#: kernel's release of the dead server's listening socket, so the new
#: incarnation backs off briefly instead of flaking.  6 attempts with
#: doubling backoff from 50 ms waits ~1.6 s in total before giving up.
BIND_ATTEMPTS = 6
BIND_BACKOFF_S = 0.05

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True, slots=True)
class Request:
    """One parsed HTTP request, as the route handlers see it."""

    method: str
    path: str
    query: Mapping[str, str]
    headers: Mapping[str, str]  # keys lower-cased
    body: bytes
    peer: str

    @property
    def client_id(self) -> str:
        """Rate-limit identity: ``X-Client-Id`` if sent, else the peer."""
        return self.headers.get("x-client-id", "").strip() or self.peer


@dataclass(frozen=True, slots=True)
class Response:
    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = field(default=())

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            "Connection: close",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("latin-1") + self.body


def _json_response(
    status: int,
    payload: object,
    headers: tuple[tuple[str, str], ...] = (),
) -> Response:
    return Response(
        status, json.dumps(payload).encode("utf-8"), headers=headers
    )


def _error(status: int, message: str, **extra: object) -> Response:
    headers: tuple[tuple[str, str], ...] = ()
    retry_after = extra.get("retry_after_s")
    if retry_after is not None:
        # Retry-After is integer seconds; round up so clients never
        # return a moment before a token exists.
        headers = (("Retry-After", str(max(1, int(-(-float(retry_after) // 1))))),)
    return _json_response(status, {"error": message, **extra}, headers=headers)


class BadRequest(ValueError):
    """A client error the measure handler converts to a 400."""


class CampaignServer:
    """The wired-together service: store → study → scheduler → routes.

    ``store`` is a :class:`ResultStore`, a path, or ``None`` (a private
    in-memory store, so ``/results`` and ``/pareto`` behave uniformly).
    ``fingerprint`` (see :func:`repro.core.ledger.run_fingerprint`) binds
    a persistent store to one set of run parameters; a mismatched store
    raises :class:`~repro.service.store.StoreError` at startup rather
    than serving mixed data.  ``rate``/``burst`` configure per-client
    token buckets on ``POST /measure`` (``rate=None`` disables).

    ``slo`` declares targets for ``GET /slo`` — an :class:`SloConfig`
    or a spec string like ``"p99=250ms,avail=99.9"`` (``ValueError`` on
    a malformed spec).  ``event_log`` appends one JSON line per served
    ``/measure`` correlating request id ↔ trace id ↔ store row; a path
    is opened (and closed at shutdown) by the server, an open text
    stream is borrowed.  ``trace_requests=False`` turns request tracing
    off entirely.
    """

    def __init__(
        self,
        study: Optional[Study] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Union[ResultStore, Path, str, None] = None,
        fingerprint: Optional[Mapping[str, object]] = None,
        max_pending: int = 64,
        jobs: Optional[Union[int, str]] = None,
        rate: Optional[float] = None,
        burst: float = 5.0,
        slo: Union[SloConfig, str, None] = None,
        event_log: Union[Path, str, TextIO, None] = None,
        trace_requests: bool = True,
        drain_timeout: Optional[float] = None,
        recover: bool = False,
    ) -> None:
        self._study = study if study is not None else Study()
        self._host = host
        self._port = port
        if isinstance(store, ResultStore):
            self._store, self._owns_store = store, False
        else:
            self._store = ResultStore(store if store is not None else ":memory:")
            self._owns_store = True
        self._fingerprint = fingerprint
        self._drain_timeout = drain_timeout
        self._scheduler = CampaignScheduler(
            self._study, store=self._store, max_pending=max_pending, jobs=jobs
        )
        self._limiter = ClientRateLimiter(rate, burst=burst)
        # GET /project responses keyed by canonical parameters: the search
        # is deterministic, so a repeat with equal params can serve the
        # cached payload without touching the measurement thread.
        self._projection_cache: dict[tuple, dict] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_monotonic = 0.0
        self.restored = 0  # records warm-started from the store
        self._recover = recover
        self._recovery_tasks: list[asyncio.Task] = []
        #: Recovery progress for /healthz: replays found, finished, failed.
        self.recovery = {"replayed": 0, "completed": 0, "failed": 0}
        self._slo = parse_slo(slo) if isinstance(slo, str) else slo
        self._trace_requests = trace_requests
        self._traces = TraceStore(capacity=TRACE_CAPACITY)
        self._tracer_was_enabled = False
        if event_log is None or hasattr(event_log, "write"):
            self._event_log: Optional[TextIO] = event_log  # type: ignore[assignment]
            self._owns_event_log = False
        else:
            self._event_log = open(event_log, "a", encoding="utf-8")
            self._owns_event_log = True

    # -- lifecycle -------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        return self._port

    @property
    def store(self) -> ResultStore:
        return self._store

    @property
    def scheduler(self) -> CampaignScheduler:
        return self._scheduler

    async def start(self) -> None:
        """Bind the store, warm-start the study, and open the socket.

        With ``recover=True``, every journal entry left ``pending`` by
        the previous incarnation is resubmitted through the scheduler
        (as priority work) before the socket opens, so replays are first
        in the queue ahead of any fresh traffic."""
        if self._fingerprint is not None:
            self._store.check_fingerprint(self._fingerprint)
        if self._trace_requests:
            tracer = default_tracer()
            self._tracer_was_enabled = tracer.is_enabled
            tracer.enable()
        self.restored = self._study.ledger.restore_records(self._store.records())
        await self._scheduler.start()
        if self._recover:
            self._start_recovery()
        self._server = await self._bind()
        self._port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def _bind(self) -> asyncio.base_events.Server:
        """Open the listening socket, retrying EADDRINUSE with bounded
        backoff — a freshly killed incarnation's socket can outlive the
        process for a moment, and a crash-restart loop must not flake on
        that race."""
        for attempt in range(BIND_ATTEMPTS):
            try:
                return await asyncio.start_server(
                    self._handle_connection, self._host, self._port
                )
            except OSError as exc:
                if (
                    exc.errno != errno.EADDRINUSE
                    or attempt == BIND_ATTEMPTS - 1
                ):
                    raise
                await asyncio.sleep(BIND_BACKOFF_S * (2 ** attempt))
        raise RuntimeError("unreachable")  # pragma: no cover

    def _start_recovery(self) -> None:
        """Resubmit every pending journal entry as a recovery replay.

        Entries that no longer parse (an unknown benchmark or
        configuration — the store predates a catalog change) are marked
        ``failed`` with the reason rather than crash-looping the server.
        Each replay runs with ``recovery=True`` so it bypasses the
        admission bound: this is work the previous incarnation already
        accepted, and it outranks fresh arrivals under overload."""
        for entry in self._store.journal_pending():
            try:
                bench, config = resolve_pair(entry.benchmark, entry.config)
                plan = (
                    plan_from_arg(json.loads(entry.plan), paths=False)
                    if entry.plan is not None
                    else None
                )
            except ValueError as exc:
                self._store.journal_fail(
                    [entry.request_key], f"unresolvable at recovery: {exc}"
                )
                self.recovery["failed"] += 1
                _RECOVERY_FAILED.inc()
                continue
            self.recovery["replayed"] += 1
            _RECOVERY_REPLAYED.inc()
            self._recovery_tasks.append(
                asyncio.get_running_loop().create_task(
                    self._replay(entry, bench, config, plan),
                    name=f"repro-recover-{entry.request_key}",
                )
            )

    async def _replay(
        self,
        entry: JournalEntry,
        bench,
        config,
        plan: Optional[FaultPlan],
    ) -> None:
        """One recovery replay.  Completion/failure lands in the journal
        through the scheduler's normal resolve path; a drain mid-replay
        leaves the entry pending for the *next* recovery — replays are
        at-least-once, and the journal+store transaction makes their
        effects exactly-once."""
        try:
            await self._scheduler.submit(
                bench,
                config,
                plan,
                request_key=entry.request_key,
                recovery=True,
            )
        except Draining:
            pass  # still pending; the next --recover finishes it
        except SchedulerError:
            self.recovery["failed"] += 1
            _RECOVERY_FAILED.inc()
        else:
            self.recovery["completed"] += 1
            _RECOVERY_COMPLETED.inc()

    async def shutdown(self) -> dict[str, object]:
        """Graceful drain: finish in-flight jobs, flush, close, report.

        Bounded by the server's ``drain_timeout`` (``None`` waits for
        in-flight measurements indefinitely, the pre-PR-7 behaviour)."""
        summary = await self._scheduler.drain(deadline_s=self._drain_timeout)
        if self._recovery_tasks:
            await asyncio.gather(*self._recovery_tasks, return_exceptions=True)
            self._recovery_tasks = []
        journal_pending = self._store.journal_counts()["pending"]
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._owns_store:
            self._store.close()
        if self._trace_requests and not self._tracer_was_enabled:
            default_tracer().disable()
        if self._owns_event_log and self._event_log is not None:
            self._event_log.close()
            self._event_log = None
        return {
            "restored": self.restored,
            **summary,
            "recovered": self.recovery["completed"],
            "journal_pending": journal_pending,
        }

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            # Only reading the request is the client's fault; a handler
            # that raises is a server bug, answered 500.
            try:
                request = await self._read_request(reader, writer)
            except BadRequest as exc:
                response = _error(400, str(exc))
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
                response = _error(400, "malformed request")
            else:
                try:
                    response = await self.handle(request)
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    response = _error(500, f"internal error: {exc}")
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # the client went away; nothing left to tell it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Request:
        line = await asyncio.wait_for(reader.readline(), IO_TIMEOUT_S)
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise BadRequest("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), IO_TIMEOUT_S)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest(f"body too large (limit {MAX_BODY_BYTES} bytes)")
        body = (
            await asyncio.wait_for(reader.readexactly(length), IO_TIMEOUT_S)
            if length
            else b""
        )
        split = urlsplit(target)
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else "unknown"
        return Request(
            method=method,
            path=split.path or "/",
            query=dict(parse_qsl(split.query, keep_blank_values=True)),
            headers=headers,
            body=body,
            peer=peer,
        )

    # -- routing ---------------------------------------------------------------

    def _route(self, request: Request):
        """Resolve a path to its canonical route name and handler.

        The canonical name is what metric labels carry: ``/trace/<id>``
        collapses to ``/trace`` so the label space stays bounded no
        matter how many request ids clients probe."""
        routes = {
            "/measure": ("POST", self._measure_route),
            "/results": ("GET", self._results),
            "/pareto": ("GET", self._pareto),
            "/project": ("GET", self._project),
            "/healthz": ("GET", self._healthz),
            "/metrics": ("GET", self._metrics),
            "/slo": ("GET", self._slo_route),
            "/trace": ("GET", self._trace),
        }
        if request.path == "/trace" or request.path.startswith("/trace/"):
            return "/trace", routes["/trace"]
        return request.path, routes.get(request.path)

    async def handle(self, request: Request) -> Response:
        """Route one request; usable directly in tests (no sockets)."""
        route, entry = self._route(request)
        started = time.perf_counter()
        if entry is None:
            response = _error(404, f"no route {request.path}")
        elif request.method != entry[0]:
            response = _error(405, f"{request.path} accepts {entry[0]} only")
        else:
            response = await entry[1](request)
        label = route if entry is not None else "unknown"
        REQUEST_SECONDS.labels(route=label).observe(
            time.perf_counter() - started
        )
        _REQUESTS.labels(route=label, status=str(response.status)).inc()
        return response

    # -- routes ----------------------------------------------------------------

    async def _measure_route(self, request: Request) -> Response:
        """``POST /measure``: the traced wrapper around :meth:`_measure`.

        Every measure request gets a request id and (when tracing is
        armed) an ``http.request`` root span.  A valid W3C
        ``traceparent`` header continues the caller's trace; a malformed
        one is ignored per spec (fresh trace, never an error).  After
        the response is built, the finished span subtree is archived
        under the request id for ``GET /trace/<id>`` and pruned from the
        live tracer so a long-running server's span list stays bounded.
        """
        request_id = new_request_id()
        tracer = default_tracer()
        ctx: dict[str, object] = {}
        if not (self._trace_requests and tracer.is_enabled):
            response = await self._measure(request, ctx, request_id=request_id)
            self._log_event(request, response, request_id, None, ctx)
            return replace(
                response,
                headers=response.headers + ((REQUEST_ID_HEADER, request_id),),
            )
        remote = parse_traceparent(request.headers.get("traceparent", ""))
        trace_id = remote.trace_id if remote is not None else new_trace_id()
        with tracer.span(
            "http.request",
            method=request.method,
            route="/measure",
            request_id=request_id,
            trace_id=trace_id,
            remote_parent=remote.span_id if remote is not None else None,
        ) as root:
            response = await self._measure(request, ctx, request_id=request_id)
            root.set_attribute("status", response.status)
        # Archive the Span objects as-is: dict conversion happens on the
        # cold /trace read path, keeping it off the per-request one.
        spans = tracer.detach_subtree(root.span_id)
        self._traces.put(
            request_id,
            {
                "request_id": request_id,
                "trace_id": trace_id,
                "spans": spans,
            },
        )
        self._log_event(request, response, request_id, trace_id, ctx)
        return replace(
            response,
            headers=response.headers
            + (
                (REQUEST_ID_HEADER, request_id),
                ("traceparent", format_traceparent(trace_id, root.span_id)),
            ),
        )

    def _log_event(
        self,
        request: Request,
        response: Response,
        request_id: str,
        trace_id: Optional[str],
        ctx: Optional[dict[str, object]],
    ) -> None:
        """One structured JSON line per served measure request: the join
        key between the HTTP exchange (request id), the span tree (trace
        id), and the durable record (store rowid)."""
        if self._event_log is None:
            return
        ctx = ctx or {}
        bench = ctx.get("benchmark")
        config = ctx.get("config")
        event = {
            "ts": round(time.time(), 6),
            "event": "measure",
            "request_id": request_id,
            "trace_id": trace_id,
            "status": response.status,
            "benchmark": bench,
            "config": config,
            "plan": ctx.get("plan"),
            "request_key": ctx.get("request_key"),
            "store_row": (
                self._store.rowid(str(bench), str(config))
                if response.status == 200 and bench and config
                else None
            ),
        }
        try:
            self._event_log.write(json.dumps(event) + "\n")
            self._event_log.flush()
        except (OSError, ValueError):  # pragma: no cover - log never fatal
            pass

    async def _measure(
        self,
        request: Request,
        ctx: Optional[dict[str, object]] = None,
        request_id: Optional[str] = None,
    ) -> Response:
        tracer = default_tracer()
        admission_started = time.perf_counter()
        with tracer.span("service.admission", client=request.client_id):
            try:
                admitted, retry_after_s = self._limiter.admit(request.client_id)
                if not admitted:
                    _RATELIMITED.inc()
                    return _error(
                        429,
                        "rate limit exceeded",
                        retry_after_s=round(retry_after_s, 3),
                    )
                try:
                    bench, config, plan = self._parse_measure_body(request.body)
                    request_key = self._parse_idempotency_key(request)
                    budget_s = self._parse_deadline_budget(request)
                except (BadRequest, UnsupportedConfigurationError, PlanError) as exc:
                    return _error(400, str(exc))
            finally:
                observe_stage(
                    "admission", time.perf_counter() - admission_started
                )
        if request_key is None:
            # No client key: the request id is the journal identity (a
            # fresh one per request, so no accidental dedup).
            request_key = request_id if request_id is not None else new_request_id()
        if ctx is not None:
            ctx["benchmark"] = bench.name
            ctx["config"] = config.key
            ctx["plan"] = plan.fingerprint if plan is not None else None
            ctx["request_key"] = request_key
        # Write-ahead journal: the request is durable *before* it is
        # scheduled.  From here on, a coordinator crash cannot lose it —
        # recovery replays every key still pending.
        try:
            prior = self._store.journal_admit(
                request_key,
                bench.name,
                config.key,
                plan=(
                    json.dumps(plan.as_dict(), sort_keys=True)
                    if plan is not None
                    else None
                ),
                plan_fp=plan.fingerprint if plan is not None else None,
            )
        except JournalConflict as exc:
            return _error(409, str(exc))
        coordinator_fault_point("admit")
        if prior == "done":
            # Exactly-once effects: the key's result is already durable,
            # so the retry is answered from the store with zero engine
            # work (and no duplicate execution, by construction).
            stored = self._store.get(bench.name, config.key)
            if stored is not None:
                _IDEMPOTENT_REPLAYS.inc()
                return Response(
                    200,
                    json.dumps(stored.as_record()).encode("utf-8"),
                    headers=(("Idempotent-Replay", "true"),),
                )
        deadline = (
            self._scheduler.now() + budget_s if budget_s is not None else None
        )
        try:
            result = await self._scheduler.submit(
                bench,
                config,
                plan,
                request_key=request_key,
                deadline=deadline,
            )
        except Draining:
            # Refused before it was queued: terminal in the journal (the
            # client got a clear 503 and may retry the same key later).
            self._store.journal_fail([request_key], "server draining")
            return _error(503, "server is draining; no new measurements")
        except Saturated as exc:
            self._store.journal_fail([request_key], "queue full")
            return _error(
                429,
                "measurement queue is full",
                retry_after_s=exc.retry_after_s,
            )
        except InvalidPlan as exc:
            self._store.journal_fail([request_key], str(exc))
            return _error(400, str(exc))
        except DeadlineExceeded as exc:
            # Already journalled as shed and counted by the scheduler —
            # a 504 is the "never silent" client half of the contract.
            return _error(504, str(exc))
        except MeasurementFailed as exc:
            return _error(500, f"measurement failed: {exc}")
        # The byte-identity contract: exactly json.dumps(as_record()),
        # the same bytes a sequential Study.run record serialises to.
        return Response(200, json.dumps(result.as_record()).encode("utf-8"))

    @staticmethod
    def _parse_idempotency_key(request: Request) -> Optional[str]:
        """The client's ``Idempotency-Key`` header, validated, or None."""
        raw = request.headers.get("idempotency-key")
        if raw is None:
            return None
        key = raw.strip()
        if not key:
            raise BadRequest("'Idempotency-Key' must not be empty")
        if len(key) > MAX_IDEMPOTENCY_KEY_CHARS:
            raise BadRequest(
                f"'Idempotency-Key' is limited to "
                f"{MAX_IDEMPOTENCY_KEY_CHARS} characters"
            )
        return key

    @staticmethod
    def _parse_deadline_budget(request: Request) -> Optional[float]:
        """The ``X-Deadline-Ms`` header as a seconds budget, or None."""
        raw = request.headers.get("x-deadline-ms")
        if raw is None:
            return None
        try:
            budget_ms = float(raw)
        except ValueError as exc:
            raise BadRequest(
                f"'X-Deadline-Ms' must be a number of milliseconds, "
                f"got {raw!r}"
            ) from exc
        if not (0 < budget_ms < float("inf")):  # rejects NaN, inf, <= 0
            raise BadRequest("'X-Deadline-Ms' must be a positive finite number")
        return budget_ms / 1000.0

    #: Every field POST /measure understands; anything else is a 400.
    #: A misspelt field silently ignored would measure the wrong thing
    #: and cache it under the wrong identity — refusing loudly is the
    #: only response that cannot corrupt a client's dataset.
    MEASURE_FIELDS = frozenset(
        {
            "benchmark",
            "config",
            "processor",
            "cores",
            "threads",
            "clock",
            "turbo",
            "inject",
            "iterations",
        }
    )

    def _parse_measure_body(self, body: bytes):
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("body must be a JSON object")
        unknown = sorted(set(payload) - self.MEASURE_FIELDS)
        if unknown:
            raise BadRequest(
                f"unknown field(s) {', '.join(repr(f) for f in unknown)}; "
                f"accepted: {', '.join(sorted(self.MEASURE_FIELDS))}"
            )
        name = payload.get("benchmark")
        if name is None:
            raise BadRequest("missing required field 'benchmark'")
        bench, config = resolve_pair(
            name,
            payload.get("config"),
            payload.get("processor"),
            cores=payload.get("cores"),
            threads=payload.get("threads"),
            clock=payload.get("clock"),
            turbo=payload.get("turbo"),
        )
        inject = payload.get("inject")
        plan = plan_from_arg(inject, paths=False) if inject is not None else None
        iterations = payload.get("iterations")
        if iterations is not None:
            # Iteration counts are pinned by the run fingerprint (the
            # protocol times the server's invocation scale): honouring a
            # per-request count would produce records other clients'
            # cached/coalesced responses could never match.  Accept only
            # the count this server will actually run.
            planned = self._study.scaled_invocations(bench)
            try:
                requested = int(iterations)  # type: ignore[arg-type]
            except (TypeError, ValueError) as exc:
                raise BadRequest("'iterations' must be an integer") from exc
            if requested != planned:
                raise BadRequest(
                    f"iterations are fixed by the measurement protocol: "
                    f"this server runs {planned} for {name!r} (launch with "
                    f"a different --quick/scale to change it)"
                )
        return bench, config, plan

    async def _results(self, request: Request) -> Response:
        filters = {name: request.query.get(name) for name in ("benchmark", "config")}
        for name, value in filters.items():
            if value == "":
                return _error(400, f"'{name}' filter must not be blank")
        records = self._store.records(**filters)
        return _json_response(
            200,
            {
                "count": len(records),
                "results": [r.as_record() for r in records],
            },
        )

    async def _pareto(self, request: Request) -> Response:
        """Energy/performance points from *stored* records only — a GET
        never triggers measurement; POST the missing cells first."""
        by_config: dict[str, list] = {}
        for record in self._store.records():
            by_config.setdefault(record.config_key, []).append(record)
        points = []
        for key in sorted(by_config):
            rows = by_config[key]
            speed = group_means(
                {r.benchmark_name: r.speedup for r in rows}, BENCHMARKS
            )
            energy = group_means(
                {r.benchmark_name: r.normalized_energy for r in rows}, BENCHMARKS
            )
            points.append(
                TradeoffPoint(
                    key=key,
                    performance=weighted_average(speed),
                    energy=weighted_average(energy),
                )
            )
        efficient = {p.key for p in pareto_efficient(points)}
        return _json_response(
            200,
            {
                "count": len(points),
                "points": [
                    {
                        "configuration": p.key,
                        "performance": p.performance,
                        "normalized_energy": p.energy,
                        "efficient": p.key in efficient,
                    }
                    for p in points
                ],
            },
        )

    #: Per-request ceiling on /project candidates per node: a GET should
    #: stay an interactive sweep; bigger searches belong on the CLI.
    PROJECT_MAX_SAMPLES = 512

    async def _project(self, request: Request) -> Response:
        """``GET /project``: frontier search over synthesized machines.

        Query parameters mirror the ``repro project`` CLI: ``nodes``
        (comma-separated projected nanometers), ``samples`` (per node),
        ``seed``, ``area`` (mm^2), ``tdp`` (W).  The search runs on the
        scheduler's measurement thread, serialized with /measure batches,
        and its deterministic payload is cached by canonical parameters.
        """
        try:
            query = parse_query(
                request.query,
                default_samples=64,
                max_samples=self.PROJECT_MAX_SAMPLES,
            )
            payload = self._projection_cache.get(query)
            if payload is None:
                dataset = await self._scheduler.offload(
                    self._scheduler.run_projection, query
                )
        except ProjectionQueryError as exc:
            return _error(400, str(exc))
        except ValueError as exc:
            return _error(500, f"projection search failed: {exc}")
        if payload is None:
            report = evaluate_projection_finding(dataset)
            payload = {
                "params": {
                    "nodes": list(query.nodes),
                    "samples": query.samples,
                    "seed": query.seed,
                    "area_mm2": query.budget.area_mm2,
                    "tdp_w": query.budget.tdp_w,
                },
                "candidates": dataset.candidate_count(),
                "dataset": dataset.to_dict(),
                "finding": {
                    "id": report.finding_id,
                    "holds": report.holds,
                    "evidence": report.evidence,
                },
            }
            self._projection_cache[query] = payload
        return _json_response(200, payload)

    async def _healthz(self, request: Request) -> Response:
        draining = self._scheduler.draining
        payload = self.health()
        return _json_response(503 if draining else 200, payload)

    def health(self) -> dict[str, object]:
        """The health snapshot ``/healthz`` serves (and drain prints)."""
        return {
            "status": "draining" if self._scheduler.draining else "ok",
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "pending_jobs": self._scheduler.pending,
            "completed": self._scheduler.completed,
            "coalesced": self._scheduler.coalesced,
            "rejected": self._scheduler.rejected,
            "failed": self._scheduler.failed,
            "shed": self._scheduler.shed,
            "cached_pairs": self._study.ledger.cached_pairs,
            "quarantined": len(self._study.ledger.quarantined),
            "store_records": len(self._store),
            "restored": self.restored,
            "in_flight": self._scheduler.inflight_snapshot(),
            "fleet": self._study.fleet_snapshot(),
            "journal": self._store.journal_counts(),
            "recovery": dict(self.recovery),
            "kernels": kernel_stats(),
        }

    async def _metrics(self, request: Request) -> Response:
        return Response(
            200,
            render_prometheus().encode("utf-8"),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    async def _slo_route(self, request: Request) -> Response:
        """Latency quantiles, availability, and error-budget burn against
        the declared targets (or observations only when none are set)."""
        return _json_response(200, slo_report(self._slo))

    async def _trace(self, request: Request) -> Response:
        """``GET /trace`` lists archived request ids; ``GET /trace/<id>``
        serves one request's span tree (404 for unknown/evicted ids)."""
        if request.path in ("/trace", "/trace/"):
            ids = self._traces.request_ids()
            return _json_response(
                200, {"count": len(ids), "request_ids": ids}
            )
        request_id = request.path[len("/trace/"):]
        payload = self._traces.get(request_id)
        if payload is None:
            return _error(404, f"no trace for request id {request_id!r}")
        spans = [span.as_dict() for span in payload["spans"]]
        orphans = sorted(orphan_parent_ids(spans))
        return _json_response(
            200,
            {
                "request_id": payload["request_id"],
                "trace_id": payload["trace_id"],
                "span_count": len(spans),
                "orphans": orphans,
                "root": build_span_tree(spans),
                "spans": spans,
            },
        )


async def serve_async(
    server: CampaignServer, stream: TextIO = sys.stderr
) -> dict[str, object]:
    """Run ``server`` until SIGTERM/SIGINT, then drain and report."""
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without signal support; Ctrl-C still raises
    recovery_note = (
        f", recovering {server.recovery['replayed']} journalled requests"
        if server.recovery["replayed"]
        else ""
    )
    print(
        f"serving on http://{server.host}:{server.port} "
        f"(store: {server.store.path}, warm-started {server.restored} "
        f"records{recovery_note})",
        file=stream,
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    print("draining: finishing in-flight measurements ...", file=stream, flush=True)
    report = await server.shutdown()
    print(
        "drained: "
        + ", ".join(f"{key}={value}" for key, value in report.items()),
        file=stream,
        flush=True,
    )
    return report


def serve(server: CampaignServer, stream: TextIO = sys.stderr) -> dict[str, object]:
    """Blocking entry point the CLI uses."""
    return asyncio.run(serve_async(server, stream=stream))
