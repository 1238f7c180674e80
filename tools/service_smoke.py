#!/usr/bin/env python3
"""End-to-end smoke test for ``repro serve`` — stdlib only.

Boots the campaign server as a subprocess, fires ~50 mixed requests at
it (a coalescing burst, distinct sweeps, one fault-armed plan, and a
rate-limit hammer), SIGTERMs it, and restarts it against the same store.

Asserts the service's operational contract:

1. every admitted request gets 200 with the byte-identical record for
   its (benchmark, configuration), including the coalesced burst and the
   fault-armed request;
2. the rate-limited client sees the expected 200/429 split, with a
   ``Retry-After`` header on every 429;
3. ``GET /slo`` reports the declared targets, the exact request/error
   counts for the known status mix, zero error-budget burn (no 5xx was
   served), and positive latency quantiles;
4. every measure response carries ``X-Request-Id`` + ``traceparent``,
   and ``GET /trace/<request_id>`` serves a single-rooted span tree with
   zero orphan parent ids;
5. SIGTERM drains cleanly (exit 0, final health report on stderr);
6. the restarted server warm-starts from the SQLite store and re-serves
   the identical bytes without re-measuring.

Usage: ``python tools/service_smoke.py`` (add ``--keep-store`` to leave
the SQLite file behind for inspection).

``--chaos`` runs the worker-kill scenario instead: a golden pass on a
plain server, then the same requests against a ``--jobs 2`` server
armed with the canned ``chaos`` fault plan (every chunk's first assignee
is crashed mid-measurement).  Asserts at least one worker crash +
respawn actually happened (``repro_fleet_worker_restarts_total`` on
``/metrics``, plus the ``/healthz`` worker table) and that every
response body is byte-identical to the golden pass — worker death is
invisible in the data.

``--kill-coordinator`` runs the coordinator-crash scenario: a golden
pass, then the same requests (each with an ``Idempotency-Key``) against
a server armed with a ``coordinator.crash`` plan that kills the whole
process at the first batch dispatch — admitted work dies journalled but
unfinished.  Clients retry idempotently while a second server is
started on the same port and store with ``--recover``.  Asserts the
crash actually fired (exit code 86), every client eventually got 200
with the byte-identical golden body, the journal drained to zero
pending with no duplicates, and ``repro_recovery_*`` metrics recorded
the replay.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPException
from pathlib import Path

SERVE_ARGS = [
    "--quick",
    "serve",
    "--port",
    "0",
    "--rate",
    "0.001",  # effectively one request per client: 429s are deterministic
    "--burst",
    "1",
    "--slo",
    # Generous latency target (nothing should violate on a shared CI
    # runner) + an availability target, so /slo reports a full budget.
    "p99=120s,avail=99",
]

FAILURES: list[str] = []


def header(headers: dict, name: str) -> str | None:
    """Case-insensitive header lookup (urllib preserves sent casing)."""
    for key, value in headers.items():
        if key.lower() == name.lower():
            return value
    return None


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        FAILURES.append(message)


class Server:
    """One ``repro serve`` subprocess."""

    def __init__(self, store: Path, args: list[str] | None = None) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                *(SERVE_ARGS if args is None else args),
                "--store",
                str(store),
            ],
            stderr=subprocess.PIPE,
            text=True,
        )
        self.banner = self.proc.stderr.readline().strip()
        match = re.search(r"http://[\d.]+:(\d+)", self.banner)
        if match is None:
            self.proc.kill()
            raise RuntimeError(f"no serving banner, got: {self.banner!r}")
        self.port = int(match.group(1))

    def request(self, method: str, path: str, body: dict | None = None,
                client: str | None = None, headers: dict | None = None):
        all_headers = dict(headers or {})
        if client:
            all_headers["X-Client-Id"] = client
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}",
            data=json.dumps(body).encode() if body is not None else None,
            headers=all_headers,
            method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def measure(self, body: dict, client: str, headers: dict | None = None):
        return self.request("POST", "/measure", body, client, headers)

    def terminate(self) -> tuple[int, str]:
        self.proc.send_signal(signal.SIGTERM)
        stderr = self.proc.stderr.read()
        return self.proc.wait(timeout=120), stderr


def cleanup_stores(tmp: Path) -> None:
    """Remove the smoke stores plus every SQLite sidecar (WAL mode
    leaves ``-wal``/``-shm`` next to the database) and any fault-plan
    files the scenario wrote."""
    for db in list(tmp.glob("*.sqlite")):
        for suffix in ("", "-journal", "-wal", "-shm"):
            Path(str(db) + suffix).unlink(missing_ok=True)
    for plan in list(tmp.glob("*.json")):
        plan.unlink(missing_ok=True)
    tmp.rmdir()


#: Chaos scenario: the same six cells measured twice — once on a plain
#: server (the goldens), once on a worker pool whose plan crashes
#: every chunk's first assignee.
CHAOS_CELLS = [
    {"benchmark": bench, "processor": proc}
    for bench in ("mcf", "db", "lusearch")
    for proc in ("i7_45", "atom_45")
]

GOLDEN_SERVE_ARGS = ["--quick", "serve", "--port", "0"]

CHAOS_SERVE_ARGS = [
    "--quick",
    "--jobs",
    "2",
    "--heartbeat-interval",
    "0.1",
    "--liveness-misses",
    "3",
    "serve",
    "--port",
    "0",
    "--inject",
    "chaos",
    "--drain-timeout",
    "90",
]


def chaos_main(keep_store: bool) -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))

    print("== golden server: clean ==")
    server = Server(tmp / "golden.sqlite", GOLDEN_SERVE_ARGS)
    print(f"  {server.banner}")
    with ThreadPoolExecutor(max_workers=6) as pool:
        golden = list(
            pool.map(
                lambda pair: server.measure(pair[1], client=f"g-{pair[0]}"),
                enumerate(CHAOS_CELLS),
            )
        )
    check(
        all(s == 200 for s, _, _ in golden),
        f"golden pass: {len(CHAOS_CELLS)}/{len(CHAOS_CELLS)} got 200",
    )
    code, _ = server.terminate()
    check(code == 0, f"golden drain exits 0 (got {code})")

    print("== chaos server: worker pool + worker-kill plan ==")
    server = Server(tmp / "chaos.sqlite", CHAOS_SERVE_ARGS)
    print(f"  {server.banner}")
    with ThreadPoolExecutor(max_workers=6) as pool:
        chaotic = list(
            pool.map(
                lambda pair: server.measure(pair[1], client=f"c-{pair[0]}"),
                enumerate(CHAOS_CELLS),
            )
        )
    check(
        all(s == 200 for s, _, _ in chaotic),
        "chaos pass: every request survived its worker being killed",
    )
    matches = sum(
        1
        for (_, _, golden_body), (_, _, chaos_body) in zip(golden, chaotic)
        if golden_body == chaos_body
    )
    check(
        matches == len(CHAOS_CELLS),
        f"worker death is invisible in the data: "
        f"{matches}/{len(CHAOS_CELLS)} bodies byte-identical to goldens",
    )

    status, _, health_body = server.request("GET", "/healthz")
    health = json.loads(health_body)
    fleet = health.get("fleet")
    check(
        status == 200 and isinstance(fleet, dict),
        "healthz publishes the fleet worker table",
    )
    if isinstance(fleet, dict):
        print(
            f"  fleet: {fleet.get('live')}/{fleet.get('size')} live, "
            f"{fleet.get('restarts')} restarts, "
            f"{fleet.get('requeues')} requeues"
        )
        check(fleet.get("live", 0) >= 1, "at least one worker is live")
        check(
            fleet.get("restarts", 0) >= 1,
            f"at least one worker was crashed and respawned "
            f"(got {fleet.get('restarts')})",
        )

    status, _, metrics_body = server.request("GET", "/metrics")
    match = re.search(
        r"^repro_fleet_worker_restarts_total(?:\{[^}]*\})?\s+([0-9.eE+-]+)",
        metrics_body.decode(),
        re.MULTILINE,
    )
    restarts = float(match.group(1)) if match else 0.0
    check(
        status == 200 and restarts >= 1.0,
        f"/metrics shows >= 1 worker restart (got {restarts:g})",
    )

    code, stderr = server.terminate()
    check(
        code == 0 and "drained:" in stderr,
        f"chaos server drains cleanly under churn (exit {code})",
    )

    if not keep_store:
        cleanup_stores(tmp)

    if FAILURES:
        print(f"\nchaos smoke FAILED: {len(FAILURES)} assertion(s):")
        for failure in FAILURES:
            print(f"  - {failure}")
        return 1
    print("\nchaos smoke OK")
    return 0


#: Exit code the server uses for an injected ``coordinator.crash``
#: (mirrors repro.faults.injector.COORDINATOR_CRASH_EXIT_CODE).
COORDINATOR_CRASH_EXIT_CODE = 86

#: Scrape one counter's value from a Prometheus exposition body.
def metric_value(metrics_body: bytes, name: str) -> float:
    match = re.search(
        rf"^{name}(?:\{{[^}}]*\}})?\s+([0-9.eE+-]+)",
        metrics_body.decode(),
        re.MULTILINE,
    )
    return float(match.group(1)) if match else 0.0


def free_port() -> int:
    """Reserve an ephemeral port number.  The crash and recovery servers
    must share a port so retrying clients need no rediscovery; the
    server's own EADDRINUSE bind retry absorbs any reuse race."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def retrying_measure(port: int, body: dict, key: str, deadline_s: float = 120.0):
    """POST /measure with an Idempotency-Key, retrying across the crash
    window (connection refused/reset while the coordinator is down)
    until an HTTP response arrives.  This is the client half of the
    at-least-once-delivery / exactly-once-effects contract."""
    deadline = time.monotonic() + deadline_s
    while True:
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/measure",
            data=json.dumps(body).encode(),
            headers={"Idempotency-Key": key, "X-Client-Id": f"retry-{key}"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()
        except (urllib.error.URLError, ConnectionError, HTTPException, OSError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.2)


def kill_coordinator_main(keep_store: bool) -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-coord-"))
    port = free_port()

    print("== golden server: clean pass ==")
    server = Server(tmp / "golden.sqlite", GOLDEN_SERVE_ARGS)
    print(f"  {server.banner}")
    with ThreadPoolExecutor(max_workers=6) as pool:
        golden = list(
            pool.map(
                lambda pair: server.measure(pair[1], client=f"g-{pair[0]}"),
                enumerate(CHAOS_CELLS),
            )
        )
    check(
        all(s == 200 for s, _, _ in golden),
        f"golden pass: {len(CHAOS_CELLS)}/{len(CHAOS_CELLS)} got 200",
    )
    code, _ = server.terminate()
    check(code == 0, f"golden drain exits 0 (got {code})")

    print("== doomed server: coordinator.crash armed at the batch phase ==")
    plan_path = tmp / "coordinator-crash.json"
    plan_path.write_text(
        json.dumps(
            {
                "seed": "kill-coordinator",
                "faults": [
                    {
                        "kind": "coordinator.crash",
                        "probability": 1.0,
                        "scope": "coordinator/batch/*",
                    }
                ],
            }
        )
    )
    store = tmp / "coordinator.sqlite"
    doomed_args = [
        "--quick", "serve", "--port", str(port), "--inject", str(plan_path),
    ]
    server = Server(store, doomed_args)
    print(f"  {server.banner}")

    # Retrying idempotent clients: fired while the server is doomed to
    # die at its first batch dispatch; they ride out the crash window and
    # are answered by the recovery server.
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [
            pool.submit(retrying_measure, port, cell, f"cell-{i}")
            for i, cell in enumerate(CHAOS_CELLS)
        ]
        code = server.proc.wait(timeout=120)
        check(
            code == COORDINATOR_CRASH_EXIT_CODE,
            f"coordinator.crash killed the server mid-load "
            f"(exit {code}, want {COORDINATOR_CRASH_EXIT_CODE})",
        )

        print("== recovery server: same port, same store, --recover ==")
        recovery_args = [
            "--quick", "serve", "--port", str(port), "--recover",
        ]
        server = Server(store, recovery_args)
        print(f"  {server.banner}")
        check(
            "recovering" in server.banner,
            "recovery banner reports journal replay",
        )
        survivors = [future.result(timeout=150) for future in futures]

    check(
        all(s == 200 for s, _, _ in survivors),
        f"every retrying client got 200 across the crash "
        f"(got {[s for s, _, _ in survivors]})",
    )
    matches = sum(
        1
        for (_, _, golden_body), (_, _, body) in zip(golden, survivors)
        if golden_body == body
    )
    check(
        matches == len(CHAOS_CELLS),
        f"coordinator death is invisible in the data: "
        f"{matches}/{len(CHAOS_CELLS)} bodies byte-identical to goldens",
    )

    status, _, health_body = server.request("GET", "/healthz")
    health = json.loads(health_body)
    journal = health.get("journal", {})
    recovery = health.get("recovery", {})
    print(f"  journal: {journal}  recovery: {recovery}")
    check(
        status == 200 and journal.get("pending") == 0,
        f"journal fully drained (pending={journal.get('pending')})",
    )
    check(
        journal.get("done", 0) == len(CHAOS_CELLS),
        f"exactly one done journal entry per idempotency key — no "
        f"duplicates (done={journal.get('done')})",
    )
    check(
        recovery.get("replayed", 0) >= 1,
        f"recovery replayed at least one journalled request "
        f"(replayed={recovery.get('replayed')})",
    )
    check(
        recovery.get("failed", 0) == 0,
        f"no journalled request failed to recover "
        f"(failed={recovery.get('failed')})",
    )
    check(
        health.get("store_records") == len(CHAOS_CELLS),
        f"store holds exactly one record per cell "
        f"(got {health.get('store_records')})",
    )

    status, _, metrics_body = server.request("GET", "/metrics")
    replayed = metric_value(metrics_body, "repro_recovery_replayed_total")
    completed = metric_value(metrics_body, "repro_recovery_completed_total")
    check(
        status == 200 and replayed >= 1.0 and completed >= 1.0,
        f"/metrics records the recovery (replayed={replayed:g}, "
        f"completed={completed:g})",
    )

    code, stderr = server.terminate()
    check(
        code == 0 and "drained:" in stderr,
        f"recovery server drains cleanly (exit {code})",
    )

    if not keep_store:
        cleanup_stores(tmp)

    if FAILURES:
        print(f"\nkill-coordinator smoke FAILED: {len(FAILURES)} assertion(s):")
        for failure in FAILURES:
            print(f"  - {failure}")
        return 1
    print("\nkill-coordinator smoke OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keep-store", action="store_true")
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the worker-kill scenario instead of the "
        "mixed-load smoke",
    )
    parser.add_argument(
        "--kill-coordinator",
        action="store_true",
        help="run the coordinator-crash + journal-recovery scenario "
        "instead of the mixed-load smoke",
    )
    args = parser.parse_args()
    if args.chaos:
        return chaos_main(args.keep_store)
    if args.kill_coordinator:
        return kill_coordinator_main(args.keep_store)

    tmp = Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    store = tmp / "campaign.sqlite"

    print("== first server: mixed load ==")
    server = Server(store)
    print(f"  {server.banner}")

    # -- 1. coalescing burst: 20 identical POSTs, distinct clients -----------
    burst_body = {"benchmark": "mcf", "processor": "i7_45"}
    with ThreadPoolExecutor(max_workers=10) as pool:
        burst = list(
            pool.map(
                lambda i: server.measure(burst_body, client=f"burst-{i}"),
                range(20),
            )
        )
    check(all(s == 200 for s, _, _ in burst), "coalescing burst: 20/20 got 200")
    bodies = {body for _, _, body in burst}
    check(len(bodies) == 1, "coalescing burst: all responses byte-identical")
    mcf_i7_record = burst[0][2]

    # -- 2. distinct sweep cells ----------------------------------------------
    cells = [
        {"benchmark": bench, "processor": proc}
        for bench in ("db", "xalan", "fluidanimate", "lusearch", "mcf")
        for proc in ("i7_45", "atom_45", "c2d_45", "c2q_65")
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        sweep = list(
            pool.map(
                lambda pair: server.measure(pair[1], client=f"sweep-{pair[0]}"),
                enumerate(cells),
            )
        )
    check(
        all(s == 200 for s, _, _ in sweep),
        f"distinct sweep: {len(cells)}/{len(cells)} got 200",
    )

    # -- 3. one fault-armed plan reproduces fault-free bytes ------------------
    status, _, armed = server.measure(
        {"benchmark": "db", "processor": "atom_45", "inject": "ci"},
        client="faulty",
    )
    check(status == 200, "fault-armed (ci plan) request got 200")
    status, _, clean = server.measure(
        {"benchmark": "db", "processor": "atom_45"}, client="cleanly"
    )
    check(
        status == 200 and armed == clean,
        "fault-armed response is byte-identical to the fault-free one",
    )

    # -- 4. rate-limit hammer: one client, eight rapid requests ---------------
    hammer = [
        server.measure(burst_body, client="hammer") for _ in range(8)
    ]
    statuses = [s for s, _, _ in hammer]
    check(
        statuses.count(200) == 1 and statuses.count(429) == 7,
        f"rate limit split: 1x200 + 7x429 (got {statuses})",
    )
    check(
        all("Retry-After" in h for s, h, _ in hammer if s == 429),
        "every 429 carries Retry-After",
    )

    # -- 5. protocol errors ---------------------------------------------------
    check(server.request("GET", "/nope")[0] == 404, "unknown route is 404")
    check(
        server.measure({"benchmark": "bogus", "processor": "i7_45"}, "er")[0]
        == 400,
        "unknown benchmark is 400",
    )

    status, _, health = server.request("GET", "/healthz")
    health = json.loads(health)
    print(f"  health: {health}")
    # 5 benchmarks x 4 processors = 20 unique cells (the burst and the
    # fault-armed pair are among them), so the store holds exactly 20.
    check(health["store_records"] == 20, "store holds every measured cell")

    # -- 6. SLO report against the known status mix ---------------------------
    # POST /measure traffic so far: 20 burst + 20 sweep + 2 fault section
    # + 8 hammer + 1 unknown-benchmark = 51, none of them 5xx.
    status, _, body = server.request("GET", "/slo")
    check(status == 200, "GET /slo answers 200")
    slo = json.loads(body)
    check(
        slo["config"] == {"latency": {"p99": 120.0}, "availability": 0.99},
        "SLO config echoes the --slo spec",
    )
    measure_route = slo["routes"].get("/measure", {})
    check(
        measure_route.get("count") == 51,
        f"/measure latency histogram saw all 51 requests "
        f"(got {measure_route.get('count')})",
    )
    check(
        0 < measure_route.get("p50_s", 0) <= measure_route.get("p99_s", 0),
        "latency quantiles are positive and ordered (p50 <= p99)",
    )
    availability = slo["availability"]
    check(
        availability["errors"] == 0,
        f"no 5xx served, so zero SLO errors (429/400/404 are not errors; "
        f"got {availability['errors']})",
    )
    check(
        availability["observed"] == 1.0
        and availability["error_budget"]["consumed"] == 0.0
        and availability["error_budget"]["burn_rate"] == 0.0,
        "error budget untouched at 100% observed availability",
    )
    check(
        slo["ok"] is True and slo["violations"] == [],
        "no SLO violations under the generous targets",
    )
    check(
        {"admission", "schedule", "batch", "store"} <= set(slo["stages"]),
        f"per-stage latency covers the request pipeline "
        f"(got {sorted(slo['stages'])})",
    )

    # -- 7. request traces ----------------------------------------------------
    status, trace_headers, traced_body = server.measure(
        {"benchmark": "mcf", "processor": "i7_45"}, client="tracer"
    )
    check(
        status == 200 and traced_body == mcf_i7_record,
        "traced request still serves the byte-identical cached record",
    )
    request_id = header(trace_headers, "X-Request-Id")
    traceparent = header(trace_headers, "traceparent")
    check(bool(request_id), "measure response carries X-Request-Id")
    check(
        bool(traceparent) and bool(re.match(r"^00-[0-9a-f]{32}-[0-9a-f]{16}-01$", traceparent or "")),
        "measure response carries a well-formed traceparent",
    )
    status, _, body = server.request("GET", f"/trace/{request_id}")
    check(status == 200, "GET /trace/<request_id> answers 200")
    trace = json.loads(body)
    check(
        trace["orphans"] == [] and trace["root"] is not None,
        "span tree is single-rooted with zero orphan parent ids",
    )
    check(
        trace["root"]["name"] == "http.request"
        and trace["root"]["attributes"]["status"] == 200,
        "trace root is the http.request span with the served status",
    )
    span_names = {span["name"] for span in trace["spans"]}
    check(
        {"service.admission", "service.submit", "service.schedule"}
        <= span_names,
        f"trace covers the service pipeline (got {sorted(span_names)})",
    )
    status, _, body = server.request("GET", "/trace")
    check(
        status == 200 and request_id in json.loads(body)["request_ids"],
        "GET /trace lists the archived request id",
    )
    check(
        server.request("GET", "/trace/feedfacefeedface")[0] == 404,
        "unknown request id is 404",
    )

    # -- 8. clean drain -------------------------------------------------------
    code, stderr = server.terminate()
    check(code == 0, f"SIGTERM drain exits 0 (got {code})")
    check("drained:" in stderr, "final health report printed on drain")

    # -- 9. warm restart ------------------------------------------------------
    print("== second server: warm restart from the store ==")
    server = Server(store)
    print(f"  {server.banner}")
    check("warm-started" in server.banner, "restart reports warm start")
    status, _, health = server.request("GET", "/healthz")
    restored = json.loads(health)["restored"]
    check(restored == 20, f"restart restored every record (got {restored})")
    status, _, again = server.measure(burst_body, client="afterlife")
    check(
        status == 200 and again == mcf_i7_record,
        "restarted server serves byte-identical records from the store",
    )
    code, stderr = server.terminate()
    check(code == 0 and "drained:" in stderr, "second drain is clean too")

    if not args.keep_store:
        cleanup_stores(tmp)

    if FAILURES:
        print(f"\nsmoke FAILED: {len(FAILURES)} assertion(s):")
        for failure in FAILURES:
            print(f"  - {failure}")
        return 1
    print("\nsmoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
