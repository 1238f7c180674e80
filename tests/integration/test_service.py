"""Integration tests for the campaign server, over real sockets.

The server runs on a private event loop in a daemon thread; tests drive
it with stdlib HTTP clients from a thread pool, exactly as external
clients would.  The load-bearing assertions are the service's two
contracts:

* **Byte identity** — a ``POST /measure`` response body equals
  ``json.dumps(result.as_record())`` of a sequential ``Study.run``, under
  coalescing, parallel dispatch, fault injection, and store warm-starts.
* **One engine execution** — N concurrent identical requests cause
  exactly one measurement (asserted via the study cache-miss counter,
  which only the real measurement path increments).
"""

import asyncio
import json
import select
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlencode

import pytest

from repro.cli import main
from repro.core.ledger import run_fingerprint
from repro.core.study import Study
from repro.hardware.catalog import ATOM_45, CORE2DUO_45, CORE_I7_45
from repro.hardware.config import stock
from repro.obs.metrics import default_registry
from repro.service import server as server_module
from repro.service.server import CampaignServer, Request
from repro.service.store import ResultStore
from repro.workloads.catalog import benchmark


def _cache_misses() -> float:
    return default_registry().get("repro_study_cache_misses_total").value


class _LiveServer:
    """A CampaignServer running on its own loop in a daemon thread."""

    def __init__(self, server: CampaignServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="repro-test-server", daemon=True
        )

    def __enter__(self) -> "_LiveServer":
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=30)
        return self

    def __exit__(self, *exc: object) -> None:
        # A failed drain must not leave the loop running or a kept-alive
        # worker pool (``reuse_pool=True``) behind: either keeps the
        # pytest process from exiting.
        try:
            self.shutdown()
        finally:
            try:
                self.loop.call_soon_threadsafe(self.loop.stop)
                self.thread.join(timeout=30)
                if not self.thread.is_alive():
                    self.loop.close()
            finally:
                self.server.scheduler.study.close_pool()

    def shutdown(self) -> dict:
        if self.server.scheduler.draining:
            return {}
        return asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        ).result(timeout=60)

    # -- stdlib HTTP client ----------------------------------------------------

    def request(self, method: str, path: str, body: dict | None = None,
                headers: dict | None = None):
        """Returns (status, headers, body bytes); HTTP errors included."""
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.server.port}{path}",
            data=json.dumps(body).encode() if body is not None else None,
            headers=headers or {},
            method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def measure(self, body: dict, headers: dict | None = None):
        return self.request("POST", "/measure", body, headers)

    def measure_together(self, *pairs) -> list:
        """Submit ``pairs`` to the scheduler in one step of the server's
        loop, so they reach the measurement thread as one batch (a batch
        of two or more pairs is measured on the pool of a ``jobs``
        server); their results, in order."""
        scheduler = self.server.scheduler

        async def together():
            return await asyncio.gather(
                *(scheduler.submit(bench, config) for bench, config in pairs)
            )

        return asyncio.run_coroutine_threadsafe(
            together(), self.loop
        ).result(timeout=60)


def _quick_study(references, **kwargs) -> Study:
    return Study(references=references, invocation_scale=0.2, **kwargs)


MEASURE_MCF_I7 = {"benchmark": "mcf", "processor": "i7_45"}
#: Two distinct pairs: one batch of them reaches a ``jobs`` server's pool.
TWO_PAIRS = ((benchmark("mcf"), stock(CORE_I7_45)), (benchmark("db"), stock(ATOM_45)))


class TestCoalescingByteIdentity:
    def test_concurrent_identical_posts_measure_once(self, references):
        """The tentpole acceptance test: N parallel identical POSTs are
        one engine execution, and every response body is byte-identical
        to the sequential Study.run record."""
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            misses_before = _cache_misses()
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(
                    pool.map(lambda _: live.measure(MEASURE_MCF_I7), range(8))
                )
            misses_after = _cache_misses()

        assert [status for status, _, _ in outcomes] == [200] * 8
        assert misses_after - misses_before == 1  # exactly one measurement

        sequential = (
            _quick_study(references)
            .run([stock(CORE_I7_45)], [benchmark("mcf")])
            .single()
        )
        expected = json.dumps(sequential.as_record()).encode("utf-8")
        for _, _, body in outcomes:
            assert body == expected

    def test_parallel_dispatch_preserves_bytes(self, references):
        """Distinct concurrent requests batch through the parallel
        executor (jobs=2) and still serve sequential-run bytes."""
        requests = [
            {"benchmark": "mcf", "processor": "i7_45"},
            {"benchmark": "db", "processor": "atom_45"},
            {"benchmark": "mcf", "processor": "atom_45"},
            {"benchmark": "db", "processor": "c2d_45"},
        ]
        server = CampaignServer(
            study=_quick_study(references, jobs=2, reuse_pool=True)
        )
        with _LiveServer(server) as live:
            with ThreadPoolExecutor(max_workers=4) as pool:
                outcomes = list(pool.map(live.measure, requests))

        assert [status for status, _, _ in outcomes] == [200] * 4
        reference_study = _quick_study(references)
        for spec, (_, _, body) in zip(requests, outcomes):
            expected = reference_study.measure(
                benchmark(spec["benchmark"]),
                stock(
                    {
                        "i7_45": CORE_I7_45,
                        "atom_45": ATOM_45,
                        "c2d_45": CORE2DUO_45,
                    }[spec["processor"]]
                ),
            )
            assert body == json.dumps(expected.as_record()).encode("utf-8")

    def test_fault_armed_request_serves_fault_free_bytes(self, references):
        """A fail-stop fault plan retries to the identical record."""
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            status, _, body = live.measure({**MEASURE_MCF_I7, "inject": "ci"})
        assert status == 200
        clean = _quick_study(references).measure(
            benchmark("mcf"), stock(CORE_I7_45)
        )
        assert body == json.dumps(clean.as_record()).encode("utf-8")


class TestLiveServerTeardown:
    def test_failed_shutdown_still_closes_the_kept_alive_pool(
        self, references, monkeypatch
    ):
        study = _quick_study(references, jobs=2, reuse_pool=True)
        server = CampaignServer(study=study)

        async def broken_shutdown() -> dict:
            raise RuntimeError("drain failed")

        live = _LiveServer(server)
        with pytest.raises(RuntimeError, match="drain failed"):
            with live:
                live.measure_together(*TWO_PAIRS)
                processes = [h.process for h in study._pool._workers]
                assert processes and all(p.is_alive() for p in processes)
                monkeypatch.setattr(server, "shutdown", broken_shutdown)
        assert study._pool is None
        assert not any(p.is_alive() for p in processes)
        assert not live.thread.is_alive()


class TestAdmissionControl:
    def test_rate_limited_client_gets_429_with_retry_after(self, references):
        server = CampaignServer(
            study=_quick_study(references), rate=0.001, burst=1.0
        )
        with _LiveServer(server) as live:
            first = live.measure(MEASURE_MCF_I7, {"X-Client-Id": "impatient"})
            second = live.measure(MEASURE_MCF_I7, {"X-Client-Id": "impatient"})
            other = live.measure(MEASURE_MCF_I7, {"X-Client-Id": "patient"})
        assert first[0] == 200
        assert second[0] == 429
        assert int(second[1]["Retry-After"]) >= 1
        assert other[0] == 200  # budgets are per client

    def test_draining_server_rejects_new_measurements(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            live.shutdown()  # drain completes; listener still answers
            # (the socket closes with the drain, so expect refusal either
            # at HTTP (503) or connection level)
            try:
                status, _, _ = live.measure(MEASURE_MCF_I7)
                assert status == 503
            except (urllib.error.URLError, ConnectionError):
                pass


class TestStoreWarmStart:
    def test_restart_serves_identical_bytes_without_remeasuring(
        self, references, tmp_path
    ):
        path = tmp_path / "campaign.sqlite"
        fingerprint = run_fingerprint(0.2)

        with _LiveServer(
            CampaignServer(
                study=_quick_study(references),
                store=path,
                fingerprint=fingerprint,
            )
        ) as live:
            status, _, first_body = live.measure(MEASURE_MCF_I7)
            assert status == 200

        # Fresh study, same store: the record must come back from the
        # warm-started cache without a single engine execution.
        misses_before = _cache_misses()
        with _LiveServer(
            CampaignServer(
                study=_quick_study(references),
                store=path,
                fingerprint=fingerprint,
            )
        ) as live:
            assert live.server.restored == 1
            status, _, second_body = live.measure(MEASURE_MCF_I7)
            assert status == 200
        assert second_body == first_body
        assert _cache_misses() - misses_before == 0

    def test_mismatched_fingerprint_refuses_startup(self, references, tmp_path):
        from repro.service.store import StoreError

        path = tmp_path / "campaign.sqlite"
        with ResultStore(path) as store:
            store.check_fingerprint(run_fingerprint(1.0))
        live = _LiveServer(
            CampaignServer(
                study=_quick_study(references),
                store=path,
                fingerprint=run_fingerprint(0.2),
            )
        )
        with pytest.raises(StoreError, match="different run"):
            with live:
                pass  # pragma: no cover - start() must refuse


class TestQueryEndpoints:
    @pytest.fixture()
    def live(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            for spec in (
                MEASURE_MCF_I7,
                {"benchmark": "db", "processor": "i7_45"},
                {"benchmark": "mcf", "processor": "atom_45"},
                {"benchmark": "db", "processor": "atom_45"},
            ):
                status, _, _ = live.measure(spec)
                assert status == 200
            yield live

    def test_results_lists_stored_records(self, live):
        status, _, body = live.request("GET", "/results")
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 4
        status, _, body = live.request("GET", "/results?benchmark=mcf")
        assert {r["benchmark"] for r in json.loads(body)["results"]} == {"mcf"}

    def test_pareto_flags_non_dominated_configurations(self, live):
        status, _, body = live.request("GET", "/pareto")
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 2  # two configurations measured
        efficient = [p for p in payload["points"] if p["efficient"]]
        assert efficient  # a frontier always exists
        for point in payload["points"]:
            assert point["performance"] > 0
            assert point["normalized_energy"] > 0

    def test_healthz_reports_campaign_state(self, live):
        status, _, body = live.request("GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["completed"] == 4
        assert health["store_records"] == 4

    def test_metrics_exposition_includes_service_counters(self, live):
        status, headers, body = live.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "repro_service_jobs_total" in text
        assert "repro_store_writes_total" in text


class TestProtocolErrors:
    @pytest.fixture()
    def live(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            yield live

    def test_unknown_route_is_404(self, live):
        assert live.request("GET", "/nope")[0] == 404

    def test_wrong_method_is_405(self, live):
        assert live.request("GET", "/measure")[0] == 405

    def test_unknown_benchmark_is_400(self, live):
        status, _, body = live.measure({"benchmark": "nope", "processor": "i7_45"})
        assert status == 400
        assert "unknown benchmark" in json.loads(body)["error"]

    def test_unknown_configuration_key_is_400(self, live):
        status, _, _ = live.measure({"benchmark": "mcf", "config": "bogus"})
        assert status == 400

    def test_unsupported_knob_is_400(self, live):
        status, _, body = live.measure(
            {"benchmark": "mcf", "processor": "i7_45", "cores": 128}
        )
        assert status == 400
        assert "unsupported configuration" in json.loads(body)["error"]

    def test_malformed_json_body_is_400(self, live):
        status, _, _ = live.request("POST", "/measure", None)
        # no body at all parses as {}, which is missing 'benchmark'
        assert status == 400

    def test_corrupting_plan_is_400(self, live):
        status, _, body = live.measure({**MEASURE_MCF_I7, "inject": "demo"})
        assert status == 400
        assert "fail-stop" in json.loads(body)["error"]

    def test_mismatched_iterations_is_400(self, live):
        status, _, body = live.measure({**MEASURE_MCF_I7, "iterations": 999})
        assert status == 400
        assert "fixed by the measurement protocol" in json.loads(body)["error"]

    def test_matching_iterations_is_accepted(self, live, references):
        planned = _quick_study(references).scaled_invocations(benchmark("mcf"))
        status, _, _ = live.measure({**MEASURE_MCF_I7, "iterations": planned})
        assert status == 200

    def test_configuration_key_lookup_measures(self, live):
        status, _, body = live.measure(
            {"benchmark": "mcf", "config": "i7_45/4C2T@2.66+TB"}
        )
        assert status == 200
        assert json.loads(body)["configuration"] == "i7_45/4C2T@2.66+TB"

    def test_handler_error_is_500_not_a_malformed_request(self, references):
        """Only reading the request maps to 400; a route handler that
        raises is a server fault and must surface as one."""
        server = CampaignServer(study=_quick_study(references))

        async def broken(request):
            raise ValueError("handler bug")

        server.handle = broken
        with _LiveServer(server) as live:
            status, _, body = live.request("GET", "/healthz")
        assert status == 500
        assert "handler bug" in json.loads(body)["error"]


def _raw_exchange(port: int, chunks, pause_s: float = 0.0) -> tuple[bytes, float]:
    """Send ``chunks`` over one raw socket, ``pause_s`` apart, stopping
    as soon as the server answers; returns (response bytes, seconds
    from connect to the end of the response)."""
    started = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        for chunk in chunks:
            if select.select([sock], [], [], pause_s)[0]:
                break  # the server answered (or closed) mid-request
            try:
                sock.sendall(chunk)
            except OSError:
                break
        received = b""
        try:
            while data := sock.recv(65536):
                received += data
        except ConnectionResetError:
            pass  # close() with unread input resets; the answer came first
    return received, time.monotonic() - started


class TestRequestHead:
    """The whole request is read under one ``IO_TIMEOUT_S`` deadline,
    and the head holds at most ``MAX_HEADER_LINES`` header lines."""

    @pytest.fixture(scope="class")
    def live(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            yield live

    def test_dripping_client_is_cut_off_at_the_deadline(
        self, live, monkeypatch
    ):
        monkeypatch.setattr(server_module, "IO_TIMEOUT_S", 0.5)
        # One header line every 0.1 s stays inside any per-read timeout
        # of 0.5 s, for 60 lines (6 s) if the server lets it.
        drip = [b"GET /healthz HTTP/1.1\r\n"] + [
            f"X-Drip-{i}: 1\r\n".encode() for i in range(60)
        ]
        response, elapsed = _raw_exchange(live.server.port, drip, pause_s=0.1)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert elapsed < 3.0

    def test_head_over_the_line_cap_is_400(self, live):
        cap = server_module.MAX_HEADER_LINES
        head = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            f"X-Extra-{i}: 1\r\n".encode() for i in range(cap + 1)
        )
        response, _ = _raw_exchange(live.server.port, [head + b"\r\n"])
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"too many header lines" in response

    def test_head_at_the_line_cap_is_served(self, live):
        cap = server_module.MAX_HEADER_LINES
        head = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            f"X-Extra-{i}: 1\r\n".encode() for i in range(cap)
        )
        response, _ = _raw_exchange(live.server.port, [head + b"\r\n"])
        assert response.startswith(b"HTTP/1.1 200 ")

    def test_bare_lf_lines_and_eof_end_the_head(self, live):
        with socket.create_connection(
            ("127.0.0.1", live.server.port), timeout=30
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\nHost: x\n")
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while data := sock.recv(65536):
                response += data
        assert response.startswith(b"HTTP/1.1 200 ")


class TestStatementsPerRequest:
    """The SQLite work of one served ``POST /measure``, as the store's
    connection executes it: the journal admit, then one transaction
    that persists the result rows and marks the journal key done."""

    SERVED = ["BEGIN", "INSERT", "COMMIT", "BEGIN", "INSERT", "UPDATE", "COMMIT"]

    def test_new_and_repeated_measures_run_two_transactions(
        self, references, tmp_path
    ):
        store = ResultStore(tmp_path / "trace.sqlite")
        server = CampaignServer(study=_quick_study(references), store=store)
        statements: list[str] = []

        async def served(body: dict) -> list[str]:
            statements.clear()
            response = await server.handle(
                Request(
                    method="POST", path="/measure", query={}, headers={},
                    body=json.dumps(body).encode(), peer="test",
                )
            )
            assert response.status == 200
            return [statement.split()[0] for statement in statements]

        async def main():
            await server.scheduler.start()
            store._conn.set_trace_callback(statements.append)
            try:
                return (
                    await served(MEASURE_MCF_I7),
                    await served(MEASURE_MCF_I7),
                )
            finally:
                store._conn.set_trace_callback(None)
                await server.scheduler.drain()

        try:
            new, repeat = asyncio.run(main())
        finally:
            store.close()
        # A new pair: no SELECT, and its journal key is completed inside
        # the transaction that writes its record.
        assert new == self.SERVED
        # A repeat (answered by the study's cache) has no journal write
        # outside that batch transaction either, and writes no row.
        assert repeat == self.SERVED
        with ResultStore(tmp_path / "trace.sqlite") as reopened:
            assert len(reopened) == 1
            assert reopened.journal_counts()["done"] == 2


#: Bad outside input, one row per input, driven through both doors:
#: ``repro --quick --jobs none ARGS`` must exit 2 with one ``error:`` line
#: and no traceback, and the server must answer 400 with a JSON
#: ``error`` over a real socket — the same message, since both doors
#: call one parser.  A row is (id, ARGS, (route, query or body));
#: ``None`` marks a door that accepts the input, because the doors
#: differ there (only HTTP caps ``samples``), or that cannot spell it
#: (the CLI names no configuration key and lists no results; HTTP sets
#: no worker count).  A later ``--jobs`` overrides the leading ``none``.
BAD_INPUTS = [
    ("jobs-negative", ["--jobs", "-1", "list", "processors"], None),
    ("jobs-not-int", ["--jobs", "x", "list", "processors"], None),
    ("cache-cap-0", ["serve", "--cache-cap", "0"], None),
    ("samples-0", ["project", "--samples", "0"], ("/project", {"samples": "0"})),
    ("samples-not-int", ["project", "--samples", "x"], ("/project", {"samples": "x"})),
    ("samples-over-http-cap", None, ("/project", {"samples": "10000"})),
    ("area-negative", ["project", "--area", "-1"], ("/project", {"area": "-1"})),
    ("area-inf", ["project", "--area", "inf"], ("/project", {"area": "inf"})),
    ("tdp-nan", ["project", "--tdp", "nan"], ("/project", {"tdp": "nan"})),
    ("tdp-negative", ["project", "--tdp", "-5"], ("/project", {"tdp": "-5"})),
    ("tdp-no-machine-fits", ["project", "--tdp", "1"], ("/project", {"tdp": "1"})),
    ("seed-not-int", ["project", "--seed", "x"], ("/project", {"seed": "x"})),
    ("nodes-repeated", ["project", "--nodes", "22,22"], ("/project", {"nodes": "22,22"})),
    ("nodes-measured", ["project", "--nodes", "45"], ("/project", {"nodes": "45"})),
    ("nodes-empty", ["project", "--nodes", ","], ("/project", {"nodes": ","})),
    ("nodes-not-int", ["project", "--nodes", "22,x"], ("/project", {"nodes": "22,x"})),
    ("nodes-blank", ["project", "--nodes", ""], ("/project", {"nodes": ""})),
    ("results-benchmark-blank", None, ("/results", {"benchmark": ""})),
    (
        "unknown-processor",
        ["measure", "xalan", "nope"],
        ("/measure", {"benchmark": "xalan", "processor": "nope"}),
    ),
    (
        "unknown-benchmark",
        ["measure", "nope", "i7_45"],
        ("/measure", {"benchmark": "nope", "processor": "i7_45"}),
    ),
    (
        "config-beside-settings",
        None,
        ("/measure", {"benchmark": "xalan", "config": "i7_45/4C2T@2.66+TB",
                      "processor": "atom_45", "cores": 1}),
    ),
]


class TestBadInputs:
    @pytest.fixture(scope="class")
    def live(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            yield live

    @pytest.mark.parametrize("argv, http", [
        pytest.param(argv, http, id=name) for name, argv, http in BAD_INPUTS
    ])
    def test_refused_alike_at_both_doors(self, live, capsys, argv, http):
        messages = set()
        if argv is not None:
            assert main(["--quick", "--jobs", "none", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            messages.add(err[len("error: "):-1])
        if http is not None:
            route, params = http
            if route == "/measure":
                status, _, body = live.measure(params)
            else:
                status, _, body = live.request("GET", f"{route}?{urlencode(params)}")
            assert status == 400
            messages.add(json.loads(body)["error"])
        assert len(messages) == 1, messages


#: Configuration inputs POST /measure refuses with a 400.  Before the
#: shared ``configure`` builder, threads 7 and 0 enabled SMT, cores true
#: measured one core, 2.9 two, and turbo "off" left turbo on.
BAD_CONFIGURATION_INPUTS = [
    ("threads", 7),
    ("threads", 0),
    ("threads", True),
    ("threads", "1"),
    ("cores", True),
    ("cores", 2.9),
    ("cores", 0),
    ("cores", -2),
    ("cores", "2"),
    ("clock", True),
    ("clock", 0),
    ("clock", -1.6),
    ("clock", float("nan")),
    ("clock", float("inf")),
    ("clock", "1.6"),
    ("turbo", "off"),
    ("turbo", 0),
]


class TestConfigurationInputs:
    @pytest.fixture(scope="class")
    def server(self, study):
        return CampaignServer(study=study)

    @pytest.mark.parametrize(
        "field, value",
        BAD_CONFIGURATION_INPUTS,
        ids=[f"{field}={value!r}" for field, value in BAD_CONFIGURATION_INPUTS],
    )
    def test_rejected_with_400(self, server, field, value):
        body = json.dumps({**MEASURE_MCF_I7, field: value}).encode()
        request = Request(
            method="POST", path="/measure", query={}, headers={}, body=body,
            peer="test",
        )
        response = asyncio.run(server.handle(request))
        assert response.status == 400
        assert f"{field} must" in json.loads(response.body)["error"]


def _header(headers: dict, name: str) -> str | None:
    for key, value in headers.items():
        if key.lower() == name.lower():
            return value
    return None


def _span_names(trace: dict) -> set:
    return {span["name"] for span in trace["spans"]}


class TestRequestTracing:
    """The tentpole acceptance tests: every served /measure has a span
    tree covering coordinator and worker processes with zero orphans,
    and tracing never perturbs the response bytes."""

    REQUESTS = (
        {"benchmark": "mcf", "processor": "i7_45"},
        {"benchmark": "db", "processor": "atom_45"},
        {"benchmark": "db", "processor": "c2d_45"},
    )

    def _trace_of(self, live, headers):
        request_id = _header(headers, "X-Request-Id")
        assert request_id, "measure responses must carry X-Request-Id"
        status, _, body = live.request("GET", f"/trace/{request_id}")
        assert status == 200
        return json.loads(body)

    @pytest.mark.parametrize("jobs", (1, 2, 4))
    def test_span_tree_spans_all_layers_with_zero_orphans(
        self, references, jobs
    ):
        server = CampaignServer(
            study=_quick_study(references, jobs=jobs, reuse_pool=True)
        )
        reference_study = _quick_study(references)
        with _LiveServer(server) as live:
            with ThreadPoolExecutor(max_workers=3) as pool:
                outcomes = list(pool.map(live.measure, self.REQUESTS))
            for spec, (status, headers, body) in zip(self.REQUESTS, outcomes):
                assert status == 200
                # Byte identity holds with tracing armed at any jobs count.
                expected = reference_study.measure(
                    benchmark(spec["benchmark"]),
                    stock(
                        {
                            "i7_45": CORE_I7_45,
                            "atom_45": ATOM_45,
                            "c2d_45": CORE2DUO_45,
                        }[spec["processor"]]
                    ),
                )
                assert body == json.dumps(expected.as_record()).encode()

                trace = self._trace_of(live, headers)
                assert trace["orphans"] == []
                assert trace["span_count"] >= 4
                root = trace["root"]
                assert root is not None and root["name"] == "http.request"
                assert root["attributes"]["status"] == 200
                names = _span_names(trace)
                assert {
                    "service.admission",
                    "service.submit",
                    "service.schedule",
                } <= names
                # The request's own measurement landed in its tree, and
                # only its own: every measurement span carries this
                # request's benchmark.
                measured = [
                    span["attributes"]["benchmark"]
                    for span in trace["spans"]
                    if span["name"] in ("study.measure", "executor.chunk")
                ]
                assert measured
                assert set(measured) == {spec["benchmark"]}

    def test_coalesced_requests_get_their_own_rooted_traces(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            misses_before = _cache_misses()
            with ThreadPoolExecutor(max_workers=6) as pool:
                outcomes = list(
                    pool.map(lambda _: live.measure(MEASURE_MCF_I7), range(6))
                )
            assert [status for status, _, _ in outcomes] == [200] * 6
            # Coalescing still holds with tracing armed: one real
            # measurement answered every concurrently in-flight request.
            assert _cache_misses() - misses_before == 1
            request_ids = set()
            owners = 0
            for _, headers, _ in outcomes:
                trace = self._trace_of(live, headers)
                request_ids.add(trace["request_id"])
                assert trace["orphans"] == []
                assert trace["root"]["name"] == "http.request"
                if "service.batch" in _span_names(trace):
                    owners += 1
            assert len(request_ids) == 6  # one trace per request
            # At least one request owned a batch; stragglers arriving
            # after it resolved run their own (cache-hit) batches.
            assert owners >= 1

    def test_traceparent_continues_the_callers_trace(self, references):
        trace_id = "ab" * 16
        header = f"00-{trace_id}-{'cd' * 8}-01"
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            status, headers, _ = live.measure(
                MEASURE_MCF_I7, {"traceparent": header}
            )
            assert status == 200
            response_parent = _header(headers, "traceparent")
            assert response_parent.startswith(f"00-{trace_id}-")
            assert response_parent != header  # a fresh span, same trace
            trace = self._trace_of(live, headers)
            assert trace["trace_id"] == trace_id
            assert trace["root"]["attributes"]["remote_parent"] == "cd" * 8

    def test_malformed_traceparent_starts_a_fresh_trace(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            status, headers, _ = live.measure(
                MEASURE_MCF_I7, {"traceparent": "not-a-traceparent"}
            )
            assert status == 200  # ignored per spec, never an error
            trace = self._trace_of(live, headers)
            assert trace["trace_id"] != "not-a-traceparent"
            assert trace["root"]["attributes"]["remote_parent"] is None

    def test_trace_listing_and_unknown_id(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            _, headers, _ = live.measure(MEASURE_MCF_I7)
            request_id = _header(headers, "X-Request-Id")
            status, _, body = live.request("GET", "/trace")
            assert status == 200
            assert request_id in json.loads(body)["request_ids"]
            assert live.request("GET", "/trace/deadbeef")[0] == 404

    def test_no_trace_mode_serves_untraced_measurements(self, references):
        server = CampaignServer(
            study=_quick_study(references), trace_requests=False
        )
        with _LiveServer(server) as live:
            status, headers, _ = live.measure(MEASURE_MCF_I7)
            assert status == 200
            request_id = _header(headers, "X-Request-Id")
            assert request_id  # correlation id survives without tracing
            assert _header(headers, "traceparent") is None
            assert live.request("GET", f"/trace/{request_id}")[0] == 404


class TestSloEndpoint:
    def test_slo_report_reflects_traffic_and_targets(self, references):
        server = CampaignServer(
            study=_quick_study(references), slo="p99=10s,avail=99"
        )
        with _LiveServer(server) as live:
            for _ in range(3):
                assert live.measure(MEASURE_MCF_I7)[0] == 200
            assert live.measure({"benchmark": "nope"})[0] == 400
            status, _, body = live.request("GET", "/slo")
        assert status == 200
        report = json.loads(body)
        assert report["config"]["latency"] == {"p99": 10.0}
        assert report["config"]["availability"] == pytest.approx(0.99)
        measure_route = report["routes"]["/measure"]
        assert measure_route["count"] >= 4
        assert measure_route["p99_s"] > 0
        assert measure_route["p50_s"] <= measure_route["p99_s"]
        stages = report["stages"]
        assert {"admission", "schedule", "batch"} <= set(stages)
        availability = report["availability"]
        assert availability["requests"] >= 4
        assert availability["target"] == pytest.approx(0.99)
        assert "error_budget" in availability
        assert availability["error_budget"]["consumed"] >= 0.0

    def test_bad_slo_spec_is_rejected_at_construction(self, references):
        with pytest.raises(ValueError, match="p42"):
            CampaignServer(study=_quick_study(references), slo="p42=1ms")


class TestEventLog:
    def test_events_correlate_request_trace_and_store_row(
        self, references, tmp_path
    ):
        log_path = tmp_path / "events.jsonl"
        store_path = tmp_path / "campaign.sqlite"
        server = CampaignServer(
            study=_quick_study(references),
            store=store_path,
            event_log=log_path,
        )
        with _LiveServer(server) as live:
            status, headers, _ = live.measure(MEASURE_MCF_I7)
            assert status == 200
            request_id = _header(headers, "X-Request-Id")
            assert live.measure({"benchmark": "nope"})[0] == 400

        events = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(events) == 2
        ok, bad = events
        assert ok["event"] == "measure"
        assert ok["request_id"] == request_id
        assert ok["status"] == 200
        assert ok["benchmark"] == "mcf"
        assert isinstance(ok["store_row"], int)  # joins to the SQLite row
        assert ok["trace_id"]
        with ResultStore(store_path) as store:
            assert store.rowid("mcf", ok["config"]) == ok["store_row"]
        assert bad["status"] == 400
        assert bad["store_row"] is None
        assert bad["benchmark"] is None  # the body never parsed


class TestOpsView:
    def test_top_renders_a_frame_from_a_live_server(self, references, capsys):
        import io

        from repro.obs.top import run_top

        with _LiveServer(
            CampaignServer(
                study=_quick_study(references), slo="p99=10s,avail=99"
            )
        ) as live:
            assert live.measure(MEASURE_MCF_I7)[0] == 200
            stream = io.StringIO()
            code = run_top(
                f"http://127.0.0.1:{live.server.port}",
                interval_s=0.0,
                iterations=1,
                stream=stream,
            )
        assert code == 0
        frame = stream.getvalue()
        assert "repro top" in frame
        assert "cache" in frame
        assert "error budget" in frame


class TestSupervisedService:
    def test_healthz_exposes_the_fleet_worker_table(self, references):
        """A parallel server measures one-pair batches on its measurement
        thread, starts its worker pool on the first multi-pair batch,
        keeps it alive between batches and publishes the per-worker
        table on /healthz; `repro top` renders it from there."""
        server = CampaignServer(
            study=_quick_study(references, jobs=2, reuse_pool=True)
        )
        with _LiveServer(server) as live:
            status, _, _ = live.measure({"benchmark": "mcf", "processor": "atom_45"})
            assert status == 200
            _, _, health_body = live.request("GET", "/healthz")
            assert json.loads(health_body)["fleet"] is None
            pooled = live.measure_together(*TWO_PAIRS)
            _, _, health_body = live.request("GET", "/healthz")
            health = json.loads(health_body)
            fleet = health["fleet"]
            assert fleet is not None
            assert fleet["live"] >= 1
            assert fleet["heartbeat_s"] > 0
            assert isinstance(fleet["workers"], list) and fleet["workers"]
            worker = fleet["workers"][0]
            assert {"id", "pid", "state", "beats", "heartbeat_age_s"} <= set(
                worker
            )
            # Pooled measurement serves the same bytes as ever.
            sequential = _quick_study(references).run_pairs(TWO_PAIRS)
            assert [r.as_record() for r in pooled] == [
                r.as_record() for r in sequential
            ]
            _, _, metrics_body = live.request("GET", "/metrics")
            assert "repro_fleet_workers" in metrics_body.decode()

    def test_unsupervised_server_reports_no_fleet(self, references):
        """An in-process server (``jobs=None``) reports ``fleet: null``."""
        with _LiveServer(
            CampaignServer(study=_quick_study(references))
        ) as live:
            _, _, body = live.request("GET", "/healthz")
            assert json.loads(body)["fleet"] is None
