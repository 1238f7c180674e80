"""Integration tests for the crash-restartable coordinator (PR 8).

Three layers of the exactly-once contract are exercised here:

* **Over HTTP, in process** — the write-ahead journal's lifecycle as
  seen by clients: idempotent replays served from the store with zero
  engine work, key-reuse conflicts, deadline shedding with 504s, and
  malformed-request 400s (one test per malformed shape, since every
  shape is a distinct way to corrupt a client's dataset if accepted).
* **Recovery replay, in process** — a store holding pending journal
  entries (what a crashed coordinator leaves behind) is drained by a
  ``recover=True`` server to the byte-identical records a sequential
  study produces; unresolvable entries fail loudly instead of
  crash-looping.
* **The kill matrix, across processes** — a real ``repro serve``
  subprocess armed with a ``coordinator.crash`` plan dies mid-request
  (exit 86); a ``--recover`` restart on the same store answers the
  retried idempotent request with the golden bytes.  One cell (the
  ``batch`` phase) runs in tier-1; the full phase x worker-death matrix
  is gated behind ``REPRO_COORD_MATRIX=1`` for the CI chaos job.
"""

import asyncio
import errno
import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.study import Study
from repro.faults.injector import COORDINATOR_CRASH_EXIT_CODE
from repro.faults.plan import COORDINATOR_PHASES
from repro.hardware.catalog import CORE_I7_45
from repro.hardware.config import stock
from repro.obs.metrics import default_registry
from repro.service.server import BIND_ATTEMPTS, CampaignServer
from repro.service.store import ResultStore
from repro.workloads.catalog import benchmark

from tests.equivalence import Capture, assert_campaign_equivalent
from tests.integration.test_service import _LiveServer  # noqa: the harness

MCF = benchmark("mcf")
I7 = stock(CORE_I7_45)
MEASURE_MCF_I7 = {"benchmark": "mcf", "processor": "i7_45"}


def _quick_study(references, **kwargs) -> Study:
    return Study(references=references, invocation_scale=0.2, **kwargs)


def _cache_misses() -> float:
    return default_registry().get("repro_study_cache_misses_total").value


def _golden(references) -> Capture:
    """The byte-identity reference: a sequential quick-study record, as
    the response body and as the one store row serving it leaves."""
    record = _quick_study(references).measure(MCF, I7).as_record()
    return Capture(rows=(record,), artifacts={"body": json.dumps(record).encode()})


def _served(body: bytes, stored=None) -> Capture:
    rows = None if stored is None else tuple(r.as_record() for r in stored)
    return Capture(rows=rows, artifacts={"body": body})


def _raw_post(port: int, body: bytes, headers: dict | None = None):
    """POST raw bytes (for shapes json.dumps cannot produce)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/measure",
        data=body,
        headers=headers or {},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestMalformedRequests:
    """Satellite 1: every malformed POST /measure shape gets a
    structured 400 naming the offence — never a 500, never silently
    measuring the wrong thing."""

    @pytest.fixture()
    def live(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            yield live

    def _assert_structured_400(self, outcome, needle: str):
        status, _, body = outcome
        assert status == 400
        payload = json.loads(body)
        assert needle in payload["error"]

    def test_invalid_json_body(self, live):
        outcome = _raw_post(live.server.port, b"{not json")
        self._assert_structured_400(outcome, "not valid JSON")

    def test_non_utf8_body(self, live):
        outcome = _raw_post(live.server.port, b"\xff\xfe\x00bogus")
        self._assert_structured_400(outcome, "not valid JSON")

    def test_non_object_body(self, live):
        outcome = _raw_post(live.server.port, b"[1, 2, 3]")
        self._assert_structured_400(outcome, "JSON object")

    def test_unknown_field(self, live):
        outcome = live.measure({**MEASURE_MCF_I7, "proccessor": "typo"})
        self._assert_structured_400(outcome, "unknown field(s) 'proccessor'")
        # The rejection teaches the accepted schema.
        assert "benchmark" in json.loads(outcome[2])["error"]

    def test_missing_benchmark(self, live):
        outcome = live.measure({"processor": "i7_45"})
        self._assert_structured_400(outcome, "benchmark")

    def test_empty_idempotency_key(self, live):
        outcome = live.measure(MEASURE_MCF_I7, {"Idempotency-Key": "   "})
        self._assert_structured_400(outcome, "Idempotency-Key")

    def test_oversize_idempotency_key(self, live):
        outcome = live.measure(MEASURE_MCF_I7, {"Idempotency-Key": "k" * 200})
        self._assert_structured_400(outcome, "128")

    @pytest.mark.parametrize("raw", ["soon", "-5", "0", "inf", "nan"])
    def test_bad_deadline_header(self, live, raw):
        outcome = live.measure(MEASURE_MCF_I7, {"X-Deadline-Ms": raw})
        self._assert_structured_400(outcome, "X-Deadline-Ms")


class TestIdempotencyOverHttp:
    def test_idempotent_retry_replays_from_store(self, references):
        """The same Idempotency-Key twice: one engine execution, the
        retry served from the durable store, bytes identical."""
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            misses_before = _cache_misses()
            headers = {"Idempotency-Key": "retry-me"}
            first = live.measure(MEASURE_MCF_I7, headers)
            second = live.measure(MEASURE_MCF_I7, headers)
            health = json.loads(live.request("GET", "/healthz")[2])
        misses = _cache_misses() - misses_before
        assert first[0] == 200 and second[0] == 200
        golden = _golden(references).only("artifacts")
        assert_campaign_equivalent(golden, _served(first[2]))
        assert_campaign_equivalent(golden, _served(second[2]))
        assert second[1].get("Idempotent-Replay") == "true"
        assert misses == 1
        assert health["journal"]["done"] == 1
        assert health["journal"]["pending"] == 0

    def test_key_reuse_for_different_request_conflicts(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            headers = {"Idempotency-Key": "one-key"}
            first = live.measure(MEASURE_MCF_I7, headers)
            other = live.measure(
                {"benchmark": "db", "processor": "atom_45"}, headers
            )
        assert first[0] == 200
        assert other[0] == 409
        assert "one-key" in json.loads(other[2])["error"]


class TestDeadlineShedding:
    def test_expired_deadline_is_shed_with_504(self, references):
        """A microscopic budget is dead on arrival: 504, counted in
        repro_requests_shed_total, journalled as shed — never silent."""
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            outcome = live.measure(
                MEASURE_MCF_I7,
                {"X-Deadline-Ms": "0.000001", "Idempotency-Key": "doomed"},
            )
            health = json.loads(live.request("GET", "/healthz")[2])
            entry = live.server.store.journal_entry("doomed")
        assert outcome[0] == 504
        assert health["shed"] >= 1
        assert entry is not None and entry.status == "shed"
        shed_metric = default_registry().get("repro_requests_shed_total")
        assert shed_metric.labels(stage="admit").value >= 1

    def test_generous_deadline_serves_normally(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            outcome = live.measure(MEASURE_MCF_I7, {"X-Deadline-Ms": "60000"})
        assert outcome[0] == 200
        assert_campaign_equivalent(
            _golden(references).only("artifacts"), _served(outcome[2])
        )

    def test_shed_requests_are_visible_in_slo_report(self, references):
        with _LiveServer(CampaignServer(study=_quick_study(references))) as live:
            live.measure(MEASURE_MCF_I7, {"X-Deadline-Ms": "0.000001"})
            slo = json.loads(live.request("GET", "/slo")[2])
        assert slo["shed"]["total"] >= 1
        assert slo["shed"]["stages"].get("admit", 0) >= 1
        assert slo["shed"]["responses_504"] >= 1
        # Sheds are deliberate refusal, not unavailability: the 504 does
        # not burn the error budget.
        assert slo["availability"]["errors"] == 0


class TestRecoveryReplay:
    def test_recover_completes_pending_entries_byte_identically(
        self, references, tmp_path
    ):
        """The tentpole: a store holding what a crashed coordinator
        leaves behind (journalled-pending, no result row) is drained by
        --recover to the byte-identical sequential record."""
        path = tmp_path / "crashed.sqlite"
        with ResultStore(path) as store:
            assert store.journal_admit("lost-req", MCF.name, I7.key) == "new"

        misses_before = _cache_misses()
        server = CampaignServer(
            study=_quick_study(references), store=path, recover=True
        )
        with _LiveServer(server) as live:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                health = json.loads(live.request("GET", "/healthz")[2])
                settled = (
                    health["recovery"]["completed"]
                    + health["recovery"]["failed"]
                ) == health["recovery"]["replayed"]
                if health["journal"]["pending"] == 0 and settled:
                    break
                time.sleep(0.05)
            assert health["journal"]["pending"] == 0
            assert health["journal"]["done"] == 1
            assert health["recovery"] == {
                "replayed": 1,
                "completed": 1,
                "failed": 0,
            }
            # A client retrying the lost request is answered from the
            # recovered store, not by a second execution.
            outcome = live.measure(
                MEASURE_MCF_I7, {"Idempotency-Key": "lost-req"}
            )
            stored = live.server.store.records()
        misses = _cache_misses() - misses_before
        assert outcome[0] == 200
        assert misses == 1  # the replay measured exactly once
        assert_campaign_equivalent(
            _golden(references), _served(outcome[2], stored)
        )

    def test_entry_outside_the_study_configurations_replays(
        self, references, tmp_path
    ):
        """POST /measure journals any configuration a part can express,
        so recovery resolves every such key, not only the study's 45."""
        path = tmp_path / "three-cores.sqlite"
        with ResultStore(path) as store:
            store.journal_admit("three-cores", MCF.name, "c2q_65/3C1T@2.4")
        server = CampaignServer(
            study=_quick_study(references), store=path, recover=True
        )
        with _LiveServer(server) as live:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                health = json.loads(live.request("GET", "/healthz")[2])
                recovery = health["recovery"]
                if recovery["completed"] + recovery["failed"] == 1:
                    break
                time.sleep(0.05)
            entry = live.server.store.journal_entry("three-cores")
        assert health["recovery"] == {"replayed": 1, "completed": 1, "failed": 0}
        assert entry.status == "done"

    def test_unresolvable_entry_fails_loudly_not_fatally(
        self, references, tmp_path
    ):
        path = tmp_path / "stale.sqlite"
        with ResultStore(path) as store:
            store.journal_admit("stale-req", MCF.name, "no-such-config")

        server = CampaignServer(
            study=_quick_study(references), store=path, recover=True
        )
        with _LiveServer(server) as live:
            health = json.loads(live.request("GET", "/healthz")[2])
            entry = live.server.store.journal_entry("stale-req")
            # The server still serves fresh traffic.
            outcome = live.measure(MEASURE_MCF_I7)
        assert health["recovery"]["failed"] == 1
        assert health["recovery"]["replayed"] == 0
        assert entry.status == "failed"
        assert "unresolvable" in entry.detail
        assert outcome[0] == 200

    def test_recovery_without_pending_entries_is_a_noop(
        self, references, tmp_path
    ):
        path = tmp_path / "clean.sqlite"
        server = CampaignServer(
            study=_quick_study(references), store=path, recover=True
        )
        with _LiveServer(server) as live:
            health = json.loads(live.request("GET", "/healthz")[2])
        assert health["recovery"] == {
            "replayed": 0,
            "completed": 0,
            "failed": 0,
        }


class TestDrainLeavesJournal:
    def test_expired_drain_leaves_journal_for_byte_identical_recovery(
        self, references, tmp_path
    ):
        """Satellite 4: a drain that expires mid-batch cancels the work
        but leaves the journal entry pending; a --recover restart on the
        same store completes it byte-identically."""
        path = tmp_path / "drained.sqlite"
        release = threading.Event()

        server = CampaignServer(
            study=_quick_study(references), store=path, drain_timeout=0.3
        )
        with _LiveServer(server) as live:
            real_measure = server.scheduler._measure_batch

            def hung_measure(plan, pairs, schedule_spans=None, batch_keys=None):
                release.wait(timeout=60)  # wedged until the test lets go
                return {}

            server.scheduler._measure_batch = hung_measure
            client = threading.Thread(
                target=live.measure,
                args=(MEASURE_MCF_I7, {"Idempotency-Key": "mid-batch"}),
                daemon=True,
            )
            client.start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                entry = server.store.journal_entry("mid-batch")
                if entry is not None:
                    break
                time.sleep(0.02)
            assert entry is not None and entry.status == "pending"
            summary = live.shutdown()  # 0.3s drain expires mid-batch
            release.set()
            client.join(timeout=30)
            server.scheduler._measure_batch = real_measure
        assert summary["journal_pending"] == 1

        recovered = CampaignServer(
            study=_quick_study(references), store=path, recover=True
        )
        with _LiveServer(recovered) as live:
            outcome = live.measure(
                MEASURE_MCF_I7, {"Idempotency-Key": "mid-batch"}
            )
            health = json.loads(live.request("GET", "/healthz")[2])
            stored = live.server.store.records()
        assert outcome[0] == 200
        assert_campaign_equivalent(
            _golden(references), _served(outcome[2], stored)
        )
        assert health["journal"]["pending"] == 0
        assert health["journal"]["done"] == 1


class TestBindRetry:
    """Satellite 2: EADDRINUSE on bind retries with bounded backoff."""

    def test_bind_retries_through_transient_address_in_use(
        self, references, monkeypatch
    ):
        monkeypatch.setattr("repro.service.server.BIND_BACKOFF_S", 0.001)
        real_start_server = asyncio.start_server
        attempts = []

        async def flaky_start_server(*args, **kwargs):
            attempts.append(1)
            if len(attempts) <= 2:
                raise OSError(errno.EADDRINUSE, "address already in use")
            return await real_start_server(*args, **kwargs)

        monkeypatch.setattr(asyncio, "start_server", flaky_start_server)
        server = CampaignServer(study=_quick_study(references))

        async def main():
            await server.start()
            port = server.port
            await server.shutdown()
            return port

        port = asyncio.run(main())
        assert len(attempts) == 3
        assert port > 0

    def test_bind_gives_up_after_bounded_attempts(
        self, references, monkeypatch
    ):
        monkeypatch.setattr("repro.service.server.BIND_BACKOFF_S", 0.001)
        attempts = []

        async def dead_start_server(*args, **kwargs):
            attempts.append(1)
            raise OSError(errno.EADDRINUSE, "address already in use")

        monkeypatch.setattr(asyncio, "start_server", dead_start_server)
        server = CampaignServer(study=_quick_study(references))
        with pytest.raises(OSError, match="address already in use"):
            asyncio.run(server.start())
        assert len(attempts) == BIND_ATTEMPTS

    def test_non_addrinuse_bind_errors_fail_fast(self, references, monkeypatch):
        attempts = []

        async def denied_start_server(*args, **kwargs):
            attempts.append(1)
            raise OSError(errno.EACCES, "permission denied")

        monkeypatch.setattr(asyncio, "start_server", denied_start_server)
        server = CampaignServer(study=_quick_study(references))
        with pytest.raises(OSError, match="permission denied"):
            asyncio.run(server.start())
        assert len(attempts) == 1


# -- the kill matrix: real processes, real SIGKILL-equivalent crashes ---------


def _write_crash_plan(path, phase: str, extra_faults=()) -> None:
    path.write_text(
        json.dumps(
            {
                "seed": "kill-matrix",
                "faults": [
                    {
                        "kind": "coordinator.crash",
                        "probability": 1.0,
                        "scope": f"coordinator/{phase}/*",
                    },
                    *extra_faults,
                ],
            }
        )
    )


class _ServeProcess:
    """One `repro serve` subprocess bound to an ephemeral port.

    ``pre_args`` land before the ``serve`` subcommand (global flags like
    ``--jobs``); ``serve_args`` after it (``--inject``,
    ``--recover``)."""

    def __init__(self, store, serve_args=(), pre_args=()):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "--quick", *pre_args,
                "serve", "--port", "0", "--store", str(store), *serve_args,
            ],
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stderr.readline().strip()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if match is None:
            self.proc.kill()
            raise RuntimeError(f"no serving banner, got: {banner!r}")
        self.port = int(match.group(1))
        self.banner = banner

    def measure(self, body: dict, headers: dict | None = None):
        return _raw_post(self.port, json.dumps(body).encode(), headers)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            return self.proc.wait(timeout=60)
        finally:
            self.proc.stderr.close()


def _kill_and_recover_cell(tmp_path, references, phase, pre_args=(),
                           extra_faults=()):
    """One matrix cell: crash a serving coordinator at `phase`, restart
    with --recover, and assert the retried idempotent request produces
    the golden bytes with nothing lost or duplicated."""
    plan_path = tmp_path / f"crash-{phase}.json"
    _write_crash_plan(plan_path, phase, extra_faults)
    store = tmp_path / f"campaign-{phase}.sqlite"

    doomed = _ServeProcess(
        store, serve_args=("--inject", str(plan_path)), pre_args=pre_args
    )
    try:
        try:
            doomed.measure(MEASURE_MCF_I7, {"Idempotency-Key": "kill-cell"})
        except (urllib.error.URLError, ConnectionError, OSError):
            pass  # the coordinator died mid-request, as planned
        code = doomed.proc.wait(timeout=120)
    finally:
        doomed.stop()
    assert code == COORDINATOR_CRASH_EXIT_CODE, (
        f"phase {phase}: expected injected crash exit "
        f"{COORDINATOR_CRASH_EXIT_CODE}, got {code}"
    )

    recovered = _ServeProcess(store, serve_args=("--recover",),
                              pre_args=pre_args)
    try:
        status, _, body = recovered.measure(
            MEASURE_MCF_I7, {"Idempotency-Key": "kill-cell"}
        )
        assert status == 200
        health = json.loads(
            urllib.request.urlopen(
                f"http://127.0.0.1:{recovered.port}/healthz", timeout=60
            ).read()
        )
        assert health["journal"]["pending"] == 0
        assert health["journal"]["done"] >= 1
        assert health["store_records"] == 1  # exactly-once effects
    finally:
        assert recovered.stop() == 0
    # The store keeps rows by pair: their order is no part of the contract.
    with ResultStore(store) as stored:
        served = _served(body, stored.records())
    assert_campaign_equivalent(_golden(references), served, bag=True)


class TestCoordinatorKillMatrix:
    def test_kill_at_batch_then_recover(self, references, tmp_path):
        """Tier-1 cell: the canonical mid-batch crash."""
        _kill_and_recover_cell(tmp_path, references, "batch")

    @pytest.mark.skipif(
        not os.environ.get("REPRO_COORD_MATRIX"),
        reason="full kill matrix runs in the CI coordinator-chaos job "
        "(REPRO_COORD_MATRIX=1)",
    )
    @pytest.mark.parametrize("phase", [p for p in COORDINATOR_PHASES if p != "batch"])
    def test_kill_at_every_phase_then_recover(
        self, references, tmp_path, phase
    ):
        _kill_and_recover_cell(tmp_path, references, phase)

    @pytest.mark.skipif(
        not os.environ.get("REPRO_COORD_MATRIX"),
        reason="full kill matrix runs in the CI coordinator-chaos job "
        "(REPRO_COORD_MATRIX=1)",
    )
    @pytest.mark.parametrize(
        "worker_scope", ["fleet/0/0", "fleet/*/0"],
        ids=["one-worker-death", "all-first-assignees-die"],
    )
    def test_kill_at_store_with_worker_deaths(
        self, references, tmp_path, worker_scope
    ):
        """Compound chaos: workers crash mid-measurement (the worker pool
        requeues them), then the coordinator dies at the store
        phase — recovery still lands the golden bytes exactly once."""
        _kill_and_recover_cell(
            tmp_path,
            references,
            "store",
            pre_args=(
                "--jobs", "2",
                "--heartbeat-interval", "0.1", "--liveness-misses", "3",
            ),
            extra_faults=(
                {
                    "kind": "worker.crash",
                    "probability": 1.0,
                    "scope": worker_scope,
                },
            ),
        )
