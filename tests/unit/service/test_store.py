"""Unit tests for the SQLite result store."""

import json

import pytest

from repro.core.ledger import run_fingerprint
from repro.core.study import Study
from repro.faults.plan import fail_stop_plan
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.service.store import (
    JOURNAL_SCHEMA_VERSION,
    SCHEMA_VERSION,
    JournalConflict,
    ResultStore,
    StoreError,
)
from repro.workloads.catalog import benchmark


@pytest.fixture(scope="module")
def results(study):
    """Two real records from the shared quick study."""
    return (
        study.measure(benchmark("mcf"), stock(CORE_I7_45)),
        study.measure(benchmark("db"), stock(ATOM_45)),
    )


class TestRoundTrip:
    def test_get_returns_equal_record(self, results):
        with ResultStore() as store:
            store.put(results[0])
            read = store.get(results[0].benchmark_name, results[0].config_key)
            assert read == results[0]

    def test_round_trip_preserves_response_bytes(self, results):
        """The byte-identity guarantee's storage leg: a record read back
        from SQLite re-serialises to the identical JSON."""
        with ResultStore() as store:
            store.put_many(results)
            for result in results:
                read = store.get(result.benchmark_name, result.config_key)
                assert json.dumps(read.as_record()) == json.dumps(
                    result.as_record()
                )

    def test_missing_pair_is_none(self):
        with ResultStore() as store:
            assert store.get("mcf", "nope") is None

    def test_put_is_idempotent(self, results):
        with ResultStore() as store:
            assert store.put_many(results) == 2
            assert store.put_many(results) == 2  # REPLACE, not duplicate
            assert len(store) == 2

    def test_contains_and_len(self, results):
        with ResultStore() as store:
            store.put(results[0])
            assert (results[0].benchmark_name, results[0].config_key) in store
            assert (results[1].benchmark_name, results[1].config_key) not in store
            assert len(store) == 1


class TestRecords:
    def test_sorted_order_and_filters(self, results):
        with ResultStore() as store:
            store.put_many(reversed(results))
            everything = store.records()
            keys = [(r.benchmark_name, r.config_key) for r in everything]
            assert keys == sorted(keys)
            only_mcf = store.records(benchmark="mcf")
            assert [r.benchmark_name for r in only_mcf] == ["mcf"]
            nothing = store.records(benchmark="mcf", config="no-such-key")
            assert nothing == []


class TestPersistence:
    def test_reopen_preserves_rows(self, tmp_path, results):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.put_many(results)
        with ResultStore(path) as store:
            assert len(store) == 2

    def test_schema_version_mismatch_refuses(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.set_meta("schema_version", "999")
        with pytest.raises(StoreError, match="schema"):
            ResultStore(path)

    def test_refusal_carries_a_hint(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.set_meta("schema_version", "999")
        with pytest.raises(StoreError, match="fresh --store"):
            ResultStore(path)

    def test_v1_store_migrates_in_place(self, tmp_path, results):
        """A pre-journal (PR 4-7) store opens cleanly: v2 only adds the
        journal table, so existing rows and the fingerprint survive."""
        path = tmp_path / "v1.sqlite"
        with ResultStore(path) as store:
            store.put_many(results)
            store.set_meta("schema_version", "1")
            store._conn.execute(
                "DELETE FROM meta WHERE key = 'journal_schema_version'"
            )
            store._conn.execute("DROP TABLE journal")
            store._conn.commit()
        with ResultStore(path) as reopened:
            assert reopened.get_meta("schema_version") == str(SCHEMA_VERSION)
            assert reopened.get_meta("journal_schema_version") == str(
                JOURNAL_SCHEMA_VERSION
            )
            assert len(reopened) == 2
            assert reopened.journal_counts()["pending"] == 0

    def test_journal_version_mismatch_refuses(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.set_meta("journal_schema_version", "999")
        with pytest.raises(StoreError, match="journal schema"):
            ResultStore(path)


class TestFingerprint:
    def test_fresh_store_adopts_fingerprint(self):
        store = ResultStore()
        store.check_fingerprint(run_fingerprint(0.2))
        store.check_fingerprint(run_fingerprint(0.2))  # and keeps matching

    def test_mismatched_scale_refuses(self):
        store = ResultStore()
        store.check_fingerprint(run_fingerprint(0.2))
        with pytest.raises(StoreError, match="different run"):
            store.check_fingerprint(run_fingerprint(1.0))

    def test_mismatched_plan_is_compatible(self):
        """Stored bytes are plan-invariant (faulty invocations retry or
        quarantine, never persist wrong), so a store written under a
        fault plan warm-starts a plan-less server — crash recovery
        depends on restarting without the plan that killed the
        coordinator."""
        store = ResultStore()
        store.check_fingerprint(run_fingerprint(0.2, plan=fail_stop_plan()))
        store.check_fingerprint(run_fingerprint(0.2))


class TestWarmStart:
    def test_warm_start_preloads_study_cache(self, references, results):
        store = ResultStore()
        store.put_many(results)
        fresh = Study(references=references, invocation_scale=0.2)
        assert fresh.ledger.restore_records(store.records()) == 2
        assert fresh.ledger.cached_pairs == 2
        # Preloaded pairs answer without re-measuring, byte-identically.
        again = fresh.measure(benchmark("mcf"), stock(CORE_I7_45))
        assert json.dumps(again.as_record()) == json.dumps(
            results[0].as_record()
        )

    def test_warm_start_skips_already_cached_pairs(self, references, results):
        store = ResultStore()
        store.put_many(results)
        fresh = Study(references=references, invocation_scale=0.2)
        fresh.ledger.restore_records(store.records())
        assert fresh.ledger.restore_records(store.records()) == 0


class TestWriteAheadLog:
    def test_on_disk_store_runs_in_wal_mode(self, tmp_path, results):
        store = ResultStore(tmp_path / "wal.sqlite")
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        (timeout_ms,) = store._conn.execute("PRAGMA busy_timeout").fetchone()
        assert timeout_ms == 5000
        store.put(results[0])
        # The WAL sidecar exists while the connection is live: commits
        # land there first, which is what makes a torn writer recoverable.
        assert (tmp_path / "wal.sqlite-wal").exists()
        store.close()

    def test_busy_timeout_is_configurable(self, tmp_path):
        store = ResultStore(tmp_path / "t.sqlite", busy_timeout_s=0.25)
        (timeout_ms,) = store._conn.execute("PRAGMA busy_timeout").fetchone()
        assert timeout_ms == 250
        store.close()

    def test_memory_store_keeps_default_journal(self):
        store = ResultStore()
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode != "wal"  # :memory: has no file to journal
        store.close()


class TestJournal:
    """The write-ahead request journal (PR 8)."""

    def test_fresh_admit_is_pending(self):
        with ResultStore() as store:
            assert store.journal_admit("k1", "mcf", "cfg") == "new"
            entry = store.journal_entry("k1")
            assert entry.status == "pending"
            assert entry.attempts == 1
            assert entry.completed_s is None

    def test_duplicate_admit_coalesces(self):
        with ResultStore() as store:
            store.journal_admit("k1", "mcf", "cfg")
            assert store.journal_admit("k1", "mcf", "cfg") == "pending"
            assert store.journal_entry("k1").attempts == 1

    def test_key_reuse_for_different_request_conflicts(self):
        with ResultStore() as store:
            store.journal_admit("k1", "mcf", "cfg", plan_fp="abc")
            with pytest.raises(JournalConflict, match="already used"):
                store.journal_admit("k1", "db", "cfg", plan_fp="abc")
            with pytest.raises(JournalConflict):
                store.journal_admit("k1", "mcf", "other-cfg", plan_fp="abc")
            with pytest.raises(JournalConflict):
                store.journal_admit("k1", "mcf", "cfg", plan_fp=None)

    def test_done_admit_reports_done(self):
        with ResultStore() as store:
            store.journal_admit("k1", "mcf", "cfg")
            store.journal_complete(["k1"])
            assert store.journal_admit("k1", "mcf", "cfg") == "done"
            assert store.journal_entry("k1").status == "done"

    @pytest.mark.parametrize("finish", ["journal_shed", "journal_fail"])
    def test_terminal_retryable_states_reopen(self, finish):
        with ResultStore() as store:
            store.journal_admit("k1", "mcf", "cfg")
            assert getattr(store, finish)(["k1"], "deadline") == 1
            prior = store.journal_admit("k1", "mcf", "cfg")
            assert prior in ("shed", "failed")
            entry = store.journal_entry("k1")
            assert entry.status == "pending"
            assert entry.attempts == 2
            assert entry.detail is None

    def test_finish_only_touches_pending_rows(self):
        with ResultStore() as store:
            store.journal_admit("k1", "mcf", "cfg")
            store.journal_complete(["k1"])
            # A late shed/fail for an already-done key is a no-op.
            assert store.journal_shed(["k1"], "late") == 0
            assert store.journal_fail(["k1"], "late") == 0
            assert store.journal_entry("k1").status == "done"

    def test_pending_is_admission_ordered(self):
        with ResultStore() as store:
            for key in ("kb", "ka", "kc"):
                store.journal_admit(key, "mcf", f"cfg-{key}")
            store.journal_complete(["ka"])
            pending = store.journal_pending()
            assert [e.request_key for e in pending] == ["kb", "kc"]

    def test_counts_cover_every_status(self):
        with ResultStore() as store:
            store.journal_admit("k1", "mcf", "cfg1")
            store.journal_admit("k2", "mcf", "cfg2")
            store.journal_admit("k3", "mcf", "cfg3")
            store.journal_complete(["k1"])
            store.journal_shed(["k2"], "expired")
            assert store.journal_counts() == {
                "pending": 1,
                "done": 1,
                "shed": 1,
                "failed": 0,
            }

    def test_commit_batch_couples_records_and_completions(self, results):
        """The exactly-once coupling: one call, one transaction, both the
        result rows and the journal completions land together."""
        with ResultStore() as store:
            keys = []
            for i, result in enumerate(results):
                key = f"k{i}"
                store.journal_admit(
                    key, result.benchmark_name, result.config_key
                )
                keys.append(key)
            assert store.commit_batch(results, keys) == 2
            assert len(store) == 2
            counts = store.journal_counts()
            assert counts["pending"] == 0
            assert counts["done"] == 2
            for result in results:
                read = store.get(result.benchmark_name, result.config_key)
                assert json.dumps(read.as_record()) == json.dumps(
                    result.as_record()
                )

    def test_commit_batch_survives_reopen(self, tmp_path, results):
        path = tmp_path / "journal.sqlite"
        with ResultStore(path) as store:
            store.journal_admit("k1", results[0].benchmark_name,
                                results[0].config_key)
            store.journal_admit("k2", "never", "finished")
            store.commit_batch([results[0]], ["k1"])
        with ResultStore(path) as reopened:
            assert reopened.journal_entry("k1").status == "done"
            pending = reopened.journal_pending()
            assert [e.request_key for e in pending] == ["k2"]

    def test_plan_round_trips_through_journal(self):
        plan = fail_stop_plan()
        with ResultStore() as store:
            store.journal_admit(
                "k1",
                "mcf",
                "cfg",
                plan=json.dumps(plan.as_dict(), sort_keys=True),
                plan_fp=plan.fingerprint,
            )
            entry = store.journal_entry("k1")
            from repro.faults.plan import FaultPlan

            assert FaultPlan.from_dict(json.loads(entry.plan)) == plan
            assert entry.plan_fp == plan.fingerprint


class TestCrashConsistency:
    """SIGKILL a writer mid-put; the survivors must be intact.

    This is the contract the campaign server leans on: the measurement
    thread may die at any byte boundary (OOM kill, node failure), and the
    rows already committed must come back exactly — no torn JSON, no
    corrupt pages, and a warm start from the reopened store serves the
    byte-identical records the dead writer committed.
    """

    WRITER = """
import json, sys
from repro.core.results import RunResult
from repro.service.store import ResultStore

path, record_path = sys.argv[1], sys.argv[2]
record = json.loads(open(record_path).read())
store = ResultStore(path)
index = 0
while True:
    record["benchmark"] = f"bench-{index:06d}"
    store.put(RunResult.from_record(record))
    index += 1
"""

    def test_killed_writer_leaves_no_torn_rows(self, tmp_path, results):
        import os
        import signal
        import subprocess
        import sys
        import time as time_module

        db = tmp_path / "crash.sqlite"
        template = dict(results[0].as_record())
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(template))
        script = tmp_path / "writer.py"
        script.write_text(self.WRITER)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        writer = subprocess.Popen(
            [sys.executable, str(script), str(db), str(record_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Watch the row count from a second connection (the server's
            # reader position) and pull the trigger mid-stream.
            watcher = ResultStore(db, busy_timeout_s=10.0)
            deadline = time_module.monotonic() + 60.0
            while len(watcher) < 25:
                assert writer.poll() is None, "writer died on its own"
                assert time_module.monotonic() < deadline, (
                    "writer never reached 25 rows"
                )
                time_module.sleep(0.01)
            writer.send_signal(signal.SIGKILL)
            writer.wait(timeout=30)
            watcher.close()
        finally:
            if writer.poll() is None:
                writer.kill()
                writer.wait(timeout=30)

        reopened = ResultStore(db)
        (verdict,) = reopened._conn.execute(
            "PRAGMA integrity_check"
        ).fetchone()
        assert verdict == "ok"
        survivors = reopened.records()
        assert len(survivors) >= 25
        # Every committed row parses and re-serialises: no torn JSON.
        for survivor in survivors:
            json.dumps(survivor.as_record())
        # Committed rows are the byte-identical records the writer put:
        # a warm start serves exactly what was measured.
        expected = dict(template)
        expected["benchmark"] = "bench-000000"
        first = reopened.get("bench-000000", template["configuration"])
        assert json.dumps(first.as_record()) == json.dumps(expected)
        # The sequence has no gaps: commit order is put order, so a kill
        # at row N leaves exactly rows 0..N-1 (never row N without N-1).
        names = sorted(s.benchmark_name for s in survivors)
        assert names == [f"bench-{i:06d}" for i in range(len(names))]
        reopened.close()
