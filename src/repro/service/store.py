"""SQLite-backed persistent result store for the campaign server.

The JSONL checkpoint (PR 2) is an append-only crash log: perfect for
resuming one interrupted campaign, wrong for a long-lived server that
must answer queries from every measurement it has ever made.  This store
is the serving path's durability layer: one row per (benchmark,
configuration) holding the full-precision :meth:`RunResult.as_record`
JSON, plus a metadata table carrying the run fingerprint
(:func:`repro.core.ledger.run_fingerprint`) so a restarted server refuses
to serve records measured under different run parameters instead of
silently mixing datasets.

Records round-trip exactly: JSON serialises floats via ``repr``, so a
record read back from the store re-serialises to the byte-identical
response a fresh measurement would have produced — which is what lets a
warm-started server honour the byte-identity guarantee without
re-measuring.

Since PR 8 the same database also holds the **request journal**: a
write-ahead record of every admitted POST /measure, appended *before*
the request is scheduled and marked complete *in the same transaction*
that persists its result rows (:meth:`ResultStore.commit_batch`).  That
transactional coupling is the exactly-once-effects argument: a request
is either journalled-pending with no visible result (crash → recovery
replays it) or journalled-done with its records durable (crash → the
retry is served straight from the store) — there is no intermediate
state in which a result exists but the journal still owes work, so a
replay can never re-run the engine for a completed request.

Thread-safety: the server touches the store from the event-loop thread
(reads) and the measurement thread (writes), so the single shared
connection is guarded by one re-entrant lock.  SQLite serialises at the
file level anyway; the lock just keeps cursor use coherent.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.results import RunResult
from repro.obs.metrics import default_registry

_REGISTRY = default_registry()
_WRITES = _REGISTRY.counter(
    "repro_store_writes_total",
    "Result records persisted to the SQLite result store",
)
_READS = _REGISTRY.counter(
    "repro_store_reads_total",
    "Result records served back out of the SQLite result store",
)
_JOURNAL = _REGISTRY.counter(
    "repro_journal_transitions_total",
    "Request-journal state transitions, by resulting status",
)

#: v1: results + meta tables (PR 4).  v2: adds the request journal.  A
#: v1 store opened by v2 code is migrated in place (the journal table is
#: purely additive); anything else refuses with a hint — exit 4 at the
#: CLI, matching the fingerprint guard.
SCHEMA_VERSION = 2

#: Version of the journal table's own shape, tracked separately so a
#: future journal-only change doesn't force a full-store version bump.
JOURNAL_SCHEMA_VERSION = 1

#: Journal lifecycle states (see docs/robustness.md for the diagram):
#: ``pending`` → admitted, effects not yet durable; ``done`` → records
#: committed in the same transaction; ``shed`` → deadline expired before
#: dispatch; ``failed`` → measurement raised.  ``shed``/``failed`` rows
#: re-admit to ``pending`` when the same key is retried.
JOURNAL_STATUSES = ("pending", "done", "shed", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    benchmark TEXT NOT NULL,
    config    TEXT NOT NULL,
    record    TEXT NOT NULL,
    created_s REAL NOT NULL,
    PRIMARY KEY (benchmark, config)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS journal (
    request_key TEXT PRIMARY KEY,
    benchmark   TEXT NOT NULL,
    config      TEXT NOT NULL,
    plan        TEXT,
    plan_fp     TEXT,
    status      TEXT NOT NULL DEFAULT 'pending',
    detail      TEXT,
    admitted_s  REAL NOT NULL,
    completed_s REAL,
    attempts    INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX IF NOT EXISTS journal_status ON journal (status);
"""


class StoreError(RuntimeError):
    """The store cannot be used as asked (version or fingerprint clash)."""


class JournalConflict(StoreError):
    """An idempotency key was reused for a *different* request.

    Serving the stored result would silently answer the wrong question;
    the server surfaces this as 409 Conflict instead."""


@dataclass(frozen=True)
class JournalEntry:
    """One journalled request, as read back from the store."""

    request_key: str
    benchmark: str
    config: str
    plan: Optional[str]  # canonical FaultPlan JSON, or None
    plan_fp: Optional[str]
    status: str
    detail: Optional[str]
    admitted_s: float
    completed_s: Optional[float]
    attempts: int


class ResultStore:
    """Durable (benchmark, configuration) -> :class:`RunResult` map.

    ``path`` may be ``":memory:"`` for tests; anything else is a SQLite
    database file created on first use.  The store is a *superset* cache:
    ``put`` is idempotent (INSERT OR REPLACE on the pair key) and
    :meth:`records` returns rows in sorted (benchmark, config) order, the
    same canonical order ``Ledger.save_checkpoint`` uses.
    """

    def __init__(
        self,
        path: Path | str = ":memory:",
        busy_timeout_s: float = 5.0,
    ) -> None:
        self._path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self._path, check_same_thread=False)
        with self._lock:
            # Crash robustness for on-disk stores: WAL keeps a torn write
            # (a writer SIGKILLed mid-`put`) from corrupting committed
            # rows — readers see the last committed snapshot and recovery
            # happens automatically on the next open.  NORMAL sync is the
            # WAL-safe durability point (fsync on checkpoint, not per
            # commit); the busy timeout makes concurrent openers wait for
            # a writer's lock instead of failing with "database is
            # locked".  ``:memory:`` has no journal, so leave it alone.
            if self._path != ":memory:":
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}"
            )
            self._conn.executescript(_SCHEMA)
            self._check_schema_version()

    def _check_schema_version(self) -> None:
        """Adopt, migrate, or refuse based on the stored schema versions.

        A fresh store adopts the current versions; a v1 store (PR 4-7,
        pre-journal) migrates in place because v2 only *adds* the journal
        table — existing result rows and the fingerprint are untouched.
        Any other version refuses with a hint (the CLI maps this to
        exit 4, like a fingerprint mismatch) rather than guessing at a
        shape this build does not understand."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
        elif int(row[0]) == 1:
            self._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION),),
            )
        elif int(row[0]) != SCHEMA_VERSION:
            raise StoreError(
                f"{self._path}: store schema v{row[0]} != supported "
                f"v{SCHEMA_VERSION}; this store was written by a "
                "different build — point the server at a fresh --store "
                "or use the build that created it"
            )
        journal_row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'journal_schema_version'"
        ).fetchone()
        if journal_row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                ("journal_schema_version", str(JOURNAL_SCHEMA_VERSION)),
            )
        elif int(journal_row[0]) != JOURNAL_SCHEMA_VERSION:
            raise StoreError(
                f"{self._path}: journal schema v{journal_row[0]} != "
                f"supported v{JOURNAL_SCHEMA_VERSION}; recovery cannot "
                "safely replay a journal it does not understand — point "
                "the server at a fresh --store or use the build that "
                "created it"
            )
        self._conn.commit()

    @property
    def path(self) -> str:
        return self._path

    # -- result rows ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        return int(count)

    def __contains__(self, key: tuple[str, str]) -> bool:
        benchmark, config = key
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE benchmark = ? AND config = ?",
                (benchmark, config),
            ).fetchone()
        return row is not None

    def put(self, result: RunResult) -> None:
        self.put_many((result,))

    def put_many(self, results: Iterable[RunResult]) -> int:
        """Persist results (idempotently); returns the rows written."""
        rows = [
            (
                result.benchmark_name,
                result.config_key,
                json.dumps(result.as_record()),
                time.time(),
            )
            for result in results
        ]
        if not rows:
            return 0
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO results "
                "(benchmark, config, record, created_s) VALUES (?, ?, ?, ?)",
                rows,
            )
            self._conn.commit()
        _WRITES.inc(len(rows))
        return len(rows)

    def get(self, benchmark: str, config: str) -> Optional[RunResult]:
        with self._lock:
            row = self._conn.execute(
                "SELECT record FROM results WHERE benchmark = ? AND config = ?",
                (benchmark, config),
            ).fetchone()
        if row is None:
            return None
        _READS.inc()
        return RunResult.from_record(json.loads(row[0]))

    def rowid(self, benchmark: str, config: str) -> Optional[int]:
        """The SQLite rowid behind one stored pair, or ``None``.

        The durable correlation handle the server's event log records
        next to the request and trace IDs: a row outlives the process,
        so an audit can join a served response back to the exact stored
        record that produced it."""
        with self._lock:
            row = self._conn.execute(
                "SELECT rowid FROM results WHERE benchmark = ? AND config = ?",
                (benchmark, config),
            ).fetchone()
        return None if row is None else int(row[0])

    def records(
        self,
        benchmark: Optional[str] = None,
        config: Optional[str] = None,
    ) -> list[RunResult]:
        """Stored results in sorted (benchmark, config) order, optionally
        filtered to one benchmark and/or one configuration key."""
        query = "SELECT record FROM results"
        clauses, args = [], []
        if benchmark is not None:
            clauses.append("benchmark = ?")
            args.append(benchmark)
        if config is not None:
            clauses.append("config = ?")
            args.append(config)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY benchmark, config"
        with self._lock:
            rows = self._conn.execute(query, args).fetchall()
        _READS.inc(len(rows))
        return [RunResult.from_record(json.loads(row[0])) for row in rows]

    # -- request journal -------------------------------------------------------

    _JOURNAL_COLS = (
        "request_key, benchmark, config, plan, plan_fp, status, detail, "
        "admitted_s, completed_s, attempts"
    )

    @staticmethod
    def _entry(row: Sequence) -> JournalEntry:
        return JournalEntry(
            request_key=str(row[0]),
            benchmark=str(row[1]),
            config=str(row[2]),
            plan=None if row[3] is None else str(row[3]),
            plan_fp=None if row[4] is None else str(row[4]),
            status=str(row[5]),
            detail=None if row[6] is None else str(row[6]),
            admitted_s=float(row[7]),
            completed_s=None if row[8] is None else float(row[8]),
            attempts=int(row[9]),
        )

    def journal_admit(
        self,
        request_key: str,
        benchmark: str,
        config: str,
        plan: Optional[str] = None,
        plan_fp: Optional[str] = None,
    ) -> str:
        """Write-ahead admit: durably record the request *before* it is
        scheduled.  Returns the key's prior status — ``"new"`` for a
        first admission, ``"pending"`` for a retry of in-flight work
        (the scheduler coalesces it), ``"done"`` when the result is
        already durable (the caller serves it straight from the store,
        zero engine work), and ``"shed"``/``"failed"`` when a terminal
        row was re-opened to ``pending`` for another try.

        Reusing a key with a different (benchmark, config, plan) raises
        :class:`JournalConflict` — an idempotency key names *one*
        request, and answering with another request's bytes would be a
        silent lie."""
        with self._lock:
            row = self._conn.execute(
                f"SELECT {self._JOURNAL_COLS} FROM journal "
                "WHERE request_key = ?",
                (request_key,),
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO journal (request_key, benchmark, config, "
                    "plan, plan_fp, status, admitted_s, attempts) "
                    "VALUES (?, ?, ?, ?, ?, 'pending', ?, 1)",
                    (request_key, benchmark, config, plan, plan_fp, time.time()),
                )
                self._conn.commit()
                _JOURNAL.labels(status="pending").inc()
                return "new"
            entry = self._entry(row)
            if (entry.benchmark, entry.config, entry.plan_fp) != (
                benchmark,
                config,
                plan_fp,
            ):
                raise JournalConflict(
                    f"idempotency key {request_key!r} was already used for "
                    f"({entry.benchmark}, {entry.config}, "
                    f"plan={entry.plan_fp or 'none'}); it cannot also name "
                    f"({benchmark}, {config}, plan={plan_fp or 'none'})"
                )
            if entry.status in ("shed", "failed"):
                # Terminal-but-retryable: re-open for another attempt.
                self._conn.execute(
                    "UPDATE journal SET status = 'pending', detail = NULL, "
                    "completed_s = NULL, attempts = attempts + 1 "
                    "WHERE request_key = ?",
                    (request_key,),
                )
                self._conn.commit()
                _JOURNAL.labels(status="pending").inc()
            return entry.status

    def journal_entry(self, request_key: str) -> Optional[JournalEntry]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {self._JOURNAL_COLS} FROM journal "
                "WHERE request_key = ?",
                (request_key,),
            ).fetchone()
        return None if row is None else self._entry(row)

    def journal_pending(self) -> list[JournalEntry]:
        """Unfinished entries in admission order — the recovery worklist."""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {self._JOURNAL_COLS} FROM journal "
                "WHERE status = 'pending' ORDER BY admitted_s, request_key"
            ).fetchall()
        return [self._entry(row) for row in rows]

    def journal_counts(self) -> dict[str, int]:
        """Row counts by status (every known status present, 0 or not)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) FROM journal GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in JOURNAL_STATUSES}
        for status, count in rows:
            counts[str(status)] = int(count)
        return counts

    def _journal_finish(
        self,
        keys: Sequence[str],
        status: str,
        detail: Optional[str],
        cursor=None,
    ) -> int:
        """Move pending keys to a terminal status; returns rows changed.
        Only ``pending`` rows transition — finishing is idempotent, so a
        late duplicate completion cannot clobber an earlier one."""
        if not keys:
            return 0
        conn = cursor if cursor is not None else self._conn
        now = time.time()
        changed = 0
        for key in keys:
            result = conn.execute(
                "UPDATE journal SET status = ?, detail = ?, completed_s = ? "
                "WHERE request_key = ? AND status = 'pending'",
                (status, detail, now, key),
            )
            changed += result.rowcount
        if changed:
            _JOURNAL.labels(status=status).inc(changed)
        return changed

    def journal_complete(self, keys: Sequence[str]) -> int:
        """Mark pending keys done *without* new result rows — the path
        for requests wholly served from cache or the store."""
        with self._lock:
            changed = self._journal_finish(keys, "done", None)
            self._conn.commit()
        return changed

    def journal_shed(self, keys: Sequence[str], detail: str) -> int:
        """Mark pending keys shed (deadline expired before dispatch)."""
        with self._lock:
            changed = self._journal_finish(keys, "shed", detail)
            self._conn.commit()
        return changed

    def journal_fail(self, keys: Sequence[str], detail: str) -> int:
        """Mark pending keys failed (measurement raised)."""
        with self._lock:
            changed = self._journal_finish(keys, "failed", detail)
            self._conn.commit()
        return changed

    def commit_batch(
        self,
        results: Iterable[RunResult],
        done_keys: Sequence[str] = (),
    ) -> int:
        """Persist a batch's result rows *and* mark its journal keys done
        in one SQLite transaction — the exactly-once coupling point.

        A crash strictly before the commit leaves every key pending and
        no new result visible (recovery re-measures, reproducing the
        same bytes from the seeded engine); a crash strictly after
        leaves the results durable and the keys done (recovery serves
        the store).  No interleaving exposes a half-state, because WAL
        commits are atomic.  Returns the result rows written."""
        rows = [
            (
                result.benchmark_name,
                result.config_key,
                json.dumps(result.as_record()),
                time.time(),
            )
            for result in results
        ]
        with self._lock:
            if rows:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO results "
                    "(benchmark, config, record, created_s) VALUES (?, ?, ?, ?)",
                    rows,
                )
            self._journal_finish(done_keys, "done", None)
            self._conn.commit()
        if rows:
            _WRITES.inc(len(rows))
        return len(rows)

    # -- run fingerprint -------------------------------------------------------

    def get_meta(self, key: str) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else str(row[0])

    def set_meta(self, key: str, value: str) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, value),
            )
            self._conn.commit()

    def check_fingerprint(self, current: Mapping[str, object]) -> None:
        """Bind the store to one run fingerprint.

        A fresh store adopts ``current``; an existing store must match
        on seed and invocation scale, because records measured at
        another scale are *different data*, and serving them as a warm
        start would silently break the byte-identity guarantee.  The
        fault plan is deliberately *not* compared: a faulty invocation
        is retried or quarantined, never persisted wrong, so stored
        bytes are plan-invariant — and ``--recover`` must be able to
        restart against the store *without* the plan that crashed the
        previous coordinator.  Raises :class:`StoreError` on mismatch.
        """
        from repro.core.ledger import fingerprint_mismatch

        stored = self.get_meta("fingerprint")
        if stored is None:
            self.set_meta("fingerprint", json.dumps(dict(current), sort_keys=True))
            return
        mismatch = fingerprint_mismatch(
            json.loads(stored), current, fields=("root_seed", "invocation_scale")
        )
        if mismatch is not None:
            raise StoreError(
                f"{self._path}: store was written by a different run "
                f"({mismatch}); point the server at a fresh --store or "
                f"re-launch with the matching flags"
            )

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
