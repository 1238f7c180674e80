"""The two workloads: cold `campaign` and served `serve` traffic.

Each workload returns a :class:`Outcome`: the end-to-end metrics (or,
traced, the per-layer metrics), the diagnostics that tell a slow host
phase from a slow change, and the attempted/failed operation counts.
Every workload pins its environment — compiled kernels on, no fault
plan — and uses at most two worker processes or client connections,
the CPU count of the host the benchmark was tuned on.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import checks
import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A cold campaign's time on the slow host regime, child start-up and
#: set-up included.  A run holds ``--seconds / CAMPAIGN_NOMINAL_S``
#: campaigns (5 at 55 s) however fast the host or the code is, so the
#: slowest of them is taken over the same number on both sides of a
#: comparison.
CAMPAIGN_NOMINAL_S = 11.0
#: Closed-loop clients of the `serve` load generator.
CLIENTS = 2
#: Requests in one `serve` round, against a fresh server and store.  At
#: 60% new pairs a round needs about 1200 of the 2745 distinct pairs, so
#: "new" stays new for the whole round however fast the server is.
ROUND_REQUESTS = 2000
#: A `serve` round's time on the slow host regime, server start and
#: drain included.  A run holds ``--seconds / ROUND_NOMINAL_S`` rounds
#: (3 at 55 s), so its tail is a quantile of a fixed number of requests.
ROUND_NOMINAL_S = 18.0
#: Each round pauses its clients this many times, at even request
#: counts, to time a reference block (see ``hostspeed``) while the
#: server is idle.  The pauses are not part of the round's time.
ROUND_PAUSES = 4
#: The `serve` tail: the 90th percentile of all the run's requests.
#: Each fresh server's first few dozen requests wait for its pool to
#: warm up; they fill most of a round's slowest 1%, so a p99 measured
#: the host's speed during a few warm-ups rather than the serving.
SERVE_TAIL_PERCENTILE = 90
#: The `serve` traffic mix: new pairs, repeats (cache hits), store reads.
MIX_NEW = 0.60
MIX_REPEAT = 0.25
#: The load generator's interpreter switch interval while it drives the
#: server.  At the default 5 ms a client thread whose reply has arrived
#: waits for the other thread to give up the interpreter lock: two
#: clients measured 220-405 req/s from run to run at a 7-10 ms median,
#: where one client alone reached 400 req/s at 1.6 ms.  At 0.5 ms the
#: two clients drove 780 req/s of mostly cache-hit traffic, so the
#: generator no longer limits the server.
LOAD_SWITCH_INTERVAL_S = 0.0005
CHILD_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    metrics: dict[str, float]
    diagnostics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


class BenchmarkError(RuntimeError):
    """A measured process misbehaved; the run has no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_SWEEP_KERNELS"] = "1"
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def samples(seconds: float, nominal_s: float) -> int:
    """Samples in a run of ``seconds``: a fixed count, so every
    statistic of a run is taken over the same sample size."""
    return max(1, round(seconds / nominal_s))


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- campaign ------------------------------------------------------------------


class Child:
    """A ``child.py`` process and the PERFBENCH lines it reports."""

    def __init__(self, tmp: Path, mode: str, *args: str) -> None:
        self._log = tmp / f"{mode}-{time.monotonic_ns()}.err"
        self.ready_s: Optional[float] = None
        self._spawned = time.perf_counter()
        with open(self._log, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, *args],
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
                cwd=ROOT,
                env=child_env(),
            )

    def read(self) -> dict:
        for line in self.proc.stdout:
            if line.startswith("PERFBENCH "):
                if self.ready_s is None:
                    # Set-up runs from spawn to the child's first line.
                    self.ready_s = time.perf_counter() - self._spawned
                return json.loads(line[len("PERFBENCH "):])
        self.close()
        raise BenchmarkError(
            f"child exited with {self.proc.returncode}: "
            + self._log.read_text()[-2000:]
        )

    def close(self) -> None:
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchmarkError(
                f"child exited with {self.proc.returncode}: "
                + self._log.read_text()[-2000:]
            )

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc: object) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _run_child(tmp: Path, mode: str, trace_out=None, **options) -> dict:
    """One ``child.py`` process: its report, plus its set-up time."""
    args = [f"--{name}={value}" for name, value in options.items() if value is not None]
    if trace_out is not None:
        args.append(f"--trace-out={trace_out}")
    with Child(tmp, mode, *args) as child:
        child.read()
        report = child.read()
        report["setup_s"] = child.ready_s
        child.close()
    return report


def _diagnostics(raw: dict, ref_ms: float) -> dict:
    diagnostics = {"host.ref_loop_ms": ref_ms}
    diagnostics.update(
        (f"host.raw.{name}", value) for name, value in raw.items() if name != "peak_rss_mib"
    )
    return diagnostics


def _traced(trace_out: Path, diagnostics: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of a traced process, with the tracing overhead
    measured against the same work untraced."""
    metrics = layers.per_layer_metrics(json.loads(trace_out.read_text()))
    metrics.update(diagnostics)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["trace.wall_s"] = traced_s
    return metrics


def _sampled_child(tmp: Path, cpu: int, trace_out=None, **options) -> dict:
    """One campaign child pinned to ``cpu``, with the reference passes a
    :class:`hostspeed.Sampler` timed on that CPU while it ran."""
    with hostspeed.Sampler(cpu) as sampler:
        report = _run_child(tmp, "campaign", trace_out, cpu=cpu, **options)
    report["passes"] = sampler.passes
    report["ref_ms"] = hostspeed.run_reference_ms(sampler.passes)
    return report


def _campaign_metrics(reports: list[dict], factor) -> dict:
    """End-to-end metrics of campaign reports, each report's times
    multiplied by ``factor(report)``."""
    setups = [r["setup_s"] * factor(r) for r in reports]
    sweeps_ms = [r["sweep_s"] * 1000.0 * factor(r) for r in reports]
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": reports[0]["pairs"] * len(sweeps_ms) * 1000.0 / sum(sweeps_ms),
        "latency_p50_ms": statistics.median(sweeps_ms),
        # The slowest campaign stands in for the tail: a run holds only a few.
        "latency_tail_ms": max(sweeps_ms),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reports),
    }


def campaign(seed: int, seconds: float, trace: bool, tmp: Path, configs: int = 45) -> Outcome:
    """Cold 61x45 sweeps, each one ``Study.run(all_configurations())``
    in-process in a fresh child, ``seconds / CAMPAIGN_NOMINAL_S`` times.
    Each campaign's times are scaled by the passes timed on its own CPU
    while it ran."""
    cpu = hostspeed.measured_cpu()
    if trace:
        # The same campaign untraced, then traced: the pair gives the
        # tracing overhead.
        reports = [_sampled_child(tmp, cpu, seed=seed, index=0, configs=configs)]
        trace_out = tmp / "campaign-trace.json"
        traced = _sampled_child(tmp, cpu, trace_out, seed=seed, index=0, configs=configs)
    else:
        reports = [
            _sampled_child(tmp, cpu, seed=seed, index=index, configs=configs)
            for index in range(samples(seconds, CAMPAIGN_NOMINAL_S))
        ]
    raw = _campaign_metrics(reports, lambda r: 1.0)
    ref_ms = hostspeed.run_reference_ms([p for r in reports for p in r["passes"]])
    diagnostics = _diagnostics(raw, ref_ms)
    attempted = sum(r["pairs"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if not trace:
        scaled = _campaign_metrics(
            reports,
            lambda r: hostspeed.scale(1.0, r["ref_ms"], hostspeed.REF_SHARED_NOMINAL_MS),
        )
        return Outcome(scaled, diagnostics, attempted, failed)
    metrics = _traced(trace_out, diagnostics, traced["sweep_s"], reports[0]["sweep_s"])
    return Outcome(metrics, diagnostics, attempted + traced["pairs"], failed + traced["failed"])


# -- serve ---------------------------------------------------------------------

_SERVING = re.compile(r"serving on http://([^:/\s]+):(\d+)")


class Server:
    """``repro --jobs 2 serve`` with a file-backed store, started through
    ``serve_launcher.py``; set-up runs from spawn to the first 200 on
    ``/healthz``."""

    def __init__(self, tmp: Path, name: str, trace_out: Optional[Path] = None) -> None:
        self._log = tmp / f"{name}.err"
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += [
            "--", "--jobs", "2", "serve", "--port", "0",
            "--store", str(tmp / f"{name}.sqlite"),
        ]
        started = time.perf_counter()
        with open(self._log, "w") as err:
            self.proc = subprocess.Popen(
                command,
                stdout=subprocess.DEVNULL,
                stderr=err,
                cwd=ROOT,
                env=child_env(),
            )
        try:
            self.host, self.port = self._wait_for_port()
            while self.get("/healthz")[0] != 200:
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_for_port(self) -> tuple[str, int]:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _SERVING.search(self._log.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchmarkError("server did not start: " + self._log.read_text()[-2000:])

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get(self, path: str):
        try:
            return self.request("GET", path)
        except ConnectionError:
            return 0, b""

    def peak_rss_mib(self) -> float:
        """The server process's own high-water RSS (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """SIGTERM: the server drains, closes its pool, and exits."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchmarkError("server did not drain")
        if code != 0:
            raise BenchmarkError(
                f"server exited with {code}: " + self._log.read_text()[-2000:]
            )

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@dataclass
class _Call:
    kind: str  # "new", "repeat" or "results"
    key: str  # the pair key; for "results", a pair served earlier
    status: int
    body: bytes
    seconds: float


class LoadGenerator:
    """A closed loop of ``CLIENTS`` client threads; each sends its next
    request only after the previous one completed.  The pair order and
    every client's choices derive from ``seed``."""

    def __init__(self, server: Server, seed: str, pairs: list[str]) -> None:
        self._server = server
        order = list(pairs)
        random.Random(f"serve/{seed}").shuffle(order)
        self._fresh = iter(order)
        self._served: list[str] = []
        self._rngs = [random.Random(f"serve/{seed}/client{i}") for i in range(CLIENTS)]
        self._lock = threading.Lock()
        self.calls: list[_Call] = []

    def _next(self, rng: random.Random) -> tuple[str, str]:
        roll = rng.random()
        with self._lock:
            if roll >= MIX_NEW + MIX_REPEAT and self._served:
                # The listing of the served pair's benchmark, which must
                # hold that pair.
                return "results", rng.choice(self._served)
            if roll >= MIX_NEW and self._served:
                return "repeat", rng.choice(self._served)
            key = next(self._fresh, None)
            if key is None:
                return "repeat", rng.choice(self._served)
            return "new", key

    def _client(self, index: int, requests: int) -> None:
        rng = self._rngs[index]
        for _ in range(requests):
            kind, key = self._next(rng)
            config, benchmark = key.split("::")
            started = time.perf_counter()
            if kind == "results":
                status, body = self._server.request("GET", f"/results?benchmark={benchmark}")
            else:
                payload = json.dumps({"config": config, "benchmark": benchmark})
                status, body = self._server.request("POST", "/measure", payload.encode())
            elapsed = time.perf_counter() - started
            with self._lock:
                self.calls.append(_Call(kind, key, status, body, elapsed))
                if kind == "new" and status == 200:
                    self._served.append(key)

    def run(self, requests: int) -> float:
        """Send ``requests`` requests per client; returns the wall time."""
        threads = [
            threading.Thread(target=self._client, args=(i, requests))
            for i in range(CLIENTS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(LOAD_SWITCH_INTERVAL_S)
        try:
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return time.perf_counter() - started
        finally:
            sys.setswitchinterval(interval)


def wrong_calls(calls: list[_Call]) -> int:
    """Calls that failed or answered other bytes than the sequential
    ``Study`` records pinned in ``expected.json``."""
    expected = checks.load_expected()["records"]
    return sum(1 for call in calls if not _call_ok(call, expected))


def _call_ok(call: _Call, expected: dict[str, str]) -> bool:
    if call.status != 200:
        return False
    if call.kind != "results":
        return expected.get(call.key) == checks.record_digest(call.body)
    # A listing is right when every record it holds is, and it holds the
    # pair served before it was asked for: a lost store write shows.
    benchmark = call.key.split("::")[1]
    payload = json.loads(call.body)
    records = payload["results"]
    listed = {checks.pair_key(r["configuration"], r["benchmark"]) for r in records}
    return (
        payload["count"] == len(records)
        and call.key in listed
        and all(record["benchmark"] == benchmark for record in records)
        and not checks.wrong_records(records, expected)
    )


def _serve_round(
    tmp: Path, seed: int, index: int, requests: int, passes: list[float], trace_out=None
) -> dict:
    """One fresh server and store, ``requests`` requests in
    ``ROUND_PAUSES + 1`` stretches with a reference block after each,
    then a drain.  Each stretch records the share of CPU time stolen
    from the VM while it ran."""
    pairs = list(checks.load_expected()["records"])
    server = Server(tmp, f"round{index}-{time.monotonic_ns()}", trace_out)
    try:
        load = LoadGenerator(server, f"{seed}/{index}", pairs)
        stretches = []
        for _ in range(ROUND_PAUSES + 1):
            done = len(load.calls)
            ticks = hostspeed.cpu_ticks()
            elapsed = load.run(requests // CLIENTS // (ROUND_PAUSES + 1))
            steal = hostspeed.steal_share(ticks, hostspeed.cpu_ticks())
            passes += hostspeed.reference_block()
            stretches.append({"calls": load.calls[done:], "elapsed": elapsed, "steal": steal})
        rss = server.peak_rss_mib()
    except BaseException:
        server.kill()
        raise
    server.stop()
    return {"setup_s": server.setup_s, "calls": load.calls, "stretches": stretches, "rss": rss}


def _serve_metrics(rounds: list[dict], factor) -> dict:
    """End-to-end metrics of `serve` rounds, each stretch's times (and a
    round's set-up, with its first stretch's) multiplied by
    ``factor(stretch)``."""
    stretches = [stretch for r in rounds for stretch in r["stretches"]]
    latencies = [
        call.seconds * 1000.0 * factor(stretch)
        for stretch in stretches
        for call in stretch["calls"]
    ]
    elapsed = sum(stretch["elapsed"] * factor(stretch) for stretch in stretches)
    return {
        "setup_s": statistics.median(r["setup_s"] * factor(r["stretches"][0]) for r in rounds),
        "throughput_per_s": len(latencies) / elapsed,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies, SERVE_TAIL_PERCENTILE),
        "peak_rss_mib": statistics.median(r["rss"] for r in rounds),
    }


def serve(
    seed: int, seconds: float, trace: bool, tmp: Path, requests: int = ROUND_REQUESTS
) -> Outcome:
    """Closed-loop HTTP traffic against ``repro serve --jobs 2``: about
    60% new pairs, 25% repeats, and 15% ``GET /results`` reads, in
    ``seconds / ROUND_NOMINAL_S`` rounds of ``requests`` against fresh
    servers."""
    passes = hostspeed.reference_block()
    if trace:
        # The same round untraced, then traced: the tracing overhead.
        rounds = [_serve_round(tmp, seed, 0, requests, passes)]
        trace_out = tmp / "serve-trace.json"
        traced = _serve_round(tmp, seed, 0, requests, passes, trace_out)
    else:
        rounds = [
            _serve_round(tmp, seed, index, requests, passes)
            for index in range(samples(seconds, ROUND_NOMINAL_S))
        ]
    raw = _serve_metrics(rounds, lambda stretch: 1.0)
    ref_ms = hostspeed.run_reference_ms(passes)
    diagnostics = _diagnostics(raw, ref_ms)
    diagnostics["host.steal_share"] = statistics.fmean(
        stretch["steal"] for r in rounds for stretch in r["stretches"]
    )
    calls = [call for r in rounds for call in r["calls"]]
    if not trace:
        # The loop gives the host's CPU speed over the run; steal, the
        # time the hypervisor took from each stretch.
        speed = hostspeed.scale(1.0, ref_ms)
        scaled = _serve_metrics(
            rounds, lambda stretch: hostspeed.steal_scale(speed, stretch["steal"])
        )
        return Outcome(scaled, diagnostics, len(calls), wrong_calls(calls))
    per_layer = _traced(
        trace_out,
        diagnostics,
        sum(stretch["elapsed"] for stretch in traced["stretches"]),
        sum(stretch["elapsed"] for stretch in rounds[0]["stretches"]),
    )
    all_calls = calls + traced["calls"]
    return Outcome(per_layer, diagnostics, len(all_calls), wrong_calls(all_calls))


WORKLOADS = {"campaign": campaign, "serve": serve}
