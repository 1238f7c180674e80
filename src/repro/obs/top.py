"""``repro top``: a live ASCII ops view over a running campaign server.

Polls ``/healthz``, ``/slo``, and ``/metrics`` (the Prometheus text is
re-parsed with :func:`repro.obs.export.parse_prometheus` — no external
stack needed) and renders one self-contained frame: service state and
throughput counters, cache hit rate, the in-flight job table, per-stage
and per-route latency quantiles, and error-budget burn.

Rendering is a pure function of the three payloads
(:func:`render_top`), so the screen logic is testable without a server;
:func:`run_top` owns the polling loop and terminal clearing.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Mapping, Optional, TextIO

from repro.obs.export import parse_prometheus

#: ANSI "clear screen, cursor home" — plain strings so tests can strip it.
CLEAR = "\x1b[2J\x1b[H"

_POLL_TIMEOUT_S = 10.0


def _fetch(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=_POLL_TIMEOUT_S) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        # A draining server answers /healthz with 503 + a JSON body; that
        # is a frame to render, not a failure.
        return error.code, error.read()


def poll(base_url: str) -> dict[str, object]:
    """One scrape of the three ops endpoints, as parsed payloads."""
    base = base_url.rstrip("/")
    _, health_raw = _fetch(base + "/healthz")
    _, slo_raw = _fetch(base + "/slo")
    _, metrics_raw = _fetch(base + "/metrics")
    return {
        "health": json.loads(health_raw),
        "slo": json.loads(slo_raw),
        "metrics": parse_prometheus(metrics_raw.decode("utf-8")),
    }


def _metric_total(
    metrics: Mapping[str, Mapping[tuple, float]], name: str
) -> float:
    return sum((metrics.get(name) or {}).values())


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = round(fraction * width)
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _quantile_row(name: str, summary: Mapping[str, object]) -> str:
    return (
        f"  {name:<12} {summary.get('count', 0):>6}  "
        f"p50 {float(summary.get('p50_s', 0.0)) * 1e3:>8.1f}ms  "
        f"p95 {float(summary.get('p95_s', 0.0)) * 1e3:>8.1f}ms  "
        f"p99 {float(summary.get('p99_s', 0.0)) * 1e3:>8.1f}ms"
    )


def render_top(
    health: Mapping[str, object],
    slo: Mapping[str, object],
    metrics: Mapping[str, Mapping[tuple, float]],
) -> str:
    """One dashboard frame from the three payloads (no trailing clear)."""
    lines: list[str] = []
    status = str(health.get("status", "?"))
    lines.append(
        f"repro top — {status.upper():<8} "
        f"up {float(health.get('uptime_s', 0.0)):.0f}s  "
        f"pending {health.get('pending_jobs', 0)}  "
        f"completed {health.get('completed', 0)}  "
        f"coalesced {health.get('coalesced', 0)}  "
        f"rejected {health.get('rejected', 0)}  "
        f"failed {health.get('failed', 0)}"
    )

    hits = _metric_total(metrics, "repro_study_cache_hits_total")
    misses = _metric_total(metrics, "repro_study_cache_misses_total")
    looked_up = hits + misses
    hit_rate = hits / looked_up if looked_up else 0.0
    lines.append(
        f"cache {_bar(hit_rate)} {hit_rate * 100:5.1f}% hit "
        f"({int(hits)}/{int(looked_up)})  "
        f"store {health.get('store_records', 0)} records  "
        f"quarantined {health.get('quarantined', 0)}"
    )

    # Compiled sweep kernels — absent on pre-kernel servers, so degrade
    # to nothing rather than crash.
    kernels = health.get("kernels")
    if isinstance(kernels, Mapping):
        fallbacks = kernels.get("fallbacks")
        fallback_total = (
            sum(int(v) for v in fallbacks.values())
            if isinstance(fallbacks, Mapping)
            else 0
        )
        lines.append(
            f"kernels: {kernels.get('compiles', 0)} compiled  "
            f"{kernels.get('cache_hits', 0)} hits  "
            f"{fallback_total} scalar fallbacks  "
            f"{float(kernels.get('cache_bytes') or 0) / 1024.0:.1f} KiB cached "
            "(kernels + draws)"
        )

    availability = slo.get("availability") or {}
    budget = availability.get("error_budget") if isinstance(availability, Mapping) else None
    if isinstance(budget, Mapping):
        consumed = float(budget.get("consumed", 0.0))
        lines.append(
            f"error budget {_bar(consumed)} {consumed * 100:5.1f}% consumed  "
            f"burn x{float(budget.get('burn_rate', 0.0)):.2f}  "
            f"availability {float(availability.get('observed', 1.0)) * 100:.3f}%"
            f" (target {float(availability.get('target') or 0.0) * 100:.3f}%)"
        )
    else:
        lines.append(
            f"availability {float(availability.get('observed', 1.0)) * 100:.3f}%"
            f"  requests {availability.get('requests', 0)}"
            f"  errors {availability.get('errors', 0)}"
            + ("" if slo.get("config") else "  (no SLO configured)")
        )
    violations = slo.get("violations") or []
    if violations:
        lines.append("SLO VIOLATIONS: " + ", ".join(str(v) for v in violations))

    # Fleet worker table — absent on pre-fleet servers and ``null`` on
    # in-process servers, so degrade to nothing rather than crash.
    fleet = health.get("fleet")
    if isinstance(fleet, Mapping):
        workers = fleet.get("workers")
        restarts = _metric_total(metrics, "repro_fleet_worker_restarts_total")
        requeues = _metric_total(metrics, "repro_fleet_requeues_total")
        lines.append("")
        lines.append(
            f"fleet: {fleet.get('live', '?')}/{fleet.get('size', '?')} "
            f"workers live  restarts {int(restarts) or fleet.get('restarts', 0)}  "
            f"requeues {int(requeues) or fleet.get('requeues', 0)}  "
            f"heartbeat {float(fleet.get('heartbeat_s') or 0.0) * 1e3:.0f}ms "
            f"x{fleet.get('liveness_misses', '?')} misses"
        )
        if isinstance(workers, list) and workers:
            lines.append(
                "  id   pid     state  beats  chunks  heartbeat-age"
            )
            for worker in workers:
                if not isinstance(worker, Mapping):
                    continue
                lines.append(
                    f"  {str(worker.get('id', '?')):<4} "
                    f"{str(worker.get('pid', '?')):<7} "
                    f"{str(worker.get('state', '?')):<6} "
                    f"{worker.get('beats', 0):>5}  "
                    f"{worker.get('chunks_done', 0):>6}  "
                    f"{float(worker.get('heartbeat_age_s') or 0.0):>10.3f}s"
                )

    in_flight = health.get("in_flight") or []
    lines.append("")
    lines.append(f"in-flight jobs ({len(in_flight)}):")
    if in_flight:
        for job in list(in_flight)[:10]:
            lines.append(
                f"  {str(job.get('benchmark', '?')):<14}"
                f" {str(job.get('config', '?')):<28}"
                f" {'[' + str(job.get('plan')) + ']' if job.get('plan') else '':<12}"
                f" {float(job.get('age_s', 0.0)):>7.2f}s"
            )
        if len(in_flight) > 10:
            lines.append(f"  ... and {len(in_flight) - 10} more")
    else:
        lines.append("  (idle)")

    stages = slo.get("stages") or {}
    if stages:
        lines.append("")
        lines.append("stage latency:        count")
        for name in sorted(stages):
            lines.append(_quantile_row(name, stages[name]))

    routes = slo.get("routes") or {}
    if routes:
        lines.append("")
        lines.append("route latency:        count")
        for name in sorted(routes):
            row = _quantile_row(name, routes[name])
            violating = routes[name].get("violating") or []
            if violating:
                row += "  !! " + ",".join(violating)
            lines.append(row)

    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    interval_s: float = 2.0,
    iterations: Optional[int] = None,
    stream: TextIO = sys.stdout,
    clear: bool = True,
) -> int:
    """Poll-and-render until interrupted (or ``iterations`` frames).

    Returns a process exit code: 0 on a clean exit, 3 when the server
    could not be reached at all.
    """
    frames = 0
    while iterations is None or frames < iterations:
        try:
            payloads = poll(url)
        except (OSError, ValueError) as error:
            print(f"repro top: cannot poll {url}: {error}", file=sys.stderr)
            return 3
        frame = render_top(
            payloads["health"], payloads["slo"], payloads["metrics"]  # type: ignore[arg-type]
        )
        if clear and frames:
            stream.write(CLEAR)
        stream.write(frame)
        stream.flush()
        frames += 1
        if iterations is not None and frames >= iterations:
            break
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            break
    return 0
