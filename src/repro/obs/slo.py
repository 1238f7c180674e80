"""SLO monitoring: latency/availability targets, error budgets, burn.

The campaign server accepts a declarative SLO spec
(``--slo p99=250ms,avail=99.9``), records per-route and per-stage
latency into histograms declared here, and serves a ``GET /slo`` report
computed by :func:`slo_report`:

- per-route latency quantiles (p50/p95/p99, estimated from the
  histogram buckets — see :meth:`~repro.obs.metrics.Histogram.quantile`)
  checked against the configured targets;
- availability from the request counter (a response is an *error* only
  when its status is 5xx: 4xx means the caller was wrong, the service
  still did its job).  504 is carved out of the 5xx family: a deadline
  shed means the *client's* budget expired, so it surfaces in the
  ``shed`` block instead of burning the availability error budget;
- the error budget: with availability target ``a``, the budget is the
  fraction ``1 - a`` of requests allowed to fail.  ``consumed`` is the
  fraction of that budget already spent, and ``burn_rate`` is the
  classic multiplier — observed error rate over allowed error rate, so
  1.0 means exactly on target and 10 means the budget disappears ten
  times faster than provisioned.

The stage histogram is shared with the scheduler so queue wait, batch
measurement, and store writes land in one instrument, keyed by a
``stage`` label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.obs.metrics import (
    DEFAULT_BUCKETS, Histogram, MetricsRegistry, default_registry,
)

#: Route-level request latency (seconds), labelled by canonical route.
REQUEST_SECONDS = default_registry().histogram(
    "repro_http_request_seconds",
    "Wall seconds per HTTP request by canonical route",
)

#: Stage-level latency (seconds), labelled by pipeline stage
#: (admission, schedule, batch, store).  Most stages take under 1 ms,
#: so the buckets start at 10 µs and continue as the defaults from 1 ms.
STAGE_SECONDS = default_registry().histogram(
    "repro_service_stage_seconds",
    "Wall seconds per request-pipeline stage",
    buckets=(1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4) + DEFAULT_BUCKETS,
)


def observe_stage(stage: str, seconds: float) -> None:
    """Record one stage latency sample (no-op when metrics are disabled)."""
    STAGE_SECONDS.labels(stage=stage).observe(seconds)


#: Quantile keys the SLO spec accepts, mapped to their numeric rank.
_QUANTILES: dict[str, float] = {"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99}

_DURATION_SUFFIXES: tuple[tuple[str, float], ...] = (
    ("us", 1e-6),
    ("ms", 1e-3),
    ("s", 1.0),
)


def _parse_duration(text: str) -> float:
    text = text.strip().lower()
    for suffix, scale in _DURATION_SUFFIXES:
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * scale
    return float(text)  # bare numbers are seconds


@dataclass(frozen=True)
class SloConfig:
    """Parsed SLO targets: latency quantiles (seconds) and availability."""

    latency: Mapping[str, float] = field(default_factory=dict)
    availability: Optional[float] = None  # fraction in (0, 1]

    def as_dict(self) -> dict[str, object]:
        return {
            "latency": {k: round(v, 9) for k, v in sorted(self.latency.items())},
            "availability": self.availability,
        }


def parse_slo(spec: str) -> SloConfig:
    """Parse ``"p99=250ms,avail=99.9"`` into an :class:`SloConfig`.

    Latency keys are p50/p90/p95/p99 with an optional us/ms/s suffix
    (bare numbers are seconds).  ``avail`` takes a percentage (``99.9``)
    or a fraction (``0.999``).  Raises :class:`ValueError` with the
    offending clause on anything malformed.
    """
    latency: dict[str, float] = {}
    availability: Optional[float] = None
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        key, _, value = clause.partition("=")
        key = key.strip().lower()
        if not value:
            raise ValueError(f"SLO clause {clause!r} is not key=value")
        try:
            if key in _QUANTILES:
                seconds = _parse_duration(value)
                if seconds <= 0:
                    raise ValueError("latency target must be positive")
                latency[key] = seconds
            elif key in ("avail", "availability"):
                target = float(value)
                if target > 1.0:
                    target /= 100.0
                if not 0.0 < target <= 1.0:
                    raise ValueError("availability must be in (0, 100]")
                availability = target
            else:
                raise ValueError(
                    f"unknown SLO key {key!r} "
                    f"(expected {'/'.join(_QUANTILES)} or avail)"
                )
        except ValueError as error:
            raise ValueError(f"bad SLO clause {clause!r}: {error}") from None
    return SloConfig(latency=latency, availability=availability)


def quantile_summary(histogram: Histogram) -> dict[str, object]:
    """count/mean plus the standard quantile estimates for one histogram."""
    return {
        "count": histogram.count,
        "mean_s": round(histogram.mean, 6),
        "p50_s": round(histogram.quantile(0.50), 6),
        "p95_s": round(histogram.quantile(0.95), 6),
        "p99_s": round(histogram.quantile(0.99), 6),
    }


def slo_report(
    config: Optional[SloConfig],
    registry: Optional[MetricsRegistry] = None,
) -> dict[str, object]:
    """The ``GET /slo`` payload: routes, stages, availability, budget.

    Reads the shared instruments from ``registry`` (the process default
    unless given): ``repro_http_request_seconds`` per route,
    ``repro_service_stage_seconds`` per stage, ``repro_measure_seconds``
    and ``repro_service_batch_seconds`` folded in as stages, and
    ``repro_service_requests_total`` for availability.  Works with no
    config (quantiles reported, nothing checked) and with no traffic
    (zero counts, budget untouched).
    """
    registry = registry or default_registry()
    report: dict[str, object] = {
        "config": config.as_dict() if config else None,
        "routes": {},
        "stages": {},
    }

    violations: list[str] = []
    request_seconds = registry.get("repro_http_request_seconds")
    if isinstance(request_seconds, Histogram):
        routes: dict[str, object] = {}
        for child in request_seconds.children():
            if not isinstance(child, Histogram) or child.count == 0:
                continue
            route = child.label_values.get("route", "?")
            summary = quantile_summary(child)
            failing = []
            for key, target in (config.latency if config else {}).items():
                observed = child.quantile(_QUANTILES[key])
                if observed > target:
                    failing.append(key)
                    violations.append(f"{route}:{key}")
            summary["violating"] = sorted(failing)
            routes[route] = summary
        report["routes"] = routes

    stages: dict[str, object] = {}
    stage_seconds = registry.get("repro_service_stage_seconds")
    if isinstance(stage_seconds, Histogram):
        for child in stage_seconds.children():
            if isinstance(child, Histogram) and child.count:
                stage = child.label_values.get("stage", "?")
                stages[stage] = quantile_summary(child)
    for name, stage in (
        ("repro_service_batch_seconds", "batch"),
        ("repro_measure_seconds", "measure"),
    ):
        histogram = registry.get(name)
        if isinstance(histogram, Histogram) and histogram.count and stage not in stages:
            stages[stage] = quantile_summary(histogram)
    report["stages"] = stages

    total = 0.0
    errors = 0.0
    shed_responses = 0.0
    requests_total = registry.get("repro_service_requests_total")
    if requests_total is not None:
        for child in requests_total.children():
            value = getattr(child, "value", 0.0)
            total += value
            status = child.label_values.get("status", "")
            if status == "504":
                # The client's deadline expired before we could serve it;
                # shed work is reported distinctly, not as unavailability.
                shed_responses += value
            elif status.startswith("5"):
                errors += value
    observed_availability = 1.0 - (errors / total) if total else 1.0
    availability: dict[str, object] = {
        "requests": int(total),
        "errors": int(errors),
        "observed": round(observed_availability, 6),
        "target": config.availability if config else None,
    }

    target = config.availability if config else None
    if target is not None and target < 1.0:
        allowed = 1.0 - target
        error_rate = errors / total if total else 0.0
        consumed = error_rate / allowed
        availability["error_budget"] = {
            "allowed_fraction": round(allowed, 6),
            "consumed": round(consumed, 6),
            "remaining": round(1.0 - consumed, 6),
            "burn_rate": round(error_rate / allowed, 6),
        }
        if observed_availability < target:
            violations.append(f"availability:{observed_availability:.6f}")
    elif target is not None:
        # A 100% target has no budget to burn; any error violates it.
        availability["error_budget"] = None
        if errors:
            violations.append("availability:target-is-1.0")

    report["availability"] = availability

    # Load shedding is deliberate, visible work refusal — never folded
    # into the error budget, always its own line in the report.
    shed_stages: dict[str, int] = {}
    shed_total = registry.get("repro_requests_shed_total")
    if shed_total is not None:
        for child in shed_total.children():
            value = getattr(child, "value", 0.0)
            if value:
                stage = child.label_values.get("stage", "?")
                shed_stages[stage] = shed_stages.get(stage, 0) + int(value)
    report["shed"] = {
        "total": sum(shed_stages.values()),
        "stages": dict(sorted(shed_stages.items())),
        "responses_504": int(shed_responses),
    }

    report["violations"] = sorted(violations)
    report["ok"] = not violations
    return report
