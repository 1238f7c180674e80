"""Unit tests for SLO parsing, quantile estimation, and budget math."""

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.slo import (
    STAGE_SECONDS,
    SloConfig,
    parse_slo,
    quantile_summary,
    slo_report,
)


class TestParseSlo:
    def test_full_spec(self):
        config = parse_slo("p99=250ms,p50=1000us,avail=99.9")
        assert config.latency["p99"] == pytest.approx(0.25)
        assert config.latency["p50"] == pytest.approx(0.001)
        assert config.availability == pytest.approx(0.999)

    def test_bare_numbers_are_seconds_and_fractions_pass_through(self):
        config = parse_slo("p95=2, avail=0.95")
        assert config.latency["p95"] == pytest.approx(2.0)
        assert config.availability == pytest.approx(0.95)

    @pytest.mark.parametrize(
        "spec",
        [
            "p99",  # no value
            "p42=1ms",  # unknown quantile
            "p99=-5ms",  # negative
            "avail=0",  # out of range
            "avail=banana",
            "latency=1s",  # unknown key
        ],
    )
    def test_malformed_specs_raise_with_the_clause(self, spec):
        with pytest.raises(ValueError) as excinfo:
            parse_slo(spec)
        assert spec.split(",")[0] in str(excinfo.value)

    def test_as_dict_is_json_ready(self):
        config = parse_slo("p99=250ms")
        assert config.as_dict() == {
            "latency": {"p99": 0.25},
            "availability": None,
        }


class TestQuantileSummary:
    def test_summary_keys_and_monotonicity(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "test")
        for value in (0.01, 0.02, 0.05, 0.1, 0.5, 1.0):
            histogram.observe(value)
        summary = quantile_summary(histogram)
        assert summary["count"] == 6
        assert 0 < summary["p50_s"] <= summary["p95_s"] <= summary["p99_s"]


def _loaded_registry(status_counts, latencies_by_route=None):
    """A private registry with the instruments slo_report reads."""
    registry = MetricsRegistry()
    requests = registry.counter("repro_service_requests_total", "t")
    for (route, status), count in status_counts.items():
        requests.labels(route=route, status=status).inc(count)
    request_seconds = registry.histogram("repro_http_request_seconds", "t")
    for route, samples in (latencies_by_route or {}).items():
        child = request_seconds.labels(route=route)
        for sample in samples:
            child.observe(sample)
    return registry


class TestSloReport:
    def test_availability_and_error_budget_math(self):
        # 95 OK + 4 client errors + 1 server error: only the 5xx counts
        # against availability -> 99% observed.
        registry = _loaded_registry(
            {
                ("/measure", "200"): 95,
                ("/measure", "400"): 4,
                ("/measure", "500"): 1,
            }
        )
        report = slo_report(parse_slo("avail=99.5"), registry=registry)
        availability = report["availability"]
        assert availability["requests"] == 100
        assert availability["errors"] == 1
        assert availability["observed"] == pytest.approx(0.99)
        budget = availability["error_budget"]
        # target 99.5% allows 0.5% errors; a 1% error rate burns 2x.
        assert budget["allowed_fraction"] == pytest.approx(0.005)
        assert budget["consumed"] == pytest.approx(2.0)
        assert budget["burn_rate"] == pytest.approx(2.0)
        assert any(v.startswith("availability:") for v in report["violations"])
        assert report["ok"] is False

    def test_within_budget_is_ok(self):
        registry = _loaded_registry(
            {("/measure", "200"): 999, ("/measure", "500"): 1}
        )
        report = slo_report(parse_slo("avail=99.5"), registry=registry)
        budget = report["availability"]["error_budget"]
        assert budget["consumed"] == pytest.approx(0.2)
        assert report["violations"] == []
        assert report["ok"] is True

    def test_perfect_target_has_no_budget_and_any_error_violates(self):
        registry = _loaded_registry(
            {("/measure", "200"): 9, ("/measure", "503"): 1}
        )
        report = slo_report(parse_slo("avail=1.0"), registry=registry)
        assert report["availability"]["error_budget"] is None
        assert report["ok"] is False

    def test_latency_violations_per_route(self):
        registry = _loaded_registry(
            {},
            latencies_by_route={
                "/measure": [0.4] * 20,  # p99 well above 250ms
                "/healthz": [0.001] * 20,
            },
        )
        report = slo_report(parse_slo("p99=250ms"), registry=registry)
        assert report["routes"]["/measure"]["violating"] == ["p99"]
        assert report["routes"]["/healthz"]["violating"] == []
        assert "/measure:p99" in report["violations"]

    def test_no_config_reports_observations_only(self):
        registry = _loaded_registry({("/measure", "500"): 5})
        report = slo_report(None, registry=registry)
        assert report["config"] is None
        assert report["availability"]["target"] is None
        assert "error_budget" not in report["availability"]
        assert report["ok"] is True

    def test_no_traffic_is_fully_available(self):
        report = slo_report(
            SloConfig(availability=0.999), registry=MetricsRegistry()
        )
        assert report["availability"]["observed"] == 1.0
        assert report["availability"]["error_budget"]["consumed"] == 0.0
        assert report["ok"] is True


class TestStageBuckets:
    def test_sub_millisecond_stage_reads_inside_its_bucket(self):
        """A 200 us stage's p50 lies in the (100, 250] us bucket, not at
        the 0.5 ms midpoint of a first bucket that ends at 1 ms."""
        child = MetricsRegistry().histogram(
            "stage_seconds", buckets=STAGE_SECONDS.buckets
        ).labels(stage="store")
        child.observe(200e-6)
        assert 100e-6 < child.quantile(0.5) <= 250e-6

    def test_default_buckets_continue_from_one_millisecond(self):
        assert min(STAGE_SECONDS.buckets) == 1e-5
        assert STAGE_SECONDS.buckets[-len(DEFAULT_BUCKETS):] == DEFAULT_BUCKETS
        assert DEFAULT_BUCKETS[0] == 0.001
