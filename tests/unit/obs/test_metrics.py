"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import math

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self, registry):
        c = registry.counter("requests_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_children_are_stable(self, registry):
        c = registry.counter("phases_total")
        serial = c.labels(phase="serial")
        serial.inc(3)
        assert c.labels(phase="serial") is serial
        assert c.labels(phase="parallel").value == 0.0
        assert serial.value == 3.0

    def test_reset_zeroes_children_too(self, registry):
        c = registry.counter("phases_total")
        c.inc()
        c.labels(phase="serial").inc(5)
        registry.reset()
        assert c.value == 0.0
        assert c.labels(phase="serial").value == 0.0

    def test_large_increment_batches(self, registry):
        # The hot path batches (e.g. one inc per measure with the
        # invocation count) rather than ticking per unit.
        c = registry.counter("batched_total")
        c.inc(20)
        c.inc(3)
        assert c.value == 23.0


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("in_flight")
        g.set(10)
        g.inc(2)
        g.inc(-5)
        assert g.value == 7.0

    def test_can_go_negative(self, registry):
        g = registry.gauge("delta")
        g.inc(-3)
        assert g.value == -3.0


class TestHistogram:
    def test_observations_land_in_correct_buckets(self, registry):
        h = registry.histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        counts = dict(h.bucket_counts())
        assert counts[0.1] == 1
        assert counts[1.0] == 3  # cumulative
        assert counts[10.0] == 4
        assert counts[math.inf] == 5
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        assert h.mean == pytest.approx(56.05 / 5)

    def test_boundary_is_inclusive(self, registry):
        h = registry.histogram("edges", buckets=(1.0,))
        h.observe(1.0)
        assert dict(h.bucket_counts())[1.0] == 1

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_rejects_empty_or_infinite_buckets(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad_a", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("bad_b", buckets=(1.0, math.inf))

    def test_labelled_children_share_buckets(self, registry):
        h = registry.histogram("latency_seconds", buckets=(0.5, 2.0))
        child = h.labels(machine="atom_45")
        assert isinstance(child, Histogram)
        assert child.buckets == (0.5, 2.0)


class TestTimer:
    def test_context_manager_observes_elapsed(self, registry):
        timer = registry.timed("block_seconds")
        with timer:
            pass
        h = registry.get("block_seconds")
        assert h.count == 1
        assert h.sum >= 0.0

    def test_decorator_observes_each_call(self, registry):
        h = registry.histogram("fn_seconds")
        timed = registry.timed("fn_seconds")

        @timed
        def work(x):
            return x * 2

        assert work(21) == 42
        assert work(1) == 2
        assert h.count == 2


class TestRegistry:
    def test_idempotent_creation(self, registry):
        a = registry.counter("hits_total", "help text")
        b = registry.counter("hits_total")
        assert a is b

    def test_kind_conflict_raises(self, registry):
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("")

    def test_collect_preserves_registration_order(self, registry):
        registry.counter("a_total")
        registry.gauge("b_value")
        assert [m.name for m in registry.collect()] == ["a_total", "b_value"]

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()


class TestGlobalSwitch:
    def test_disabled_instruments_record_nothing(self, registry):
        c = registry.counter("switched_total")
        h = registry.histogram("switched_seconds")
        g = registry.gauge("switched_value")
        metrics.set_enabled(False)
        try:
            c.inc()
            h.observe(1.0)
            g.set(5.0)
        finally:
            metrics.set_enabled(True)
        assert c.value == 0.0
        assert h.count == 0
        assert g.value == 0.0
        c.inc()
        assert c.value == 1.0
