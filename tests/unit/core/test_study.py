"""Unit tests for the study harness."""

import io

import pytest

from repro.core.study import Study
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.obs.progress import ProgressReporter
from repro.runtime.methodology import protocol_for
from repro.workloads.catalog import benchmark
from repro.workloads.synthetic import synthetic


class TestMeasure:
    def test_caches_results(self, study):
        config = stock(ATOM_45)
        first = study.measure(benchmark("db"), config)
        second = study.measure(benchmark("db"), config)
        assert first is second

    def test_result_identity(self, study):
        result = study.measure(benchmark("db"), stock(ATOM_45))
        assert result.benchmark_name == "db"
        assert result.processor_key == "atom_45"
        assert result.seconds > 0
        assert result.watts > 0

    def test_invocation_scale_reduces_runs(self, references):
        quick = Study(references=references, invocation_scale=0.2)
        result = quick.measure(benchmark("db"), stock(ATOM_45))
        paper_invocations = protocol_for(benchmark("db")).invocations
        assert result.invocations == max(1, -(-paper_invocations * 20 // 100))
        assert result.invocations < paper_invocations

    def test_full_protocol_java_invocations(self, full_study):
        result = full_study.measure(benchmark("db"), stock(ATOM_45))
        assert result.invocations == 20

    def test_full_protocol_native_invocations(self, full_study):
        spec = full_study.measure(benchmark("mcf"), stock(ATOM_45))
        parsec = full_study.measure(benchmark("vips"), stock(ATOM_45))
        assert spec.invocations == 3
        assert parsec.invocations == 5

    def test_invalid_scale_rejected(self, references):
        with pytest.raises(ValueError):
            Study(references=references, invocation_scale=0.0)


class TestRun:
    def test_run_config_covers_benchmarks(self, study):
        subset = (benchmark("db"), benchmark("mcf"))
        results = study.run_config(stock(ATOM_45), subset)
        assert {r.benchmark_name for r in results} == {"db", "mcf"}

    def test_run_many_configs(self, study):
        subset = (benchmark("db"),)
        results = study.run((stock(ATOM_45), stock(CORE_I7_45)), subset)
        assert len(results) == 2
        assert set(results.config_keys()) == {
            stock(ATOM_45).key,
            stock(CORE_I7_45).key,
        }


class TestCacheKeying:
    def test_same_name_different_signature_not_conflated(self, references):
        """Regression: the cache keys by benchmark *value*, not name —
        synthetic workloads may share a name while differing entirely."""
        compute = synthetic("svc", boundness=0.05, reference_seconds=10.0)
        memory = synthetic("svc", boundness=0.95, reference_seconds=30.0)
        study = Study(references=references, invocation_scale=0.2)
        config = stock(ATOM_45)
        first = study.measure(compute, config)
        second = study.measure(memory, config)
        assert first.seconds != second.seconds
        # Both stay cached independently.
        assert study.measure(compute, config) is first
        assert study.measure(memory, config) is second

    def test_clear_cache_evicts(self, references):
        study = Study(references=references, invocation_scale=0.2)
        config = stock(ATOM_45)
        first = study.measure(benchmark("db"), config)
        assert study.is_cached(benchmark("db"), config)
        study.clear_cache()
        assert not study.is_cached(benchmark("db"), config)
        assert study.measure(benchmark("db"), config) is not first


class TestMeasurePurity:
    def test_identical_result_after_cache_eviction(self, references):
        """measure is pure: same inputs reproduce the identical RunResult
        even after eviction (re-measurement, not a stale copy)."""
        study = Study(references=references, invocation_scale=0.2)
        config = stock(CORE_I7_45)
        for name in ("db", "mcf"):
            first = study.measure(benchmark(name), config)
            study.clear_cache()
            second = study.measure(benchmark(name), config)
            assert first == second

    def test_run_fast_path_preserves_results(self, references):
        """Cached hits through run() return the very same objects measure
        produced, so the fast path cannot drift from the slow path."""
        study = Study(references=references, invocation_scale=0.2)
        benches = (benchmark("db"), benchmark("mcf"))
        first = study.run((stock(ATOM_45),), benches)
        second = study.run((stock(ATOM_45),), benches)
        assert all(a is b for a, b in zip(first, second))


class TestScaledInvocations:
    def test_planned_matches_performed(self, references):
        study = Study(references=references, invocation_scale=0.2)
        benches = (benchmark("db"), benchmark("vips"))
        configs = (stock(ATOM_45),)
        planned = study.planned_invocations(configs, benches)
        results = study.run(configs, benches)
        assert planned == sum(r.invocations for r in results)
        # A fully cached sweep plans zero new work.
        assert study.planned_invocations(configs, benches) == 0

        # A configuration listed twice is planned, measured and counted
        # on the progress line once.
        progress = ProgressReporter(stream=io.StringIO())
        study = Study(
            references=references, invocation_scale=0.2, progress=progress
        )
        doubled = (stock(CORE_I7_45), stock(CORE_I7_45))
        planned = study.planned_invocations(doubled, benches)
        results = study.run(doubled, benches)
        assert len(results) == 2 * len(benches)
        assert planned == sum(r.invocations for r in results) // 2
        assert progress.total == progress.done == planned


class TestDeterminism:
    def test_two_studies_agree_exactly(self, references):
        a = Study(references=references, invocation_scale=0.2)
        b = Study(references=references, invocation_scale=0.2)
        config = stock(ATOM_45)
        ra = a.measure(benchmark("db"), config)
        rb = b.measure(benchmark("db"), config)
        assert ra.seconds == rb.seconds
        assert ra.watts == rb.watts

    def test_java_runs_vary_between_invocations(self, full_study):
        result = full_study.measure(benchmark("db"), stock(ATOM_45))
        assert result.time_ci.half_width > 0.0
