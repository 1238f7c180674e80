"""Unit tests for the study harness."""

import io
import json

import pytest

from repro.core.normalization import References
from repro.core.study import Study
from repro.execution import kernels
from repro.execution.engine import ExecutionEngine
from repro.execution.kernels import kernel_stats
from repro.faults import injector
from repro.faults.errors import RetriesExhausted
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.obs.metrics import default_registry
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
        assert study.ledger.is_cached(benchmark("db"), config)
        study.ledger.clear_cache()
        assert not study.ledger.is_cached(benchmark("db"), config)
        assert study.measure(benchmark("db"), config) is not first


class TestMeasurePurity:
    def test_identical_result_after_cache_eviction(self, references):
        """measure is pure: same inputs reproduce the identical RunResult
        even after eviction (re-measurement, not a stale copy)."""
        study = Study(references=references, invocation_scale=0.2)
        config = stock(CORE_I7_45)
        for name in ("db", "mcf"):
            first = study.measure(benchmark(name), config)
            study.ledger.clear_cache()
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


class TestMeasureInsideASweep:
    """``Study.measure`` called mid-sweep — here from a progress callback
    — is a one-pair sweep of its own: the pair is cached, appended to the
    checkpoint and counted, and a pair that fails raises."""

    OUTER = ("db", "mcf")

    class Nesting(ProgressReporter):
        """Measures ``pair`` on ``study`` from its first tick, once."""

        def __init__(self):
            super().__init__(stream=io.StringIO())
            self.study = self.pair = self.result = self.error = None

        def advance(self, n=1):
            super().advance(n)
            study, self.study = self.study, None
            if study is not None:
                try:
                    self.result = study.measure(*self.pair)
                except RetriesExhausted as exc:
                    self.error = exc

    def _sweep(self, references, tmp_path, nested):
        """Sweep OUTER in-process while the callback measures ``nested``;
        returns the study, the callback, the sweep's results, the cache
        misses it counted and the checkpoint's benchmark names."""
        config = stock(ATOM_45)
        progress = self.Nesting()
        checkpoint = tmp_path / "sweep.jsonl"
        study = Study(
            references=references, invocation_scale=0.2, progress=progress,
            checkpoint_path=checkpoint,
        )
        progress.study, progress.pair = study, (benchmark(nested), config)
        misses = default_registry().get("repro_study_cache_misses_total")
        before = misses.value
        results = study.run((config,), [benchmark(name) for name in self.OUTER])
        names = [
            json.loads(line)["benchmark"]
            for line in checkpoint.read_text().splitlines()
        ]
        return study, progress, results, misses.value - before, names

    def test_nested_pair_is_cached_checkpointed_and_counted(
        self, references, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(injector, "_ACTIVE", None)
        study, progress, results, misses, names = self._sweep(
            references, tmp_path, "vips"
        )
        assert progress.error is None
        assert study.ledger.is_cached(benchmark("vips"), stock(ATOM_45))
        assert study.measure(benchmark("vips"), stock(ATOM_45)) is progress.result
        assert sorted(names) == ["db", "mcf", "vips"]
        assert misses == 3
        assert [r.benchmark_name for r in results] == list(self.OUTER)
        assert results.health.measured_pairs == 2

    def test_nested_pair_that_fails_raises(self, references, tmp_path, monkeypatch):
        monkeypatch.setattr(injector, "_ACTIVE", None)
        plan = FaultPlan(specs=(FaultSpec(
            kind="invocation.crash",
            probability=1.0,
            scope=f"{stock(ATOM_45).key}/bzip2/*",
        ),))
        with injected(plan):
            study, progress, results, misses, names = self._sweep(
                references, tmp_path, "bzip2"
            )
        assert isinstance(progress.error, RetriesExhausted)
        assert progress.result is None
        assert study.ledger.is_quarantined(benchmark("bzip2"), stock(ATOM_45))
        assert sorted(names) == ["db", "mcf"]
        assert misses == 3
        assert [r.benchmark_name for r in results] == list(self.OUTER)


class TestKernelCounterParity:
    """A sweep compiles its pairs' kernels up front, to prime their
    seeding in one batch, and replays them when it measures; each
    measured pair must still call ``compile_pair`` exactly once, so the
    kernel counters move as if every pair compiled on its own."""

    COMPILED = ("db", "mcf", "vips", "eclipse")
    ARMED = "bzip2"  # a fault plan reaches its sites: scalar path
    DECLINED = "lusearch"  # the compiler declines its plan: scalar path

    @pytest.fixture()
    def spied(self, monkeypatch):
        """Disarm any session-wide plan, and count every compile_pair
        call per benchmark, declining the DECLINED pair's plan."""
        monkeypatch.setattr(injector, "_ACTIVE", None)
        real = kernels.compile_pair
        calls: list[str] = []

        def compile_pair(engine, meter, bench, config, protocol, invocations):
            calls.append(bench.name)
            if bench.name == self.DECLINED:
                kernels.note_fallback("shape")
                return None
            return real(engine, meter, bench, config, protocol, invocations)

        monkeypatch.setattr(kernels, "compile_pair", compile_pair)
        return calls

    def _sweep(self, jobs):
        """One cold sweep (a fresh engine compiles every kernel anew);
        returns the kernel counters' movement.  A ``jobs`` sweep must
        reach the pool, which the kept-alive pool's snapshot shows."""
        config = stock(CORE_I7_45)
        names = self.COMPILED + (self.ARMED, self.DECLINED)
        pairs = [(benchmark(name), config) for name in names]
        armed = FaultPlan(specs=(FaultSpec(
            kind="invocation.crash",
            probability=1e-12,
            scope=f"{config.key}/{self.ARMED}/*",
        ),))
        study = Study(
            references=References(ExecutionEngine()),
            invocation_scale=0.2,
            vectorize=True,
            reuse_pool=True,
        )
        before = kernel_stats()
        try:
            with injected(armed):
                results = study.run_pairs(pairs + pairs[:2], jobs=jobs)
            assert (study.fleet_snapshot() is not None) == (jobs is not None)
        finally:
            study.close_pool()
        after = kernel_stats()
        assert len(results) == len(pairs) + 2
        assert not results.health.quarantined

        def moved(reason):
            fallbacks = after["fallbacks"], before["fallbacks"]
            return fallbacks[0].get(reason, 0) - fallbacks[1].get(reason, 0)

        return {
            "compiles": after["compiles"] - before["compiles"],
            "faults": moved("faults"),
            "shape": moved("shape"),
        }

    #: Each compiled pair compiles once; the armed and the declined pair
    #: each count one fallback.
    EXPECTED = {"compiles": len(COMPILED), "faults": 1, "shape": 1}

    def test_in_process_sweep_compiles_each_pair_once(self, spied):
        assert self._sweep(jobs=None) == self.EXPECTED
        assert sorted(spied) == sorted(self.COMPILED + (self.DECLINED,))

    def test_pool_sweep_moves_the_counters_identically(self, spied):
        assert self._sweep(jobs=1) == self._sweep(jobs=None) == self.EXPECTED
