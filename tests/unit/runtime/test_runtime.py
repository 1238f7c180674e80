"""Unit tests for the JVM substrate: heap, JIT, GC, placement, protocol."""

import pytest

from repro.hardware.catalog import ATOM_45, CORE_I7_45, PENTIUM4_130
from repro.hardware.config import Configuration, stock
from repro.runtime.gc import collector_load, displacement_factor
from repro.runtime.heap import HeapPolicy, PAPER_HEAP_FACTOR
from repro.runtime.jit import DEFAULT_WARMUP, JitWarmup
from repro.runtime.jvm import ServicePlacement, plan
from repro.runtime.methodology import (
    JAVA_INVOCATIONS,
    STEADY_STATE_ITERATION,
    protocol_for,
)
from repro.workloads.catalog import benchmark


class TestHeap:
    def test_paper_heap_is_neutral(self):
        assert HeapPolicy().gc_load_scale() == pytest.approx(1.0)

    def test_tighter_heap_collects_more(self):
        assert HeapPolicy(2.0).gc_load_scale() > 1.0

    def test_looser_heap_collects_less(self):
        assert HeapPolicy(6.0).gc_load_scale() < 1.0

    def test_heap_must_exceed_live_set(self):
        with pytest.raises(ValueError):
            HeapPolicy(1.0)

    def test_paper_factor_is_three(self):
        assert PAPER_HEAP_FACTOR == 3.0


class TestJit:
    def test_first_iteration_slowest(self):
        overheads = [DEFAULT_WARMUP.overhead_at(i) for i in range(1, 8)]
        assert overheads == sorted(overheads, reverse=True)

    def test_settles_at_iteration_five(self):
        """The model justifies the paper's fifth-iteration methodology:
        the fifth is the first iteration whose transient is under 1 %."""
        def transient(iteration):
            return DEFAULT_WARMUP.overhead_at(iteration) - 1.0 - DEFAULT_WARMUP.steady_residue

        assert transient(STEADY_STATE_ITERATION) <= 0.01 < transient(STEADY_STATE_ITERATION - 1)

    def test_steady_residue_persists(self):
        assert DEFAULT_WARMUP.overhead_at(50) > 1.0

    def test_iterations_one_based(self):
        with pytest.raises(ValueError):
            DEFAULT_WARMUP.overhead_at(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            JitWarmup(decay=1.0)
        with pytest.raises(ValueError):
            JitWarmup(first_iteration_overhead=-1.0)


class TestCollector:
    def test_load_at_paper_heap_matches_signature(self):
        jvm = benchmark("db").jvm
        load = collector_load(jvm)
        assert load.work_fraction == pytest.approx(jvm.service_fraction)

    def test_tight_heap_raises_only_gc_share(self):
        jvm = benchmark("db").jvm
        tight = collector_load(jvm, HeapPolicy(1.5))
        assert tight.work_fraction > jvm.service_fraction
        # JIT share is heap-insensitive, so scale is less than pure 1/(h-1).
        assert tight.work_fraction < jvm.service_fraction * 4.0

    def test_displacement_relief_interpolates(self):
        jvm = benchmark("db").jvm
        full = displacement_factor(jvm, relief=0.0)
        none = displacement_factor(jvm, relief=1.0)
        half = displacement_factor(jvm, relief=0.5)
        assert full == jvm.displacement_mpki_factor
        assert none == pytest.approx(1.0)
        assert none < half < full

    def test_relief_bounds(self):
        with pytest.raises(ValueError):
            displacement_factor(benchmark("db").jvm, relief=1.5)


class TestPlacement:
    def test_spare_core_on_multicore(self):
        resolved = plan(benchmark("db"), stock(CORE_I7_45))
        assert resolved.placement is ServicePlacement.SPARE_CORE
        assert resolved.displacement == pytest.approx(1.0)
        assert resolved.sibling_friction == 0.0

    def test_colocated_on_single_context(self):
        resolved = plan(benchmark("db"), Configuration(CORE_I7_45, 1, 1, 2.66))
        assert resolved.placement is ServicePlacement.COLOCATED
        assert resolved.displacement == benchmark("db").jvm.displacement_mpki_factor
        assert resolved.serial_service == pytest.approx(
            resolved.load.work_fraction
        )

    def test_smt_sibling_on_single_core_smt(self):
        resolved = plan(benchmark("db"), stock(ATOM_45))
        assert resolved.placement is ServicePlacement.SMT_SIBLING
        assert 1.0 < resolved.displacement < benchmark("db").jvm.displacement_mpki_factor
        assert resolved.sibling_friction > 0.0

    def test_netburst_sibling_friction_largest(self):
        """Workload Finding 2's mechanism: trace-cache pressure."""
        p4 = plan(benchmark("db"), stock(PENTIUM4_130))
        atom = plan(benchmark("db"), stock(ATOM_45))
        assert p4.sibling_friction > atom.sibling_friction

    def test_fully_threaded_app_parallel_collector(self):
        """Scalable Java saturating every context: the parallel collector
        rides the app's parallelism rather than serialising fully."""
        resolved = plan(benchmark("xalan"), stock(CORE_I7_45))
        assert resolved.placement is ServicePlacement.COLOCATED
        assert resolved.serial_service < resolved.load.work_fraction
        assert resolved.overlapped_service == 0.0

    def test_native_benchmark_rejected(self):
        with pytest.raises(ValueError):
            plan(benchmark("mcf"), stock(CORE_I7_45))

    def test_app_threads_clipped_to_contexts(self):
        resolved = plan(benchmark("pjbb2005"), Configuration(CORE_I7_45, 2, 1, 2.66))
        assert resolved.app_threads == 2


class TestProtocol:
    def test_java_protocol(self):
        protocol = protocol_for(benchmark("db"))
        assert protocol.invocations == JAVA_INVOCATIONS == 20
        assert protocol.iteration == STEADY_STATE_ITERATION == 5

    def test_spec_protocol(self):
        protocol = protocol_for(benchmark("mcf"))
        assert protocol.invocations == 3
        assert protocol.iteration == 1

    def test_parsec_protocol(self):
        protocol = protocol_for(benchmark("vips"))
        assert protocol.invocations == 5
