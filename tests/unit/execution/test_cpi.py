"""Unit tests for the CPI model."""

import pytest

from repro.core.quantities import Hertz
from repro.execution.cpi import CpiBreakdown, thread_cpi
from repro.hardware.catalog import ATOM_45, CORE2DUO_65, CORE_I7_45, PENTIUM4_130
from repro.hardware.config import stock
from repro.native.compiler import Toolchain
from repro.workloads.catalog import benchmark


def _cpi(name: str, spec, ghz=None, **kwargs) -> CpiBreakdown:
    config = stock(spec)
    frequency = Hertz.from_ghz(ghz) if ghz else config.clock
    toolchain = Toolchain.JIT if benchmark(name).managed else Toolchain.ICC
    return thread_cpi(benchmark(name).character, config, toolchain, frequency, **kwargs)


class TestBreakdown:
    def test_total_sums_components(self):
        b = _cpi("mcf", CORE_I7_45)
        assert b.total == pytest.approx(b.base + b.dependency + b.branch + b.memory)


class TestWorkloadSensitivity:
    def test_memory_bound_has_higher_cpi(self):
        assert _cpi("mcf", CORE_I7_45).total > _cpi("hmmer", CORE_I7_45).total

    def test_memory_stall_dominates_for_mcf(self):
        b = _cpi("mcf", CORE_I7_45)
        assert b.memory > b.base

    def test_compute_bound_dominated_by_base(self):
        b = _cpi("hmmer", CORE_I7_45)
        assert b.base > b.memory

    def test_branchy_code_pays_on_deep_pipeline(self):
        p4 = _cpi("sjeng", PENTIUM4_130)
        i7 = _cpi("sjeng", CORE_I7_45)
        assert p4.branch > i7.branch

    def test_displacement_factor_raises_memory_stalls(self):
        clean = _cpi("db", CORE_I7_45, mpki_factor=1.0)
        displaced = _cpi("db", CORE_I7_45, mpki_factor=1.75)
        assert displaced.memory > clean.memory
        assert displaced.mpki == pytest.approx(clean.mpki * 1.75)

    def test_llc_sharing_raises_memory_stalls(self):
        alone = _cpi("canneal", CORE_I7_45, llc_sharing_contexts=1)
        crowded = _cpi("canneal", CORE_I7_45, llc_sharing_contexts=8)
        assert crowded.memory > alone.memory


class TestMachineSensitivity:
    def test_in_order_pays_dependency_stalls(self):
        assert _cpi("hmmer", ATOM_45).dependency > 0.0
        assert _cpi("hmmer", CORE_I7_45).dependency == 0.0

    def test_netburst_worst_base_cpi(self):
        assert _cpi("hmmer", PENTIUM4_130).base > _cpi("hmmer", CORE_I7_45).base

    def test_higher_clock_more_memory_stall_cycles(self):
        slow = _cpi("mcf", CORE_I7_45, ghz=1.6)
        fast = _cpi("mcf", CORE_I7_45, ghz=2.66)
        assert fast.memory > slow.memory

    def test_big_cache_reduces_mpki(self):
        assert _cpi("astar", CORE_I7_45).mpki < _cpi("astar", ATOM_45).mpki

    def test_jit_code_penalty_on_netburst_only(self):
        """Workload Finding 2's mechanism: the JIT's code hurts the trace
        cache, so Java base CPI rises on NetBurst relative to Nehalem."""
        p4_java = _cpi("db", PENTIUM4_130)
        p4_native_like = thread_cpi(
            benchmark("db").character, stock(PENTIUM4_130), Toolchain.ICC,
            stock(PENTIUM4_130).clock,
        )
        assert p4_java.base > p4_native_like.base

    def test_nehalem_overlaps_more_misses_than_core(self):
        i7 = _cpi("mcf", CORE_I7_45, ghz=2.4)
        c2d = _cpi("mcf", CORE2DUO_65, ghz=2.4)
        assert c2d.memory > i7.memory
