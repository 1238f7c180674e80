"""Unit tests for the SMT and thread-placement models."""

import pytest

from repro.core.quantities import Hertz
from repro.execution.cpi import thread_cpi
from repro.execution.scaling import (
    aggregate_throughput,
    place_threads,
    sync_inflation,
)
from repro.execution.smt import (
    core_throughput_gain,
    utilisation_gap,
)
from repro.hardware.catalog import ATOM_45, CORE_I7_45, PENTIUM4_130
from repro.hardware.config import Configuration, stock
from repro.hardware.microarch import BONNELL, NEHALEM, NETBURST
from repro.native.compiler import Toolchain
from repro.workloads.catalog import benchmark


def _breakdown(name: str, spec):
    config = stock(spec)
    return thread_cpi(
        benchmark(name).character, config, Toolchain.GCC, config.clock
    )


class TestSmtGain:
    def test_gain_above_unity_for_stalling_code(self):
        b = _breakdown("canneal", CORE_I7_45)
        assert core_throughput_gain(NEHALEM, b) > 1.1

    def test_atom_gains_most(self):
        """Architecture Finding 2: the in-order Atom leaves the most
        slots empty, so SMT recovers the most."""
        atom = core_throughput_gain(BONNELL, _breakdown("canneal", ATOM_45))
        p4 = core_throughput_gain(NETBURST, _breakdown("canneal", PENTIUM4_130))
        assert atom > p4

    def test_gain_clamped_at_unity(self):
        b = _breakdown("swaptions", CORE_I7_45)
        assert core_throughput_gain(NEHALEM, b, extra_contention=5.0) == 1.0

    def test_extra_contention_reduces_gain(self):
        b = _breakdown("canneal", CORE_I7_45)
        assert core_throughput_gain(NEHALEM, b, 0.1) < core_throughput_gain(
            NEHALEM, b
        )

    def test_utilisation_gap_bounds(self):
        b = _breakdown("canneal", CORE_I7_45)
        assert 0.0 <= utilisation_gap(NEHALEM, b) < 1.0

    def test_negative_contention_rejected(self):
        with pytest.raises(ValueError):
            core_throughput_gain(NEHALEM, _breakdown("mcf", CORE_I7_45), -0.1)


class TestPlacement:
    def test_cores_before_siblings(self):
        """The scheduler spreads threads over whole cores first."""
        p = place_threads(4, stock(CORE_I7_45))
        assert p.cores_used == 4
        assert p.smt_pairs == 0

    def test_siblings_after_cores_full(self):
        p = place_threads(6, stock(CORE_I7_45))
        assert p.cores_used == 4
        assert p.smt_pairs == 2
        assert p.single_thread_cores == 2

    def test_fully_loaded(self):
        p = place_threads(8, stock(CORE_I7_45))
        assert p.smt_pairs == 4
        assert p.single_thread_cores == 0

    def test_excess_threads_clipped(self):
        p = place_threads(64, stock(CORE_I7_45))
        assert p.threads == 8

    def test_smt_disabled_config(self):
        p = place_threads(8, Configuration(CORE_I7_45, 4, 1, 2.66))
        assert p.threads == 4
        assert p.smt_pairs == 0

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            place_threads(0, stock(CORE_I7_45))


class TestAggregateThroughput:
    def test_two_cores_double_one(self):
        config = Configuration(CORE_I7_45, 4, 1, 2.66)
        b = _breakdown("swaptions", CORE_I7_45)
        one = aggregate_throughput(place_threads(1, config), b, config, 2.66e9)
        two = aggregate_throughput(place_threads(2, config), b, config, 2.66e9)
        assert two == pytest.approx(2 * one)

    def test_smt_pair_less_than_two_cores(self):
        config = stock(CORE_I7_45)
        b = _breakdown("canneal", CORE_I7_45)
        pair = aggregate_throughput(place_threads(2, Configuration(CORE_I7_45, 1, 2, 2.66)), b, config, 2.66e9)
        cores = aggregate_throughput(place_threads(2, Configuration(CORE_I7_45, 2, 1, 2.66)), b, config, 2.66e9)
        single = aggregate_throughput(place_threads(1, config), b, config, 2.66e9)
        assert single < pair < cores


class TestSyncInflation:
    def test_single_thread_free(self):
        assert sync_inflation(0.01, 1) == 1.0

    def test_grows_with_threads(self):
        assert sync_inflation(0.01, 8) == pytest.approx(1.07)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            sync_inflation(0.01, 0)
