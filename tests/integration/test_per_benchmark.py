"""Integration: per-benchmark behavioural contracts, all 61 benchmarks.

Each benchmark's signature must produce the behaviour its group promises
on real configurations — scalables scale, non-scalables don't, Java gains
from spare cores, power stays inside its machine's envelope.
"""

import pytest

from repro.hardware.catalog import CORE_I7_45
from repro.hardware.config import Configuration, stock
from repro.workloads.benchmark import Group
from repro.workloads.catalog import BENCHMARKS, by_group

_ONE = Configuration(CORE_I7_45, 1, 1, 2.66)
_TWO = Configuration(CORE_I7_45, 2, 1, 2.66)
_EIGHT = Configuration(CORE_I7_45, 4, 2, 2.66)


def _scaling(engine, bench) -> float:
    one = engine.ideal(bench, _ONE).seconds.value
    eight = engine.ideal(bench, _EIGHT).seconds.value
    return one / eight


@pytest.mark.parametrize(
    "bench", by_group(Group.NATIVE_SCALABLE), ids=lambda b: b.name
)
class TestEveryParsecBenchmark:
    def test_scales_on_eight_contexts(self, bench, engine):
        """§2.1: 'the PARSEC benchmarks scale up to 8 hardware contexts.'"""
        assert _scaling(engine, bench) > 2.0

    def test_uses_every_context(self, bench, engine):
        execution = engine.ideal(bench, _EIGHT)
        parallel = next(p for p in execution.phases if p.name == "parallel")
        assert parallel.busy_cores == pytest.approx(4.0)


@pytest.mark.parametrize(
    "bench", by_group(Group.JAVA_SCALABLE), ids=lambda b: b.name
)
class TestEveryJavaScalableBenchmark:
    def test_scales_like_parsec(self, bench, engine):
        """§2.1: selected 'because their performance scales similarly to
        Native Scalable on the i7 (45)'."""
        assert _scaling(engine, bench) > 1.9


@pytest.mark.parametrize(
    "bench",
    [b for b in by_group(Group.NATIVE_NONSCALABLE)],
    ids=lambda b: b.name,
)
class TestEverySpecCpuBenchmark:
    def test_never_gains_from_parallel_hardware(self, bench, engine):
        """§3.1: 'Native single-threaded workloads never experience
        performance ... improvements from CMPs or SMT.'"""
        assert _scaling(engine, bench) == pytest.approx(1.0, abs=0.01)

    def test_power_rises_with_enabled_cores(self, bench, engine):
        one = engine.ideal(bench, _ONE).average_power.value
        eight = engine.ideal(bench, _EIGHT).average_power.value
        assert eight > one


@pytest.mark.parametrize(
    "bench",
    [b for b in by_group(Group.JAVA_NONSCALABLE) if not b.multithreaded],
    ids=lambda b: b.name,
)
class TestEverySingleThreadedJavaBenchmark:
    def test_second_core_never_hurts(self, bench, engine):
        one = engine.ideal(bench, _ONE).seconds.value
        two = engine.ideal(bench, _TWO).seconds.value
        assert one / two > 0.995

    def test_gain_bounded_by_service_plus_displacement(self, bench, engine):
        """The CMP gain cannot exceed what the mechanism supplies."""
        gain = engine.ideal(bench, _ONE).seconds.value / engine.ideal(
            bench, _TWO
        ).seconds.value
        ceiling = (1.0 + bench.jvm.service_fraction) * (
            bench.jvm.displacement_mpki_factor
        )
        assert gain < ceiling + 0.02


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
class TestEveryBenchmarkEnvelope:
    def test_power_within_machine_envelope_on_i7(self, bench, engine):
        """Every benchmark's stock-i7 power lands inside the paper's
        measured 23-90 W envelope, below TDP."""
        execution = engine.ideal(bench, stock(CORE_I7_45))
        watts = execution.average_power.value
        assert 20.0 < watts < 95.0
        assert watts < CORE_I7_45.tdp_w

    def test_events_self_consistent(self, bench, engine):
        events = engine.ideal(bench, stock(CORE_I7_45)).events
        assert 0.0 < events.ipc < 4.0
        assert events.llc_mpki < 60.0
        assert events.dtlb_mpki >= 0.0
