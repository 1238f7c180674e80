"""Unit tests for compiled sweep kernels (:mod:`repro.execution.kernels`).

The integration-level byte-identity contract lives in
``tests/properties/test_kernel_equivalence.py``; these tests pin the
kernel machinery itself — compile/cache behaviour, serialisation
(kernels ship compactly, draws rematerialise), and the low-level
equivalence of one kernel replay against the scalar invocation loop it
compiles away.
"""

import pickle
import sys
import threading
import types

import numpy as np
import pytest

from repro.execution import kernels as kernels_module
from repro.execution.engine import ExecutionEngine
from repro.execution.kernels import (
    compile_pair,
    kernel_key,
    kernel_stats,
    prime,
    run_pair,
)
from repro.execution.trace import sample_count, sample_counts
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan
from repro.hardware.catalog import CORE_I7_45
from repro.hardware.config import stock
from repro.measurement.meter import meter_for
from repro.runtime.methodology import protocol_for
from repro.workloads.catalog import BENCHMARKS, benchmark

CLEAN = FaultPlan()
CONFIG = stock(CORE_I7_45)


@pytest.fixture()
def engine():
    return ExecutionEngine()


@pytest.fixture()
def meter():
    return meter_for(CORE_I7_45)


class TestCompileAndCache:
    def test_compile_stores_and_second_call_hits(self, engine, meter):
        bench = benchmark("eclipse")
        protocol = protocol_for(bench)
        before = kernel_stats()
        kernel = compile_pair(engine, meter, bench, CONFIG, protocol, 4)
        assert kernel is not None
        assert kernel.invocations == 4
        key = kernel_key(bench, CONFIG, protocol, 4)
        assert engine.cached_kernel(key) is kernel
        again = compile_pair(engine, meter, bench, CONFIG, protocol, 4)
        assert again is kernel
        after = kernel_stats()
        assert after["compiles"] == before["compiles"] + 1
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["cache_bytes"] > before["cache_bytes"]

    def test_distinct_invocation_counts_get_distinct_kernels(
        self, engine, meter
    ):
        bench = benchmark("mcf")
        protocol = protocol_for(bench)
        k4 = compile_pair(engine, meter, bench, CONFIG, protocol, 4)
        k5 = compile_pair(engine, meter, bench, CONFIG, protocol, 5)
        assert k4 is not k5
        assert len(k4.time_seeds) == 4
        assert len(k5.time_seeds) == 5


class TestSerialisation:
    def test_kernel_pickle_drops_draws_and_replays_identically(
        self, engine, meter
    ):
        bench = benchmark("eclipse")
        protocol = protocol_for(bench)
        kernel = compile_pair(engine, meter, bench, CONFIG, protocol, 3)
        times, powers = run_pair(kernel, engine, meter)
        assert kernel._draws is not None  # materialised by the replay
        restored = pickle.loads(pickle.dumps(kernel))
        assert restored._draws is None  # draws never travel
        times_2, powers_2 = run_pair(restored, engine, meter)
        assert times_2 == times
        assert powers_2 == powers

    def test_engine_pickle_drops_kernel_cache(self, engine, meter):
        bench = benchmark("mcf")
        compile_pair(engine, meter, bench, CONFIG, protocol_for(bench), 3)
        assert engine.kernel_snapshot()
        worker = pickle.loads(pickle.dumps(engine))
        assert worker.kernel_snapshot() == {}

    def test_preload_kernels_adopts_snapshot(self, engine, meter):
        bench = benchmark("eclipse")
        protocol = protocol_for(bench)
        kernel = compile_pair(engine, meter, bench, CONFIG, protocol, 3)
        other = ExecutionEngine()
        other.preload_kernels(engine.kernel_snapshot())
        key = kernel_key(bench, CONFIG, protocol, 3)
        assert other.cached_kernel(key) is kernel
        # compile on the preloaded engine answers from cache, not a build
        before = kernel_stats()["compiles"]
        assert compile_pair(other, meter, bench, CONFIG, protocol, 3) is kernel
        assert kernel_stats()["compiles"] == before


#: Every fifth benchmark on the stock i7: a short stock sweep.
SWEEP = BENCHMARKS[::5]


@pytest.fixture()
def sweep_kernels(engine, meter):
    kernels = [
        compile_pair(engine, meter, bench, CONFIG, protocol_for(bench), 6)
        for bench in SWEEP
    ]
    assert all(kernel is not None for kernel in kernels)
    return kernels


@pytest.fixture()
def draw_cache(monkeypatch, sweep_kernels):
    """A fresh draw cache capped at three of the sweep's pairs' draws,
    emptied (gauge included) afterwards."""
    sizes = sorted(kernel._materialise().nbytes for kernel in sweep_kernels)
    cache = kernels_module._DrawCache()
    monkeypatch.setattr(kernels_module, "_DRAW_CACHE", cache)
    monkeypatch.setattr(kernels_module, "DRAW_CACHE_CAP_BYTES", sum(sizes[-3:]))
    yield cache
    for kernel in cache.entries.values():
        kernels_module._CACHE_BYTES.dec(kernel._draws.nbytes)
        kernel._draws = None


def _consistent(cache) -> bool:
    return cache.nbytes == sum(
        kernel._draws.nbytes for kernel in cache.entries.values()
    )


class TestBoundedDrawCache:
    def test_total_never_exceeds_cap(self, engine, meter, sweep_kernels, draw_cache):
        for _ in range(2):
            for kernel in sweep_kernels:
                run_pair(kernel, engine, meter)
                assert draw_cache.nbytes <= kernels_module.DRAW_CACHE_CAP_BYTES
                assert _consistent(draw_cache)
        assert 1 < len(draw_cache.entries) < len(sweep_kernels)

    def test_evicted_kernel_replays_identically(
        self, engine, meter, sweep_kernels, draw_cache
    ):
        first = [run_pair(kernel, engine, meter) for kernel in sweep_kernels]
        assert sweep_kernels[0]._draws is None  # evicted by later replays
        again = [run_pair(kernel, engine, meter) for kernel in sweep_kernels]
        assert again == first

    def test_most_recently_used_keeps_draws(
        self, engine, meter, sweep_kernels, draw_cache
    ):
        for kernel in sweep_kernels + sweep_kernels[::-1]:
            run_pair(kernel, engine, meter)
            assert kernel._draws is not None
            assert next(reversed(draw_cache.entries.values())) is kernel

    def test_gauge_counts_draws_in_and_out(
        self, engine, meter, sweep_kernels, draw_cache
    ):
        base = kernel_stats()["cache_bytes"]
        rose = fell = False
        for kernel in sweep_kernels:
            held = set(draw_cache.entries)
            before = kernel_stats()["cache_bytes"]
            run_pair(kernel, engine, meter)
            size = kernel._draws.nbytes
            after = kernel_stats()["cache_bytes"]
            evicted = held - set(draw_cache.entries)
            assert after - base == draw_cache.nbytes
            if evicted:
                fell = True
                assert after < before + size
            else:
                rose = True
                assert after == before + size
        assert rose and fell

    def test_concurrent_replays_agree(self, engine, meter, sweep_kernels, draw_cache):
        """Four threads (more than the cores) replay overlapping kernels
        under a short switch interval: same bytes, consistent total."""
        expected = {id(k): run_pair(k, engine, meter) for k in sweep_kernels}
        half = len(sweep_kernels) // 2
        front, back = sweep_kernels[: half + 3], sweep_kernels[half - 3:]
        orders = (front * 3, back[::-1] * 3, back * 3, front[::-1] * 3)
        start = threading.Barrier(len(orders))
        wrong: list[str] = []

        def replay(order):
            start.wait()
            for kernel in order:
                if run_pair(kernel, engine, meter) != expected[id(kernel)]:
                    wrong.append(kernel.benchmark_name)

        threads = [threading.Thread(target=replay, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert _consistent(draw_cache)
        tracked = set(draw_cache.entries)
        assert all(
            (id(kernel) in tracked) == (kernel._draws is not None)
            for kernel in sweep_kernels
        )
        assert draw_cache.nbytes <= kernels_module.DRAW_CACHE_CAP_BYTES


    def test_admit_under_contention_loses_no_update(self, monkeypatch, draw_cache):
        """Eight threads hammer admit/evict on one cache with tiny stand-in
        kernels: the byte total must equal what the entries hold."""
        monkeypatch.setattr(kernels_module, "DRAW_CACHE_CAP_BYTES", 40)
        fakes = [types.SimpleNamespace(_draws=None) for _ in range(64)]
        one_byte = types.SimpleNamespace(nbytes=1)

        def hammer(offset):
            for i in range(4000):
                kernel = fakes[(offset + 7 * i) % len(fakes)]
                draw_cache.admit(kernel, kernel._draws or one_byte)

        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert draw_cache.nbytes == len(draw_cache.entries) <= 40
        assert sum(fake._draws is not None for fake in fakes) == draw_cache.nbytes


def _fresh_sweep_kernels():
    """The sweep's kernels compiled on a fresh engine: new objects with
    nothing materialised or primed."""
    engine, meter = ExecutionEngine(), meter_for(CORE_I7_45)
    return [
        compile_pair(engine, meter, bench, CONFIG, protocol_for(bench), 6)
        for bench in SWEEP
    ]


def _same_draws(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in a.__dataclass_fields__
    )


class TestPrimedSeeding:
    """Priming batches the seeding words of many kernels; it must change
    neither the draws nor what a kernel pickles to."""

    def test_primed_and_unprimed_draws_are_identical(self, sweep_kernels):
        primed = _fresh_sweep_kernels()
        prime(primed)
        assert all(kernel._states is not None for kernel in primed)
        for alone, batched in zip(sweep_kernels, primed):
            assert alone._states is None
            assert _same_draws(batched._materialise(), alone._materialise())

    def test_materialise_drops_the_states(self):
        kernel = _fresh_sweep_kernels()[0]
        prime([kernel])
        assert kernel._states.shape == (4 * kernel.invocations, 4)
        kernel._materialise()
        assert kernel._states is None

    def test_prime_skips_kernels_that_hold_draws(self, engine, meter):
        bench = benchmark("mcf")
        kernel = compile_pair(engine, meter, bench, CONFIG, protocol_for(bench), 3)
        kernel._draws = kernel._materialise()
        try:
            prime([kernel])
            assert kernel._states is None
        finally:
            kernel._draws = None

    def test_priming_leaves_the_pickle_byte_identical(self):
        kernels = _fresh_sweep_kernels()
        before = [pickle.dumps(kernel) for kernel in kernels]
        prime(kernels)
        assert [pickle.dumps(kernel) for kernel in kernels] == before
        restored = pickle.loads(before[0])
        assert restored._states is None and restored._draws is None

    def test_threads_materialising_one_primed_batch_agree(self, sweep_kernels):
        """Eight threads (more than the cores) materialise kernels primed
        in one batch, in overlapping orders: every draw equals the
        single-threaded one, whichever thread consumed the primed words."""
        expected = [kernel._materialise() for kernel in sweep_kernels]
        primed = _fresh_sweep_kernels()
        prime(primed)
        indices = list(range(len(primed)))
        orders = [indices[n:] + indices[:n] for n in range(0, 16, 2)]
        start = threading.Barrier(len(orders))
        wrong: list[str] = []

        def materialise(order):
            start.wait()
            for i in order:
                if not _same_draws(primed[i]._materialise(), expected[i]):
                    wrong.append(primed[i].benchmark_name)

        threads = [
            threading.Thread(target=materialise, args=(o,)) for o in orders
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestScalarEquivalence:
    @pytest.mark.parametrize("name", ["eclipse", "mcf", "lusearch"])
    def test_replay_matches_scalar_invocation_loop(self, engine, meter, name):
        """One kernel replay == the loop it compiles: engine.execute +
        meter.measure per invocation, bit for bit."""
        bench = benchmark(name)
        protocol = protocol_for(bench)
        invocations = 5
        with injected(CLEAN):
            scalar_times, scalar_watts = [], []
            for index in range(invocations):
                execution = engine.execute(
                    bench, CONFIG, invocation=index, iteration=protocol.iteration
                )
                salt = f"{CONFIG.key}/{bench.name}/{index}"
                measurement = meter.measure(execution, run_salt=salt)
                scalar_times.append(execution.seconds.value)
                scalar_watts.append(measurement.average_watts)
            kernel = compile_pair(
                engine, meter, bench, CONFIG, protocol, invocations
            )
            times, watts = run_pair(kernel, engine, meter)
        assert times == scalar_times
        assert watts == scalar_watts


class TestSampleCounts:
    def test_vectorised_counts_match_scalar_rule(self):
        rng = np.random.default_rng(7)
        durations = np.concatenate([
            rng.uniform(0.005, 120.0, size=200),
            np.array([1e-9, 0.02, 39.99999, 40.0, 40.00001, 1e6]),
        ])
        counts = sample_counts(durations, 50.0, 2000)
        for duration, count in zip(durations, counts):
            assert int(count) == sample_count(float(duration), 50.0, 2000)

    def test_uncapped_and_cap_validation(self):
        durations = np.array([100.0, 0.001])
        assert sample_counts(durations, 50.0, None).tolist() == [5000, 1]
        with pytest.raises(ValueError):
            sample_counts(durations, 50.0, 0)
