"""Unit tests for compiled sweep kernels (:mod:`repro.execution.kernels`).

The integration-level byte-identity contract lives in
``tests/properties/test_kernel_equivalence.py``; these tests pin the
kernel machinery itself — compile behaviour, serialisation
(kernels pickle compactly, replay state is rebuilt from seeds), the
replay-state lifetime (per-invocation state kept, per-sample arrays
rebuilt on every replay), and the low-level
equivalence of one kernel replay against the scalar invocation loop it
compiles away.
"""

import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core.seeding import pcg64_seed_table, pcg64_states, reseed
from repro.execution import kernels as kernels_module
from repro.execution.engine import ExecutionEngine
from repro.execution.kernels import (
    compile_pair,
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
    def test_compiling_twice_builds_two_kernels_that_replay_the_same_bytes(
        self, engine, meter
    ):
        """The engine keeps no kernel: each compile builds a fresh one,
        and both replay byte-identically."""
        bench = benchmark("eclipse")
        protocol = protocol_for(bench)
        before = kernel_stats()["compiles"]
        first = compile_pair(engine, meter, bench, CONFIG, protocol, 4)
        second = compile_pair(engine, meter, bench, CONFIG, protocol, 4)
        assert first is not None and second is not None
        assert first is not second
        assert first.invocations == second.invocations == 4
        assert kernel_stats()["compiles"] == before + 2
        assert run_pair(first, engine, meter) == run_pair(second, engine, meter)

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
        # kept by the replay, never shipped
        assert kernel._invocations is not None and kernel._states is not None
        restored = pickle.loads(pickle.dumps(kernel))
        assert restored._invocations is None and restored._states is None
        times_2, powers_2 = run_pair(restored, engine, meter)
        assert times_2 == times
        assert powers_2 == powers


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


def _held_arrays(kernel) -> list:
    """Every ndarray the kernel holds, its kept replay state included."""
    held = list(vars(kernel).values())
    if kernel._invocations is not None:
        held += list(vars(kernel._invocations).values())
    return [value for value in held if isinstance(value, np.ndarray)]


class TestReplayState:
    """Per-invocation state is kept for the kernel's life; per-sample
    arrays are rebuilt on every replay and freed once metered."""

    def test_ten_replays_agree(self, engine, meter, sweep_kernels):
        for kernel in sweep_kernels:
            first = run_pair(kernel, engine, meter)
            kept = kernel._invocations
            for _ in range(9):
                assert run_pair(kernel, engine, meter) == first
            assert kernel._invocations is kept  # drawn once, then kept

    def test_replays_keep_no_sample_array(self, engine, meter, sweep_kernels):
        for kernel in sweep_kernels:
            for _ in range(2):
                run_pair(kernel, engine, meter)
            total = int(kernel._invocations.counts.sum())
            assert total > 16 * kernel.invocations
            assert all(a.size < total for a in _held_arrays(kernel))

    def test_replays_compile_nothing(self, engine, meter, sweep_kernels):
        """A replay reuses the kernel it is given: only compile_pair
        moves the compile counter."""
        before = kernel_stats()["compiles"]
        for kernel in sweep_kernels * 2:
            run_pair(kernel, engine, meter)
        assert kernel_stats()["compiles"] == before

    def test_per_sample_arrays_are_freed_after_metering(
        self, monkeypatch, engine, meter, sweep_kernels
    ):
        metered: list = []
        measure = meter.measure_kernel

        def spy(true_watts, counts, offsets, peaks, peak, wander, sensor_noise):
            metered.extend(
                weakref.ref(a) for a in (true_watts, wander, sensor_noise)
            )
            return measure(
                true_watts, counts, offsets, peaks, peak, wander, sensor_noise
            )

        monkeypatch.setattr(meter, "measure_kernel", spy)
        for kernel in sweep_kernels:
            run_pair(kernel, engine, meter)
        assert len(metered) == 3 * len(sweep_kernels)
        assert all(ref() is None for ref in metered)

    @pytest.mark.parametrize("sigma", [0.0, 5e-324, 1e-300, 0.004, 1.0, 3.5])
    def test_in_place_draw_equals_normal(self, sigma):
        """The in-place stream (standard normals scaled in place) equals
        ``normal(0.0, sigma, size)`` bit for bit, signed zeros included."""
        seeds = [0, 7, 2**32 + 1]
        rows = pcg64_states(pcg64_seed_table(seeds)).tolist()
        rng = np.random.Generator(np.random.PCG64(0))
        for seed, row in zip(seeds, rows):
            expected = np.random.default_rng(seed).normal(0.0, sigma, size=1999)
            z = np.empty(2001)
            reseed(rng, row).standard_normal(out=z[1:2000])
            kernels_module._scale_normals(z[1:2000], sigma)
            assert z[1:2000].tobytes() == expected.tobytes()

    def test_concurrent_replays_agree(self, engine, meter, sweep_kernels):
        """Four threads (more than the cores) replay overlapping kernels
        under a short switch interval, with no lock: same bytes."""
        expected = {id(k): run_pair(k, engine, meter) for k in sweep_kernels}
        fresh = _fresh_sweep_kernels()  # unmaterialised: threads race to draw
        kernels = sweep_kernels + fresh
        expected.update(
            (id(k), expected[id(old)]) for k, old in zip(fresh, sweep_kernels)
        )
        half = len(kernels) // 2
        front, back = kernels[: half + 3], kernels[half - 3:]
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


def _fresh_sweep_kernels():
    """The sweep's kernels compiled on a fresh engine: new objects with
    nothing materialised or primed."""
    engine, meter = ExecutionEngine(), meter_for(CORE_I7_45)
    return [
        compile_pair(engine, meter, bench, CONFIG, protocol_for(bench), 6)
        for bench in SWEEP
    ]


def _draws(kernel) -> list:
    """One replay's inputs: the kept per-invocation arrays, then the
    per-sample arrays rebuilt for this replay."""
    inv = kernel._materialise()
    kept = [getattr(inv, name) for name in inv.__dataclass_fields__]
    return kept + list(kernel._samples(inv))


def _same_draws(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestPrimedSeeding:
    """Priming batches the seeding words of many kernels; it must change
    neither the draws nor what a kernel pickles to."""

    def test_primed_and_unprimed_draws_are_identical(self, sweep_kernels):
        primed = _fresh_sweep_kernels()
        prime(primed)
        assert all(kernel._states is not None for kernel in primed)
        for alone, batched in zip(sweep_kernels, primed):
            assert alone._states is None
            assert _same_draws(_draws(batched), _draws(alone))

    def test_materialise_keeps_the_states(self):
        primed, unprimed = _fresh_sweep_kernels()[:2]
        prime([primed])
        states = primed._states
        assert states.shape == (4 * primed.invocations, 4)
        primed._materialise()
        assert primed._states is states
        unprimed._materialise()
        assert unprimed._states.shape == (4 * unprimed.invocations, 4)

    def test_prime_skips_kernels_that_hold_draws(self, engine, meter):
        bench = benchmark("mcf")
        kernel = compile_pair(engine, meter, bench, CONFIG, protocol_for(bench), 3)
        kept = kernel._materialise()
        states = kernel._states
        prime([kernel])
        assert kernel._states is states
        assert kernel._materialise() is kept
        fresh = _fresh_sweep_kernels()[0]
        prime([fresh])
        primed = fresh._states
        prime([fresh])
        assert fresh._states is primed

    def test_priming_leaves_the_pickle_byte_identical(self):
        kernels = _fresh_sweep_kernels()
        before = [pickle.dumps(kernel) for kernel in kernels]
        prime(kernels)
        assert [pickle.dumps(kernel) for kernel in kernels] == before
        restored = pickle.loads(before[0])
        assert restored._states is None and restored._invocations is None

    def test_threads_materialising_one_primed_batch_agree(self, sweep_kernels):
        """Eight threads (more than the cores) replay kernels primed in
        one batch, in overlapping orders, with no lock: every draw equals
        the single-threaded one, whichever thread drew the kept state."""
        expected = [_draws(kernel) for kernel in sweep_kernels]
        primed = _fresh_sweep_kernels()
        prime(primed)
        indices = list(range(len(primed)))
        orders = [indices[n:] + indices[:n] for n in range(0, 16, 2)]
        start = threading.Barrier(len(orders))
        wrong: list[str] = []

        def materialise(order):
            start.wait()
            for i in order:
                if not _same_draws(_draws(primed[i]), expected[i]):
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
