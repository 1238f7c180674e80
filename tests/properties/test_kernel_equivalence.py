"""Kernel-equivalence property suite (docs/performance.md, "Vectorized
path").

The compiled-kernel contract is the same strongest-form one the parallel
executor carries: vectorisation may change *how* a pair is measured,
never *what* — a vectorized sweep must be **byte-identical** to the
scalar path in records, :class:`CampaignHealth`, and checkpoint bytes, at
any worker count, over catalog and generated workloads alike, and must
degrade to the scalar path (still byte-identically) when a fault plan
arms any of a pair's sites.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.study import Study
from repro.execution import kernels
from repro.execution.kernels import kernel_stats
from repro.faults import injector
from repro.faults.injector import injected
from repro.faults.plan import fail_stop_plan
from repro.hardware.catalog import CORE_I5_32, CORE_I7_45, reference_processors
from repro.hardware.config import Configuration, stock
from repro.workloads.catalog import BENCHMARKS
from repro.workloads.synthetic import synthetic
from tests.equivalence import (
    CLEAN,
    Mode,
    assert_campaign_equivalent,
    capture,
    sweep,
)

#: jobs=None is the in-process path; 1 exercises the full dispatch/merge
#: protocol through a single worker; 4 adds real interleaving.
WORKER_COUNTS = (None, 1, 4)


def _sample_pairs():
    """A seeded sample of (benchmark, configuration) pairs: catalog
    benchmarks plus generated workloads, on stock and non-stock
    configurations.  Seeded, so every process in a parallel comparison
    measures the same cells."""
    rng = random.Random("kernel-equivalence")
    configs = [stock(spec) for spec in reference_processors()]
    configs += [
        Configuration(CORE_I7_45, 1, 1, 2.66),
        Configuration(CORE_I7_45, 4, 2, 2.66),
        Configuration(CORE_I5_32, 2, 2, 1.2),
    ]
    benches = rng.sample(list(BENCHMARKS), 6) + [
        synthetic(
            f"kern-syn-{i}",
            boundness=rng.random(),
            branchiness=rng.random(),
            parallelism=rng.random() * 0.98,
            managed=bool(i % 2),
            reference_seconds=0.5 + rng.random() * 30.0,
        )
        for i in range(3)
    ]
    return tuple(
        [(bench, rng.choice(configs)) for bench in benches]
        + [(benches[0], configs[0])]  # a stock catalog cell is always present
    )


PAIRS = _sample_pairs()


class TestKernelEquivalence:
    def test_vectorized_sweep_is_byte_identical(
        self, references, reference, tmp_path
    ):
        expected = reference(campaign=PAIRS)
        compiled_before = kernel_stats()["compiles"]
        for jobs in WORKER_COUNTS:
            mode = Mode(dispatch=jobs, kernels=True)
            assert_campaign_equivalent(
                expected, sweep(references, mode, PAIRS, workdir=tmp_path)
            )
        # The equivalence must not have been vacuous: the in-process
        # vectorized sweep really compiled kernels.
        assert kernel_stats()["compiles"] > compiled_before

    def test_fault_armed_pairs_fall_back_byte_identically(
        self, references, reference, tmp_path
    ):
        """A wildcard fail-stop plan arms every site, so every pair must
        take the scalar fallback — and reproduce the scalar campaign's
        records, health (including fired faults), and checkpoint bytes."""
        plan = fail_stop_plan(probability=0.02, seed="kernel-fallback")
        expected = reference(Mode(plan=plan), PAIRS)
        fallbacks_before = kernel_stats()["fallbacks"].get("faults", 0)
        vectorized = sweep(
            references, Mode(kernels=True, plan=plan), PAIRS, workdir=tmp_path
        )
        assert_campaign_equivalent(expected, vectorized)
        assert kernel_stats()["fallbacks"]["faults"] > fallbacks_before

    def test_declined_kernel_falls_back_byte_identically(
        self, references, reference, tmp_path, monkeypatch
    ):
        """With no fault plan armed, a pair whose plan the compiler
        declines runs the per-invocation scalar loop — and reproduces the
        ``vectorize=False`` campaign record for record."""
        expected = reference(campaign=PAIRS)
        # Disarm any session-wide plan: this is the fault-free fallback.
        monkeypatch.setattr(injector, "_ACTIVE", None)
        declined = []

        def decline(engine, meter, benchmark, config, protocol, invocations):
            declined.append(benchmark.name)
            kernels.note_fallback("shape")
            return None

        monkeypatch.setattr(kernels, "compile_pair", decline)
        fallbacks_before = kernel_stats()["fallbacks"].get("shape", 0)
        # plan=None: no plan armed at all (the injector is disarmed above).
        mode = Mode(kernels=True, plan=None)
        vectorized = sweep(references, mode, PAIRS, workdir=tmp_path)
        assert_campaign_equivalent(expected, vectorized)
        assert len(declined) == len(set(PAIRS))
        assert kernel_stats()["fallbacks"]["shape"] > fallbacks_before


class TestGeneratedPairEquivalence:
    """Hypothesis drives the signature space: any synthetic workload's
    vectorized measurement equals its scalar one, field for field."""

    @settings(max_examples=10, deadline=None)
    @given(
        boundness=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        parallelism=st.floats(min_value=0.0, max_value=0.98, allow_nan=False),
        managed=st.booleans(),
        seconds=st.floats(min_value=0.5, max_value=60.0, allow_nan=False),
        salt=st.integers(min_value=0, max_value=10**6),
    )
    def test_single_pair_measurement_matches(
        self, references, boundness, parallelism, managed, seconds, salt
    ):
        bench = synthetic(
            f"kern-prop-{salt}",
            boundness=boundness,
            parallelism=parallelism,
            managed=managed,
            reference_seconds=seconds,
        )
        config = stock(CORE_I7_45)
        with injected(CLEAN):
            scalar = Study(
                references=references, invocation_scale=0.2, vectorize=False
            ).measure(bench, config)
            vectorized = Study(
                references=references, invocation_scale=0.2, vectorize=True
            ).measure(bench, config)
        assert_campaign_equivalent(capture([scalar]), capture([vectorized]))
