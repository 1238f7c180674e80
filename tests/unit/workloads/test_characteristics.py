"""Unit tests for workload signatures."""

import pytest

from repro.workloads.characteristics import JvmBehavior, WorkloadCharacter


def _character(**overrides) -> WorkloadCharacter:
    base = dict(
        ilp=1.8,
        branch_mpki=3.0,
        memory_mpki=2.0,
        footprint_mb=10.0,
    )
    base.update(overrides)
    return WorkloadCharacter(**base)


class TestWorkloadCharacter:
    def test_defaults(self):
        c = _character()
        assert c.software_threads == 1
        assert c.parallel_fraction == 0.0
        assert c.activity == 1.0

    def test_dtlb_defaults_to_memory_correlate(self):
        c = _character(memory_mpki=5.0)
        assert c.dtlb_mpki == pytest.approx(4.0)

    def test_explicit_dtlb_respected(self):
        assert _character(dtlb_mpki=9.0).dtlb_mpki == 9.0

    def test_threads_on_elastic(self):
        c = _character(software_threads=None, parallel_fraction=0.9)
        assert c.threads_on(8) == 8
        assert c.threads_on(1) == 1

    def test_threads_on_fixed(self):
        c = _character(software_threads=4, parallel_fraction=0.5)
        assert c.threads_on(8) == 4
        assert c.threads_on(2) == 4  # engine clips later

    def test_threads_on_rejects_zero_contexts(self):
        with pytest.raises(ValueError):
            _character().threads_on(0)

    def test_ilp_floor(self):
        with pytest.raises(ValueError):
            _character(ilp=0.9)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            _character(branch_mpki=-1.0)
        with pytest.raises(ValueError):
            _character(memory_mpki=-1.0)

    def test_parallel_fraction_bounds(self):
        with pytest.raises(ValueError):
            _character(parallel_fraction=1.0)
        with pytest.raises(ValueError):
            _character(parallel_fraction=-0.1)

    def test_activity_positive(self):
        with pytest.raises(ValueError):
            _character(activity=0.0)


class TestJvmBehavior:
    def test_defaults(self):
        jvm = JvmBehavior(service_fraction=0.05)
        assert jvm.displacement_mpki_factor >= 1.0
        assert jvm.gc_threads >= 1

    def test_service_fraction_bounds(self):
        with pytest.raises(ValueError):
            JvmBehavior(service_fraction=1.0)
        with pytest.raises(ValueError):
            JvmBehavior(service_fraction=-0.1)

    def test_displacement_cannot_shrink(self):
        with pytest.raises(ValueError):
            JvmBehavior(service_fraction=0.05, displacement_mpki_factor=0.9)

    def test_variability_nonnegative(self):
        with pytest.raises(ValueError):
            JvmBehavior(service_fraction=0.05, variability=-0.01)

    def test_gc_threads_positive(self):
        with pytest.raises(ValueError):
            JvmBehavior(service_fraction=0.05, gc_threads=0)
