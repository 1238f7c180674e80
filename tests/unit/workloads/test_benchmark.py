"""Unit tests for the Benchmark type's invariants."""

import dataclasses
import pickle

import pytest

from repro.workloads.benchmark import Benchmark, Group, Language, Suite
from repro.workloads.characteristics import JvmBehavior, WorkloadCharacter


def _character(**overrides) -> WorkloadCharacter:
    base = dict(ilp=1.8, branch_mpki=3.0, memory_mpki=2.0, footprint_mb=10.0)
    base.update(overrides)
    return WorkloadCharacter(**base)


class TestGroupSemantics:
    def test_language_of_groups(self):
        assert Group.NATIVE_NONSCALABLE.language is Language.NATIVE
        assert Group.NATIVE_SCALABLE.language is Language.NATIVE
        assert Group.JAVA_NONSCALABLE.language is Language.JAVA
        assert Group.JAVA_SCALABLE.language is Language.JAVA

    def test_scalability_of_groups(self):
        assert Group.NATIVE_SCALABLE.scalable
        assert Group.JAVA_SCALABLE.scalable
        assert not Group.NATIVE_NONSCALABLE.scalable
        assert not Group.JAVA_NONSCALABLE.scalable


class TestBenchmarkInvariants:
    def test_java_requires_jvm_behaviour(self):
        with pytest.raises(ValueError):
            Benchmark(
                name="x",
                suite=Suite.DACAPO_9,
                group=Group.JAVA_NONSCALABLE,
                description="",
                reference_seconds=1.0,
                character=_character(),
                jvm=None,
            )

    def test_native_rejects_jvm_behaviour(self):
        with pytest.raises(ValueError):
            Benchmark(
                name="x",
                suite=Suite.PARSEC,
                group=Group.NATIVE_SCALABLE,
                description="",
                reference_seconds=1.0,
                character=_character(software_threads=None, parallel_fraction=0.9),
                jvm=JvmBehavior(service_fraction=0.05),
            )

    def test_scalable_group_requires_threads(self):
        with pytest.raises(ValueError):
            Benchmark(
                name="x",
                suite=Suite.PARSEC,
                group=Group.NATIVE_SCALABLE,
                description="",
                reference_seconds=1.0,
                character=_character(),  # single-threaded
            )

    def test_reference_time_positive(self):
        with pytest.raises(ValueError):
            Benchmark(
                name="x",
                suite=Suite.SPEC_CINT2006,
                group=Group.NATIVE_NONSCALABLE,
                description="",
                reference_seconds=0.0,
                character=_character(),
            )

    def test_managed_flag(self):
        native = Benchmark(
            name="x",
            suite=Suite.SPEC_CINT2006,
            group=Group.NATIVE_NONSCALABLE,
            description="",
            reference_seconds=1.0,
            character=_character(),
        )
        assert not native.managed
        assert native.language is Language.NATIVE


class TestHash:
    """The hash is the name's, which equal benchmarks share."""

    @staticmethod
    def _native(**overrides) -> Benchmark:
        fields = dict(
            name="x",
            suite=Suite.SPEC_CINT2006,
            group=Group.NATIVE_NONSCALABLE,
            description="",
            reference_seconds=1.0,
            character=_character(),
        )
        fields.update(overrides)
        return Benchmark(**fields)

    def test_hash_is_the_name_hash(self):
        assert hash(self._native()) == hash("x")

    def test_equal_benchmarks_hash_equal_and_share_dict_entries(self):
        first, second = self._native(), self._native()
        assert first is not second and first == second
        assert hash(first) == hash(second)
        table = {first: 1, (first, "cfg"): 2}
        assert table[second] == 1
        assert table[(second, "cfg")] == 2
        assert table[pickle.loads(pickle.dumps(first))] == 1
        assert table[dataclasses.replace(first)] == 1

    def test_same_name_different_fields_stay_apart(self):
        first, other = self._native(), self._native(reference_seconds=2.0)
        assert first != other and hash(first) == hash(other)
        table = {first: 1, other: 2}
        assert table[self._native()] == 1
        assert table[self._native(reference_seconds=2.0)] == 2
