"""Workload substrate: the 61 benchmarks of Table 1 with behavioural
signatures.

Public surface: :mod:`repro.workloads.catalog` plus the
:class:`~repro.workloads.benchmark.Benchmark` family of types.
"""

from repro.workloads.benchmark import Benchmark, Group, Language, Suite
from repro.workloads.catalog import (
    BENCHMARKS,
    BENCHMARKS_BY_NAME,
    benchmark,
    by_group,
    groups,
    multithreaded_java,
    single_threaded_java,
)
from repro.workloads.characteristics import JvmBehavior, WorkloadCharacter

__all__ = [
    "BENCHMARKS",
    "BENCHMARKS_BY_NAME",
    "Benchmark",
    "Group",
    "JvmBehavior",
    "Language",
    "Suite",
    "WorkloadCharacter",
    "benchmark",
    "by_group",
    "groups",
    "multithreaded_java",
    "single_threaded_java",
]
