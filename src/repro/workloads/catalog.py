"""The assembled 61-benchmark catalog (Table 1).

27 Native Non-scalable (SPEC CPU2006) + 11 Native Scalable (PARSEC) +
18 Java Non-scalable (SPECjvm, DaCapo 06/9.12, pjbb2005) + 5 Java Scalable
(DaCapo 9.12) = 61 benchmarks, grouped and weighted per §2.1/§2.6.
"""

from __future__ import annotations

from typing import Iterable

from repro.workloads.benchmark import Benchmark, Group
from repro.workloads.suites import dacapo, parsec, pjbb2005, spec_cpu2006, specjvm

#: Every benchmark in the study, Table 1 order.
BENCHMARKS: tuple[Benchmark, ...] = (
    spec_cpu2006.BENCHMARKS
    + parsec.BENCHMARKS
    + specjvm.BENCHMARKS
    + dacapo.DACAPO_06
    + dacapo.DACAPO_9_NONSCALABLE
    + pjbb2005.BENCHMARKS
    + dacapo.DACAPO_9_SCALABLE
)

BENCHMARKS_BY_NAME = {b.name: b for b in BENCHMARKS}

if len(BENCHMARKS_BY_NAME) != len(BENCHMARKS):  # pragma: no cover - guard
    raise AssertionError("benchmark names must be unique")


def benchmark(name: str) -> Benchmark:
    """Look up a benchmark by name."""
    try:
        return BENCHMARKS_BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}") from None


def by_group(group: Group) -> tuple[Benchmark, ...]:
    """All benchmarks in one of the four workload groups, Table 1 order."""
    return tuple(b for b in BENCHMARKS if b.group is group)


def groups() -> tuple[Group, ...]:
    """The four groups in the paper's canonical order."""
    return (
        Group.NATIVE_NONSCALABLE,
        Group.NATIVE_SCALABLE,
        Group.JAVA_NONSCALABLE,
        Group.JAVA_SCALABLE,
    )


def single_threaded_java() -> tuple[Benchmark, ...]:
    """The single-threaded Java subset used in Fig. 6."""
    return tuple(
        b for b in by_group(Group.JAVA_NONSCALABLE) if not b.multithreaded
    )


def multithreaded_java() -> tuple[Benchmark, ...]:
    """The multithreaded Java subset whose scalability Fig. 1 plots."""
    return tuple(
        b
        for b in BENCHMARKS
        if b.managed and b.multithreaded
    )


def names(benchmarks: Iterable[Benchmark]) -> tuple[str, ...]:
    """Convenience: the names of a benchmark collection."""
    return tuple(b.name for b in benchmarks)
