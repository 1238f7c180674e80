"""Benchmark identity: Table 1's rows.

Each benchmark belongs to one of six source suites and to one of the four
equally-weighted workload groups the paper defines in §2.1:
Native/Java x Scalable/Non-scalable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.workloads.characteristics import JvmBehavior, WorkloadCharacter


class Language(enum.Enum):
    """Implementation-language class (the paper's native/managed axis)."""

    NATIVE = "native"  # C, C++, Fortran, compiled ahead of time
    JAVA = "java"  # managed, JIT compiled, garbage collected


class Suite(enum.Enum):
    """Source suite, with the paper's Table 1 abbreviation as value."""

    SPEC_CINT2006 = "SI"
    SPEC_CFP2006 = "SF"
    PARSEC = "PA"
    SPECJVM = "SJ"
    DACAPO_06 = "D6"
    DACAPO_9 = "D9"
    PJBB2005 = "JB"


class Group(enum.Enum):
    """The four equally-weighted workload groups (§2.1)."""

    NATIVE_NONSCALABLE = "Native Non-scalable"
    NATIVE_SCALABLE = "Native Scalable"
    JAVA_NONSCALABLE = "Java Non-scalable"
    JAVA_SCALABLE = "Java Scalable"

    @property
    def language(self) -> Language:
        if self in (Group.NATIVE_NONSCALABLE, Group.NATIVE_SCALABLE):
            return Language.NATIVE
        return Language.JAVA

    @property
    def scalable(self) -> bool:
        return self in (Group.NATIVE_SCALABLE, Group.JAVA_SCALABLE)


@dataclass(frozen=True, slots=True)
class Benchmark:
    """One Table 1 row: identity plus behavioural signature."""

    name: str
    suite: Suite
    group: Group
    description: str
    #: Reference running time in seconds (Table 1's "Time" column): the
    #: average of the benchmark's run time on the four reference machines.
    reference_seconds: float
    character: WorkloadCharacter
    jvm: Optional[JvmBehavior] = None

    def __post_init__(self) -> None:
        if self.reference_seconds <= 0:
            raise ValueError(f"{self.name}: reference time must be positive")
        if self.group.language is Language.JAVA and self.jvm is None:
            raise ValueError(f"{self.name}: Java benchmarks need a JvmBehavior")
        if self.group.language is Language.NATIVE and self.jvm is not None:
            raise ValueError(f"{self.name}: native benchmarks have no JVM")
        if self.group.scalable and self.character.software_threads == 1:
            raise ValueError(f"{self.name}: scalable benchmark is single-threaded")

    def __hash__(self) -> int:
        # Equal benchmarks have equal names; hashing the name alone skips
        # the tuple of every field the generated hash would build.
        return hash(self.name)

    @property
    def language(self) -> Language:
        return self.group.language

    @property
    def managed(self) -> bool:
        return self.language is Language.JAVA

    @property
    def multithreaded(self) -> bool:
        return self.character.software_threads != 1
