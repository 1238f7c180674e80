"""The 45-point configuration space of §2.8.

The paper evaluates the eight stock processors plus BIOS-configured variants
for a total of 45 configurations, 29 of which are at the 45 nm node (used by
the Pareto analysis, §4.2).  This module enumerates that space explicitly:
each entry corresponds to a controlled experiment the paper runs (CMP, SMT,
clock scaling, die shrink, microarchitecture matching, Turbo Boost).
"""

from __future__ import annotations

from repro.hardware import catalog
from repro.hardware.config import Configuration, stock
from repro.hardware.processor import ProcessorSpec


def _cfg(
    spec: ProcessorSpec,
    cores: int,
    threads: int,
    clock_ghz: float,
    turbo: bool = False,
) -> Configuration:
    return Configuration(
        spec=spec,
        active_cores=cores,
        threads_per_core=threads,
        clock_ghz=clock_ghz,
        turbo_enabled=turbo,
    )


def _pentium4_configurations() -> list[Configuration]:
    p4 = catalog.PENTIUM4_130
    return [
        stock(p4),  # 1C2T @ 2.4
        _cfg(p4, 1, 1, 2.4),  # SMT disabled (§3.2)
    ]


def _core2duo65_configurations() -> list[Configuration]:
    c2d = catalog.CORE2DUO_65
    return [
        stock(c2d),  # 2C1T @ 2.4
        _cfg(c2d, 1, 1, 2.4),  # single core
    ]


def _core2quad65_configurations() -> list[Configuration]:
    c2q = catalog.CORE2QUAD_65
    return [
        stock(c2q),  # 4C1T @ 2.4
        _cfg(c2q, 2, 1, 2.4),
        _cfg(c2q, 1, 1, 2.4),
    ]


def _i7_configurations() -> list[Configuration]:
    """Nineteen i7 (45) settings: the richest slice of the space.

    Covers every core/thread combination at the clock extremes, the Table 5
    intermediate clocks, and Turbo on/off contrasts at the stock clock.
    """
    i7 = catalog.CORE_I7_45
    configurations: list[Configuration] = []
    for cores in (1, 2, 4):
        for threads in (1, 2):
            configurations.append(_cfg(i7, cores, threads, 1.6))
            configurations.append(_cfg(i7, cores, threads, 2.66))
    configurations.extend(
        [
            _cfg(i7, 4, 2, 2.13),
            _cfg(i7, 4, 2, 2.4),
            _cfg(i7, 1, 2, 2.4),
            # Turbo-enabled contrasts (§3.6).
            _cfg(i7, 1, 1, 2.66, turbo=True),
            _cfg(i7, 2, 2, 2.66, turbo=True),
            _cfg(i7, 4, 1, 2.66, turbo=True),
            _cfg(i7, 4, 2, 2.66, turbo=True),  # stock
        ]
    )
    return configurations


def _atom_configurations() -> list[Configuration]:
    atom = catalog.ATOM_45
    return [
        stock(atom),  # 1C2T @ 1.66
        _cfg(atom, 1, 1, 1.66),
    ]


def _core2duo45_configurations() -> list[Configuration]:
    c2d = catalog.CORE2DUO_45
    return [
        stock(c2d),  # 2C1T @ 3.06
        _cfg(c2d, 2, 1, 1.6),
        _cfg(c2d, 1, 1, 3.06),
        _cfg(c2d, 1, 1, 1.6),
    ]


def _atomd_configurations() -> list[Configuration]:
    atomd = catalog.ATOM_D510_45
    return [
        stock(atomd),  # 2C2T @ 1.66
        _cfg(atomd, 2, 1, 1.66),
        _cfg(atomd, 1, 2, 1.66),
        _cfg(atomd, 1, 1, 1.66),
    ]


def _i5_configurations() -> list[Configuration]:
    i5 = catalog.CORE_I5_32
    return [
        stock(i5),  # 2C2T @ 3.46 + TB
        _cfg(i5, 2, 2, 3.46),  # TB off
        _cfg(i5, 2, 2, 1.2),
        _cfg(i5, 2, 1, 3.46),
        _cfg(i5, 2, 1, 1.2),
        _cfg(i5, 1, 2, 3.46),
        _cfg(i5, 1, 2, 1.2),
        _cfg(i5, 1, 1, 3.46, turbo=True),
        _cfg(i5, 1, 1, 3.46),
    ]


def all_configurations() -> tuple[Configuration, ...]:
    """The full 45-configuration space of the study."""
    configurations: list[Configuration] = []
    configurations.extend(_pentium4_configurations())
    configurations.extend(_core2duo65_configurations())
    configurations.extend(_core2quad65_configurations())
    configurations.extend(_i7_configurations())
    configurations.extend(_atom_configurations())
    configurations.extend(_core2duo45_configurations())
    configurations.extend(_atomd_configurations())
    configurations.extend(_i5_configurations())
    return tuple(configurations)


def stock_configurations() -> tuple[Configuration, ...]:
    """The eight as-shipped configurations, Table 3 order."""
    return tuple(stock(spec) for spec in catalog.PROCESSORS)


def node_45nm_configurations() -> tuple[Configuration, ...]:
    """The 29 configurations of 45 nm parts used by the Pareto study."""
    keys = set(catalog.NODE_45NM_KEYS)
    return tuple(c for c in all_configurations() if c.spec.key in keys)
