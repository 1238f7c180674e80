"""BIOS-style processor configuration (§2.8).

The paper controls architectural variables by configuring each processor at
the BIOS: disabling cores, disabling SMT, down-clocking, and disabling Turbo
Boost.  :class:`Configuration` captures one such setting and validates it
against the processor's capabilities, exactly as the firmware would refuse
an unsupported combination.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.core.quantities import Hertz, Volts
from repro.hardware.catalog import PROCESSORS_BY_KEY
from repro.hardware.processor import ProcessorSpec
from repro.workloads.benchmark import Benchmark
from repro.workloads.catalog import BENCHMARKS_BY_NAME


class UnsupportedConfigurationError(ValueError):
    """Raised for a configuration the processor cannot express, or a
    benchmark, processor or configuration key the catalog does not hold."""


@dataclass(frozen=True, slots=True)
class Configuration:
    """One experimental processor configuration.

    ``threads_per_core`` is 1 (SMT disabled) or the processor's native SMT
    width; ``clock_ghz`` must be one of the part's selectable operating
    points; ``turbo_enabled`` is only meaningful at the top clock, matching
    §3.6 ("Turbo Boost is only enabled when the processor executes at its
    default highest clock setting").
    """

    spec: ProcessorSpec
    active_cores: int
    threads_per_core: int
    clock_ghz: float
    turbo_enabled: bool = False
    #: Stable identifier, e.g. ``i7_45/4C2T@2.66``; built once here, since
    #: every measured pair reads it several times.  It is derived from the
    #: fields above, so it takes no part in equality or ``repr``, and it
    #: is all that :meth:`__hash__` hashes.
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = self.spec
        if not 1 <= self.active_cores <= spec.cores:
            raise UnsupportedConfigurationError(
                f"{spec.label} has {spec.cores} cores; cannot enable "
                f"{self.active_cores}"
            )
        if self.threads_per_core not in (1, spec.threads_per_core):
            raise UnsupportedConfigurationError(
                f"{spec.label} supports 1 or {spec.threads_per_core} threads "
                f"per core; got {self.threads_per_core}"
            )
        if not spec.supports_clock(self.clock_ghz):
            raise UnsupportedConfigurationError(
                f"{spec.label} has no {self.clock_ghz} GHz operating point "
                f"(available: {spec.clock_points_ghz})"
            )
        if self.turbo_enabled:
            if not spec.has_turbo:
                raise UnsupportedConfigurationError(
                    f"{spec.label} has no Turbo Boost"
                )
            if abs(self.clock_ghz - spec.stock_clock.ghz) > 1e-9:
                raise UnsupportedConfigurationError(
                    "Turbo Boost is only available at the stock clock"
                )
        turbo = "+TB" if self.turbo_enabled else ""
        if spec.has_turbo and not self.turbo_enabled:
            turbo = "-TB"
        object.__setattr__(
            self,
            "key",
            f"{spec.key}/{self.active_cores}C{self.threads_per_core}T"
            f"@{self.clock_ghz:g}{turbo}",
        )

    # -- identity -----------------------------------------------------------

    def __hash__(self) -> int:
        # ``key`` is a function of the fields equality compares, so equal
        # configurations hash equal; hashing it alone skips the field
        # tuple (and the processor spec's own hash) of the generated one.
        return hash(self.key)

    @property
    def label(self) -> str:
        """Display label in the paper's Table 5 style."""
        turbo = ""
        if self.spec.has_turbo and not self.turbo_enabled:
            turbo = " No TB"
        return (
            f"{self.spec.label} {self.active_cores}C{self.threads_per_core}T"
            f"@{self.clock_ghz:g}GHz{turbo}"
        )

    # -- derived quantities -------------------------------------------------

    @property
    def hardware_contexts(self) -> int:
        return self.active_cores * self.threads_per_core

    @property
    def clock(self) -> Hertz:
        return Hertz.from_ghz(self.clock_ghz)

    def voltage(self) -> Volts:
        return self.spec.voltage_at(self.clock)

    # -- derivation helpers -------------------------------------------------

    def with_cores(self, active_cores: int) -> "Configuration":
        return replace(self, active_cores=active_cores)

    def at_clock(self, clock_ghz: float) -> "Configuration":
        turbo = self.turbo_enabled and abs(
            clock_ghz - self.spec.stock_clock.ghz
        ) < 1e-9
        return replace(self, clock_ghz=clock_ghz, turbo_enabled=turbo)


def stock(spec: ProcessorSpec) -> Configuration:
    """The as-shipped configuration of ``spec`` (§2.8 'stock')."""
    return Configuration(
        spec=spec,
        active_cores=spec.cores,
        threads_per_core=spec.threads_per_core,
        clock_ghz=spec.stock_clock.ghz,
        turbo_enabled=spec.has_turbo,
    )


def configure(
    spec: ProcessorSpec,
    *,
    cores: object = None,
    threads: object = None,
    clock: object = None,
    turbo: object = None,
) -> Configuration:
    """``stock(spec)`` with the BIOS settings a caller asked for: what
    ``repro measure`` and ``POST /measure`` build from their inputs.

    ``cores`` is a positive integer, ``threads`` (per core) 1 or 2,
    ``clock`` a finite positive number of GHz and ``turbo`` a bool;
    ``None`` keeps the stock setting.  A value of another kind, or one
    the part cannot express, raises
    :class:`UnsupportedConfigurationError` instead of being coerced into
    some other machine (``True`` is not one core, 2.9 is not two)."""
    config = stock(spec)
    if cores is not None:
        if not _is_int(cores) or cores < 1:
            raise UnsupportedConfigurationError(
                f"cores must be a positive integer, got {cores!r}"
            )
        config = config.with_cores(cores)
    if threads is not None:
        if not _is_int(threads) or threads not in (1, 2):
            raise UnsupportedConfigurationError(
                f"threads must be 1 or 2, got {threads!r}"
            )
        config = replace(config, threads_per_core=threads)
    if clock is not None:
        if (
            not isinstance(clock, (int, float))
            or isinstance(clock, bool)
            or not math.isfinite(clock)
            or clock <= 0
        ):
            raise UnsupportedConfigurationError(
                f"clock must be a finite positive number of GHz, got {clock!r}"
            )
        config = config.at_clock(float(clock))
    if turbo is not None:
        if not isinstance(turbo, bool):
            raise UnsupportedConfigurationError(
                f"turbo must be true or false, got {turbo!r}"
            )
        config = replace(config, turbo_enabled=turbo)
    return config


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: A configuration key as :class:`Configuration` spells it.
_KEY = re.compile(r"([^/]+)/(\d+)C(\d+)T@([\d.]+)([+-]TB)?")


def resolve_pair(
    benchmark: object,
    config_key: object = None,
    processor_key: object = None,
    **settings: object,
) -> tuple[Benchmark, Configuration]:
    """The pair ``repro measure``, ``POST /measure`` and journal recovery
    name: a benchmark, and a configuration key such as
    ``i7_45/4C2T@2.66-TB`` or else a processor set up by
    :func:`configure` ``settings``, never both: a key fixes the processor
    and every setting.  Every failure is an
    :class:`UnsupportedConfigurationError` naming the bad input."""
    bench = BENCHMARKS_BY_NAME.get(str(benchmark))
    if bench is None:
        raise UnsupportedConfigurationError(f"unknown benchmark {benchmark!r}")
    if config_key is not None:
        beside = [
            name
            for name, value in {"processor": processor_key, **settings}.items()
            if value is not None
        ]
        if beside:
            raise UnsupportedConfigurationError(
                f"configuration key {config_key!r} fixes the processor and "
                f"settings; drop {', '.join(map(repr, beside))}"
            )
        return bench, _configuration(str(config_key))
    if processor_key is None:
        raise UnsupportedConfigurationError(
            "need 'config' (a configuration key) or 'processor'"
        )
    spec = PROCESSORS_BY_KEY.get(str(processor_key))
    if spec is None:
        raise UnsupportedConfigurationError(
            f"unknown processor {processor_key!r}; "
            f"known: {sorted(PROCESSORS_BY_KEY)}"
        )
    try:
        return bench, configure(spec, **settings)
    except UnsupportedConfigurationError as exc:
        raise UnsupportedConfigurationError(
            f"unsupported configuration: {exc}"
        ) from None


@lru_cache(maxsize=None)
def _configuration(key: str) -> Configuration:
    """The configuration a key spells: any that ``configure`` builds, not
    only the study's 45, so every journalled request resolves.  Cached,
    because ``POST /measure`` resolves a key per request."""
    match = _KEY.fullmatch(key)
    config = None
    if match is not None:
        spec, cores, threads, clock, turbo = match.groups()
        try:
            config = configure(
                PROCESSORS_BY_KEY[spec],
                cores=int(cores),
                threads=int(threads),
                clock=float(clock),
                turbo=turbo == "+TB",
            )
        except (KeyError, ValueError):
            pass
    if config is None or config.key != key:
        raise UnsupportedConfigurationError(f"unknown configuration key {key!r}")
    return config
