"""Result records and datasets.

The paper publishes its dataset as CSV in the ACM Digital Library; this
module is that dataset's schema: one :class:`RunResult` per (benchmark,
configuration), with measured time and power, confidence intervals, and
the normalised metrics every analysis consumes, plus a queryable
:class:`ResultSet` container with CSV export.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional

from repro.core.statistics import ConfidenceInterval
from repro.workloads.benchmark import Benchmark, Group
from repro.workloads.catalog import BENCHMARKS_BY_NAME

CSV_COLUMNS = (
    "benchmark",
    "group",
    "processor",
    "configuration",
    "seconds",
    "watts",
    "energy_joules",
    "speedup",
    "normalized_energy",
    "time_ci_relative",
    "power_ci_relative",
    "invocations",
)


@dataclass(frozen=True, slots=True)
class RunResult:
    """Measured outcome of one benchmark on one configuration."""

    benchmark_name: str
    group: Group
    processor_key: str
    config_key: str
    seconds: float
    watts: float
    speedup: float
    normalized_energy: float
    time_ci: ConfidenceInterval
    power_ci: ConfidenceInterval
    invocations: int

    @property
    def energy_joules(self) -> float:
        return self.seconds * self.watts

    @property
    def benchmark(self) -> Benchmark:
        return BENCHMARKS_BY_NAME[self.benchmark_name]

    def metric(self, name: str) -> float:
        """Access a numeric field by the names analyses use."""
        if name in ("seconds", "watts", "speedup", "normalized_energy"):
            return getattr(self, name)
        if name == "energy_joules":
            return self.energy_joules
        raise KeyError(f"unknown metric {name!r}")

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark_name,
            "group": self.group.value,
            "processor": self.processor_key,
            "configuration": self.config_key,
            "seconds": f"{self.seconds:.6g}",
            "watts": f"{self.watts:.6g}",
            "energy_joules": f"{self.energy_joules:.6g}",
            "speedup": f"{self.speedup:.6g}",
            "normalized_energy": f"{self.normalized_energy:.6g}",
            "time_ci_relative": f"{self.time_ci.relative_error:.6g}",
            "power_ci_relative": f"{self.power_ci.relative_error:.6g}",
            "invocations": self.invocations,
        }

    # -- checkpoint round-trip ------------------------------------------------

    def as_record(self) -> dict[str, object]:
        """A JSON-safe record that reconstructs this result *exactly* —
        full-precision floats, unlike the ``%.6g``-rounded CSV row — so a
        resumed campaign is byte-identical to an uninterrupted one."""
        return {
            "benchmark": self.benchmark_name,
            "group": self.group.value,
            "processor": self.processor_key,
            "configuration": self.config_key,
            "seconds": self.seconds,
            "watts": self.watts,
            "speedup": self.speedup,
            "normalized_energy": self.normalized_energy,
            "time_ci": _ci_record(self.time_ci),
            "power_ci": _ci_record(self.power_ci),
            "invocations": self.invocations,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "RunResult":
        return cls(
            benchmark_name=str(record["benchmark"]),
            group=Group(record["group"]),
            processor_key=str(record["processor"]),
            config_key=str(record["configuration"]),
            seconds=float(record["seconds"]),  # type: ignore[arg-type]
            watts=float(record["watts"]),  # type: ignore[arg-type]
            speedup=float(record["speedup"]),  # type: ignore[arg-type]
            normalized_energy=float(record["normalized_energy"]),  # type: ignore[arg-type]
            time_ci=_ci_from_record(record["time_ci"]),  # type: ignore[arg-type]
            power_ci=_ci_from_record(record["power_ci"]),  # type: ignore[arg-type]
            invocations=int(record["invocations"]),  # type: ignore[arg-type]
        )


def _ci_record(ci: ConfidenceInterval) -> dict[str, object]:
    return {
        "mean": ci.mean,
        "half_width": ci.half_width,
        "confidence": ci.confidence,
        "n": ci.n,
    }


def _ci_from_record(record: Mapping[str, object]) -> ConfidenceInterval:
    return ConfidenceInterval(
        mean=float(record["mean"]),  # type: ignore[arg-type]
        half_width=float(record["half_width"]),  # type: ignore[arg-type]
        confidence=float(record["confidence"]),  # type: ignore[arg-type]
        n=int(record["n"]),  # type: ignore[arg-type]
    )


@dataclass(frozen=True, slots=True)
class QuarantineEntry:
    """One (benchmark, configuration) pair the campaign gave up on."""

    benchmark_name: str
    config_key: str
    reason: str

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark_name,
            "configuration": self.config_key,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class CampaignHealth:
    """What it took to produce a :class:`ResultSet`.

    The paper silently re-ran failing invocations; this report makes the
    recovery auditable: how many pairs were measured, answered from cache
    or a checkpoint, how many invocation retries and outlier
    re-measurements happened, which failure types were seen, and which
    pairs exhausted their retries and were quarantined.
    """

    attempted_pairs: int = 0
    measured_pairs: int = 0
    cached_pairs: int = 0
    restored_pairs: int = 0
    retries: int = 0
    remeasured_outliers: int = 0
    failures: Mapping[str, int] = field(default_factory=dict)
    quarantined: tuple[QuarantineEntry, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every attempted pair produced a result."""
        return not self.quarantined

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())

    def merged(self, other: "CampaignHealth") -> "CampaignHealth":
        failures = dict(self.failures)
        for name, count in other.failures.items():
            failures[name] = failures.get(name, 0) + count
        return CampaignHealth(
            attempted_pairs=self.attempted_pairs + other.attempted_pairs,
            measured_pairs=self.measured_pairs + other.measured_pairs,
            cached_pairs=self.cached_pairs + other.cached_pairs,
            restored_pairs=self.restored_pairs + other.restored_pairs,
            retries=self.retries + other.retries,
            remeasured_outliers=self.remeasured_outliers + other.remeasured_outliers,
            failures=failures,
            quarantined=(*self.quarantined, *other.quarantined),
        )

    def summary(self) -> str:
        """A one-paragraph human summary for CLI output."""
        lines = [
            f"campaign health: {self.measured_pairs} measured, "
            f"{self.cached_pairs} cached, {self.restored_pairs} restored "
            f"from checkpoint of {self.attempted_pairs} pairs",
            f"  retries: {self.retries}; outliers re-measured: "
            f"{self.remeasured_outliers}; failures seen: {self.total_failures}",
        ]
        for name in sorted(self.failures):
            lines.append(f"    {name}: {self.failures[name]}")
        if self.quarantined:
            lines.append(f"  quarantined ({len(self.quarantined)}):")
            for entry in self.quarantined:
                lines.append(
                    f"    {entry.benchmark_name} @ {entry.config_key}: "
                    f"{entry.reason}"
                )
        else:
            lines.append("  quarantined: none")
        return "\n".join(lines)


class ResultSet:
    """An immutable queryable collection of :class:`RunResult`.

    A set produced by a resilient campaign carries the
    :class:`CampaignHealth` that produced it; filtered views do not (a
    subset is no longer the campaign the health report describes).
    """

    def __init__(
        self,
        results: Iterable[RunResult],
        health: Optional[CampaignHealth] = None,
    ) -> None:
        self._results = tuple(results)
        self._health = health

    @property
    def health(self) -> Optional[CampaignHealth]:
        return self._health

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self._results)

    def __len__(self) -> int:
        return len(self._results)

    def __bool__(self) -> bool:
        return bool(self._results)

    # -- selection ------------------------------------------------------------

    def where(self, predicate: Callable[[RunResult], bool]) -> "ResultSet":
        return ResultSet(r for r in self._results if predicate(r))

    def single(self) -> RunResult:
        """The only result, asserting there is exactly one."""
        if len(self._results) != 1:
            raise ValueError(f"expected exactly one result, got {len(self._results)}")
        return self._results[0]

    # -- projection -----------------------------------------------------------

    def values(self, metric: str) -> dict[str, float]:
        """``benchmark name -> metric`` for this (usually filtered) set.

        Raises if a benchmark appears twice — callers must narrow to one
        configuration per benchmark before projecting.
        """
        projected: dict[str, float] = {}
        for result in self._results:
            if result.benchmark_name in projected:
                raise ValueError(
                    f"{result.benchmark_name} appears more than once; filter "
                    "to a single configuration before projecting values"
                )
            projected[result.benchmark_name] = result.metric(metric)
        return projected

    def benchmarks(self) -> tuple[Benchmark, ...]:
        seen: dict[str, Benchmark] = {}
        for result in self._results:
            seen.setdefault(result.benchmark_name, result.benchmark)
        return tuple(seen.values())

    def config_keys(self) -> tuple[str, ...]:
        ordered: dict[str, None] = {}
        for result in self._results:
            ordered.setdefault(result.config_key)
        return tuple(ordered)

    # -- export ----------------------------------------------------------------

    def to_csv(self, path: Path | str) -> Path:
        """Write the dataset in the companion-CSV shape."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for result in self._results:
                writer.writerow(result.as_row())
        return path


def from_csv(path: Path | str) -> list[Mapping[str, str]]:
    """Read back an exported dataset as raw string records."""
    path = Path(path)
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))
