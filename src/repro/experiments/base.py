"""Experiment framework: one module per paper table/figure.

Every experiment produces an :class:`ExperimentResult` — an ordered list of
row dicts plus identity — that the benchmark harness renders and
EXPERIMENTS.md records.  Where the paper reports a number, the row carries
both ``paper`` and ``measured`` values so the output is self-auditing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.study import Study, shared_study


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of regenerating one paper artifact."""

    experiment_id: str  # e.g. "table4", "fig7"
    title: str
    paper_section: str
    rows: tuple[Mapping[str, object], ...]
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError(f"{self.experiment_id}: an experiment needs rows")

    @property
    def columns(self) -> tuple[str, ...]:
        ordered: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                ordered.setdefault(key)
        return tuple(ordered)

    def column(self, name: str) -> list[object]:
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, key: object) -> Mapping[str, object]:
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise KeyError(f"{self.experiment_id}: no row with {key_column}={key!r}")


def resolve_study(study: Optional[Study]) -> Study:
    """Use the caller's study or the process-wide shared one."""
    return study if study is not None else shared_study()


def doubling_normalised(ratio: float, frequency_ratio: float) -> float:
    """Express a max-vs-min clock ratio per clock *doubling* (§3.3).

    The paper normalises clock-scaling effects "with respect to doubling
    in clock frequency" so machines with different DVFS ranges compare:
    ``ratio ** (1 / log2(frequency_ratio))``.
    """
    import math

    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if frequency_ratio <= 1.0:
        raise ValueError("frequency ratio must exceed 1")
    return ratio ** (1.0 / math.log2(frequency_ratio))
