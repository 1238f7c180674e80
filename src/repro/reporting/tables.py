"""Plain-text rendering of experiment results.

The benchmark harness prints each regenerated table/figure as an aligned
ASCII table so the paper-versus-measured comparison is readable in test
logs and terminals.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.experiments.base import ExperimentResult


def format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3g}"
    if isinstance(value, tuple):
        return "; ".join(format_cell(v) for v in value)
    return str(value)


def render_rows(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    max_width: int = 48,
) -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        raise ValueError("nothing to render")
    if columns is None:
        ordered: dict[str, None] = {}
        for row in rows:
            for key in row:
                ordered.setdefault(key)
        columns = tuple(ordered)
    cells = [
        [format_cell(row.get(column))[:max_width] for column in columns]
        for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in cells))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in cells
    )
    return f"{header}\n{rule}\n{body}"


def render_experiment(result: ExperimentResult) -> str:
    """Full text block for one regenerated artifact."""
    parts = [
        f"== {result.paper_section}: {result.title} [{result.experiment_id}] ==",
        render_rows(result.rows),
    ]
    for note in result.notes:
        parts.append(f"note: {note}")
    return "\n".join(parts)
