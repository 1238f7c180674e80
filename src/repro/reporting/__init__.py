"""Presentation helpers: text tables for experiment results."""

from repro.reporting.tables import (
    format_cell,
    render_experiment,
    render_rows,
)

__all__ = [
    "format_cell",
    "render_experiment",
    "render_rows",
]
