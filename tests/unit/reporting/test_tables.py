"""Unit tests for text-table rendering."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.reporting.tables import (
    format_cell,
    render_experiment,
    render_rows,
)


class TestFormatCell:
    def test_none_is_dash(self):
        assert format_cell(None) == "-"

    def test_float_compact(self):
        assert format_cell(1.23456) == "1.23"

    def test_tuple_joined(self):
        assert format_cell((1, "a")) == "1; a"

    def test_string_passthrough(self):
        assert format_cell("i7 (45)") == "i7 (45)"


class TestRenderRows:
    def test_basic_table(self):
        text = render_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert len(lines) == 4  # header, rule, two rows

    def test_missing_cells_dash(self):
        text = render_rows([{"a": 1}, {"b": 2}])
        assert "-" in text.splitlines()[2]

    def test_column_order_stable(self):
        text = render_rows([{"z": 1, "a": 2}])
        header = text.splitlines()[0].split()
        assert header == ["z", "a"]

    def test_explicit_columns(self):
        text = render_rows([{"a": 1, "b": 2}], columns=("b",))
        assert "a" not in text.splitlines()[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_rows([])


class TestRenderExperiment:
    def _result(self) -> ExperimentResult:
        return ExperimentResult(
            experiment_id="figX",
            title="Test",
            paper_section="Fig. X",
            rows=({"a": 1},),
            notes=("a note",),
        )

    def test_includes_identity_and_notes(self):
        text = render_experiment(self._result())
        assert "Fig. X" in text
        assert "figX" in text
        assert "note: a note" in text

    def test_experiment_result_helpers(self):
        result = ExperimentResult(
            experiment_id="t",
            title="t",
            paper_section="t",
            rows=({"k": "a", "v": 1}, {"k": "b", "v": 2}),
        )
        assert result.columns == ("k", "v")
        assert result.column("v") == [1, 2]
        assert result.row_for("k", "b")["v"] == 2
        with pytest.raises(KeyError):
            result.row_for("k", "missing")
