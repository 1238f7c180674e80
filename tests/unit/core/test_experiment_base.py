"""Unit tests for the experiment framework helpers."""

import pytest

from repro.experiments.base import (
    ExperimentResult,
    doubling_normalised,
)
from repro.experiments.features import FeatureEffect, effect_row, group_energy_rows
from repro.workloads.benchmark import Group


class TestDoublingNormalisation:
    def test_exact_doubling_is_identity(self):
        assert doubling_normalised(1.8, 2.0) == pytest.approx(1.8)

    def test_quadrupling_takes_square_root(self):
        assert doubling_normalised(4.0, 4.0) == pytest.approx(2.0)

    def test_sub_doubling_extrapolates(self):
        # A 1.41x frequency span showing 1.5x must be steeper per doubling.
        assert doubling_normalised(1.5, 2.0**0.5) == pytest.approx(2.25)

    def test_unity_ratio_stays_unity(self):
        assert doubling_normalised(1.0, 1.66) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            doubling_normalised(0.0, 2.0)
        with pytest.raises(ValueError):
            doubling_normalised(1.5, 1.0)


class TestExperimentResult:
    def test_requires_rows(self):
        with pytest.raises(ValueError):
            ExperimentResult("x", "t", "s", rows=())


class TestFeatureRows:
    def _effect(self) -> FeatureEffect:
        return FeatureEffect(
            label="x",
            numerator="a",
            denominator="b",
            performance=1.3,
            power=1.5,
            energy=1.1,
            energy_by_group={Group.NATIVE_SCALABLE: 0.9},
        )

    def test_effect_row_shape(self):
        row = effect_row(self._effect(), {"performance": 1.32, "power": 1.57,
                                          "energy": 1.12})
        assert row["performance"] == 1.3
        assert row["paper_power"] == 1.57

    def test_effect_row_without_paper(self):
        row = effect_row(self._effect())
        assert "paper_power" not in row

    def test_group_energy_rows(self):
        rows = group_energy_rows(self._effect(), {Group.NATIVE_SCALABLE: 0.87})
        assert rows[0]["group"] == Group.NATIVE_SCALABLE.value
        assert rows[0]["energy"] == 0.9
        assert rows[0]["paper_energy"] == 0.87
