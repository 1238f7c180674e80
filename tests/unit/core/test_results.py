"""Unit tests for result records and datasets."""

import pytest

from repro.core.results import CSV_COLUMNS, ResultSet, RunResult, from_csv
from repro.core.statistics import ConfidenceInterval
from repro.workloads.benchmark import Group


def _result(name="db", config="i7_45/4C2T@2.66+TB", processor="i7_45",
            seconds=2.0, watts=30.0) -> RunResult:
    ci = ConfidenceInterval(mean=seconds, half_width=0.02, confidence=0.95, n=5)
    pci = ConfidenceInterval(mean=watts, half_width=0.5, confidence=0.95, n=5)
    return RunResult(
        benchmark_name=name,
        group=Group.JAVA_NONSCALABLE,
        processor_key=processor,
        config_key=config,
        seconds=seconds,
        watts=watts,
        speedup=3.4,
        normalized_energy=0.4,
        time_ci=ci,
        power_ci=pci,
        invocations=5,
    )


class TestRunResult:
    def test_energy(self):
        assert _result(seconds=2.0, watts=30.0).energy_joules == pytest.approx(60.0)

    def test_benchmark_lookup(self):
        assert _result("db").benchmark.name == "db"

    def test_metric_access(self):
        r = _result()
        assert r.metric("watts") == 30.0
        assert r.metric("energy_joules") == pytest.approx(60.0)
        with pytest.raises(KeyError):
            r.metric("nope")

    def test_as_row_has_all_csv_columns(self):
        row = _result().as_row()
        assert set(row) == set(CSV_COLUMNS)


class TestResultSet:
    def test_single(self):
        rs = ResultSet([_result("db")])
        assert rs.single().benchmark_name == "db"
        with pytest.raises(ValueError):
            ResultSet([]).single()

    def test_values_projection(self):
        rs = ResultSet([_result("db", watts=10.0), _result("mcf", watts=20.0)])
        assert rs.values("watts") == {"db": 10.0, "mcf": 20.0}

    def test_values_rejects_duplicates(self):
        rs = ResultSet([_result("db"), _result("db", config="i7_45/1C1T@1.6-TB")])
        with pytest.raises(ValueError):
            rs.values("watts")

    def test_config_keys_ordered_unique(self):
        rs = ResultSet([_result("db"), _result("mcf")])
        assert rs.config_keys() == ("i7_45/4C2T@2.66+TB",)

    def test_csv_round_trip(self, tmp_path):
        rs = ResultSet([_result("db"), _result("mcf")])
        path = rs.to_csv(tmp_path / "data.csv")
        records = from_csv(path)
        assert len(records) == 2
        assert records[0]["benchmark"] == "db"
        assert float(records[0]["watts"]) == pytest.approx(30.0)
        assert records[0]["group"] == Group.JAVA_NONSCALABLE.value
