"""Unit tests for reference normalisation (§2.6)."""

import pytest

from repro.workloads.catalog import benchmark


class TestReferenceTime:
    def test_matches_table1(self, references):
        db = benchmark("db")
        assert references.time_seconds(db) == db.reference_seconds

    def test_speedup_of_reference_time_is_one(self, references):
        db = benchmark("db")
        assert references.speedup(db, db.reference_seconds) == pytest.approx(1.0)

    def test_speedup_inverse_in_time(self, references):
        db = benchmark("db")
        assert references.speedup(db, db.reference_seconds / 2) == pytest.approx(2.0)

    def test_speedup_rejects_nonpositive_time(self, references):
        with pytest.raises(ValueError):
            references.speedup(benchmark("db"), 0.0)


class TestReferenceEnergy:
    def test_positive(self, references):
        assert references.energy_joules(benchmark("mcf")) > 0.0

    def test_cached(self, references):
        mcf = benchmark("mcf")
        assert references.energy_joules(mcf) == references.energy_joules(mcf)

    def test_reference_power_plausible(self, references):
        # Mean of P4 (~45W), C2D65 (~26W), Atom (~2.4W), i5 (~26W): 15-35W.
        for name in ("db", "mcf", "sunflow"):
            bench = benchmark(name)
            power = references.energy_joules(bench) / bench.reference_seconds
            assert 10.0 < power < 40.0

    def test_normalized_energy_of_reference_is_one(self, references):
        db = benchmark("db")
        ref = references.energy_joules(db)
        assert references.normalized_energy(db, ref) == pytest.approx(1.0)

    def test_normalized_energy_rejects_negative(self, references):
        with pytest.raises(ValueError):
            references.normalized_energy(benchmark("db"), -1.0)


class TestCalibrationConsistency:
    def test_mean_reference_machine_time_equals_table1(self, references):
        """The engine's work calibration must close the loop: the mean
        stock run time over the four reference machines is Table 1's
        reference time."""
        from repro.core.statistics import mean
        from repro.hardware.catalog import reference_processors
        from repro.hardware.config import stock

        engine = references.engine
        for name in ("db", "mcf", "fluidanimate", "xalan", "antlr"):
            bench = benchmark(name)
            times = [
                engine.ideal(bench, stock(spec)).seconds.value
                for spec in reference_processors()
            ]
            assert mean(times) == pytest.approx(bench.reference_seconds, rel=1e-6)
