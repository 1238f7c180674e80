"""Unit tests for the unit-safe scalar quantities."""

import pytest

from repro.core.quantities import (
    Hertz,
    Joules,
    Seconds,
    Watts,
    average_power,
    energy,
)


class TestArithmetic:
    def test_same_type_addition(self):
        assert Seconds(2.0) + Seconds(3.0) == Seconds(5.0)

    def test_same_type_subtraction(self):
        assert Watts(5.0) - Watts(2.0) == Watts(3.0)

    def test_cross_type_addition_rejected(self):
        with pytest.raises(TypeError):
            Seconds(1.0) + Watts(1.0)

    def test_cross_type_subtraction_rejected(self):
        with pytest.raises(TypeError):
            Joules(1.0) - Seconds(1.0)

    def test_scaling_by_number(self):
        assert Watts(3.0) * 2 == Watts(6.0)
        assert 2 * Watts(3.0) == Watts(6.0)

    def test_multiplying_quantities_rejected(self):
        with pytest.raises(TypeError):
            Watts(3.0) * Seconds(2.0)

    def test_division_by_number(self):
        assert Joules(10.0) / 4 == Joules(2.5)

    def test_division_same_type_gives_float(self):
        ratio = Watts(10.0) / Watts(4.0)
        assert isinstance(ratio, float)
        assert ratio == 2.5

    def test_division_cross_type_rejected(self):
        with pytest.raises(TypeError):
            Watts(10.0) / Seconds(2.0)

    def test_ordering(self):
        assert Watts(1.0) < Watts(2.0)
        assert max(Seconds(3.0), Seconds(1.0)) == Seconds(3.0)

    def test_float_conversion(self):
        assert float(Hertz(5.0)) == 5.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Watts(float("nan"))

    def test_bool(self):
        assert Watts(1.0)
        assert not Watts(0.0)


class TestConversions:
    def test_energy_is_power_times_time(self):
        assert energy(Watts(10.0), Seconds(3.0)) == Joules(30.0)

    def test_average_power(self):
        assert average_power(Joules(30.0), Seconds(3.0)) == Watts(10.0)

    def test_average_power_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            average_power(Joules(1.0), Seconds(0.0))

    def test_energy_round_trip(self):
        joules = energy(Watts(7.0), Seconds(5.0))
        assert average_power(joules, Seconds(5.0)) == Watts(7.0)


class TestHertz:
    def test_from_ghz(self):
        assert Hertz.from_ghz(2.4) == Hertz(2.4e9)

    def test_ghz_property(self):
        assert Hertz(2.4e9).ghz == pytest.approx(2.4)
