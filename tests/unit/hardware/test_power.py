"""Unit tests for the per-structure power model."""

import pytest

from repro.hardware.catalog import ATOM_45, CORE2DUO_45, CORE_I5_32, CORE_I7_45
from repro.hardware.config import Configuration, stock
from repro.hardware.power import (
    frequency_scale,
    package_power,
    voltage_scale,
)
from repro.hardware.turbo import resolve as resolve_turbo

#: The stock i7 (45) with Turbo Boost off.
_I7_NO_TURBO = Configuration(CORE_I7_45, 4, 2, 2.66)


def _power(config, busy=1.0, util=0.5, activity=1.0, turbo_busy=0):
    turbo = resolve_turbo(config, turbo_busy)
    return package_power(config, busy, util, activity, turbo)


class TestScales:
    def test_stock_scales_are_unity(self):
        config = Configuration(CORE_I7_45, 4, 2, 2.66)
        assert voltage_scale(config) == pytest.approx(1.0)
        assert frequency_scale(config) == pytest.approx(1.0)

    def test_downclocked_scales_below_unity(self):
        config = Configuration(CORE_I7_45, 4, 2, 1.6)
        assert voltage_scale(config) < 1.0
        assert frequency_scale(config) == pytest.approx(1.6 / 2.66)

    def test_fixed_clock_part_always_unity(self):
        config = stock(ATOM_45)
        assert voltage_scale(config) == 1.0
        assert frequency_scale(config) == 1.0

    def test_i5_voltage_swing_is_shallow(self):
        """Architecture Finding 3's mechanism: the i5's effective voltage
        barely moves across its clock range."""
        i5_low = voltage_scale(Configuration(CORE_I5_32, 2, 2, 1.2))
        i7_low = voltage_scale(Configuration(CORE_I7_45, 4, 2, 1.6))
        assert i5_low > i7_low


class TestPackagePower:
    def test_components_positive(self):
        breakdown = _power(_I7_NO_TURBO)
        assert breakdown.uncore.value > 0
        assert breakdown.core_idle.value > 0
        assert breakdown.core_active.value > 0

    def test_total_sums_components(self):
        b = _power(_I7_NO_TURBO)
        assert b.total.value == pytest.approx(
            b.uncore.value + b.core_idle.value + b.core_active.value
        )

    def test_more_busy_cores_more_power(self):
        config = _I7_NO_TURBO
        assert _power(config, busy=4.0).total > _power(config, busy=1.0).total

    def test_enabled_cores_cost_idle_power(self):
        four = _power(Configuration(CORE_I7_45, 4, 1, 2.66), busy=1.0)
        one = _power(Configuration(CORE_I7_45, 1, 1, 2.66), busy=1.0)
        assert four.core_idle.value > one.core_idle.value
        assert four.total.value > one.total.value

    def test_utilisation_raises_power(self):
        config = _I7_NO_TURBO
        assert _power(config, util=0.9).total > _power(config, util=0.1).total

    def test_stalled_core_still_draws(self):
        """A fully stalled busy core keeps its clock toggling."""
        breakdown = _power(_I7_NO_TURBO, util=0.0)
        assert breakdown.core_active.value > 0

    def test_activity_scales_active_power(self):
        config = _I7_NO_TURBO
        hungry = _power(config, activity=1.3).core_active.value
        frugal = _power(config, activity=0.7).core_active.value
        assert hungry / frugal == pytest.approx(1.3 / 0.7)

    def test_downclock_cuts_power(self):
        low = _power(Configuration(CORE_I7_45, 4, 2, 1.6), busy=4.0)
        high = _power(Configuration(CORE_I7_45, 4, 2, 2.66), busy=4.0)
        assert low.total.value < 0.6 * high.total.value

    def test_turbo_multiplies_package(self):
        config = stock(CORE_I7_45)
        boosted = _power(config, turbo_busy=1)
        base = _power(_I7_NO_TURBO)
        assert boosted.total.value == pytest.approx(
            base.total.value * 1.21**2, rel=1e-6
        )

    def test_busy_cores_validated(self):
        config = _I7_NO_TURBO
        with pytest.raises(ValueError):
            _power(config, busy=5.0)
        with pytest.raises(ValueError):
            _power(config, busy=-0.1)

    def test_utilisation_validated(self):
        with pytest.raises(ValueError):
            _power(_I7_NO_TURBO, util=1.5)

    def test_activity_validated(self):
        with pytest.raises(ValueError):
            _power(_I7_NO_TURBO, activity=0.0)

    def test_atom_orders_of_magnitude_below_i7(self):
        atom = _power(stock(ATOM_45), busy=1.0)
        i7 = _power(_I7_NO_TURBO, busy=4.0)
        assert i7.total.value > 10 * atom.total.value

    def test_uncore_partially_tracks_clock(self):
        low = _power(Configuration(CORE2DUO_45, 2, 1, 1.6))
        high = _power(Configuration(CORE2DUO_45, 2, 1, 3.06))
        assert low.uncore.value < high.uncore.value
        assert low.uncore.value > 0.3 * high.uncore.value  # flat floor remains
