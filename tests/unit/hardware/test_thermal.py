"""Unit tests for the thermal model."""

import pytest

from repro.core.quantities import Watts
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.thermal import (
    T_AMBIENT,
    T_JUNCTION_MAX,
    ThermalModel,
    boost_headroom,
    stock_cooler,
)


class TestThermalModel:
    def test_idle_at_ambient(self):
        model = ThermalModel(theta_ja=0.5)
        assert model.junction_c(Watts(0.0)) == T_AMBIENT

    def test_temperature_linear_in_power(self):
        model = ThermalModel(theta_ja=0.5)
        assert model.junction_c(Watts(40.0)) == pytest.approx(T_AMBIENT + 20.0)

    def test_headroom_sign(self):
        model = ThermalModel(theta_ja=0.5)
        assert model.headroom_c(Watts(100.0)) >= 0.0
        assert model.headroom_c(Watts(150.0)) < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalModel(theta_ja=0.0)
        with pytest.raises(ValueError):
            ThermalModel(theta_ja=0.5).junction_c(Watts(-1.0))


class TestStockCooler:
    def test_tdp_sits_at_junction_limit(self):
        """TDP's definition (§2.5): designed dissipation at the limit."""
        for spec in (CORE_I7_45, ATOM_45):
            cooler = stock_cooler(spec)
            assert cooler.junction_c(Watts(float(spec.tdp_w))) == pytest.approx(
                T_JUNCTION_MAX
            )

    def test_small_parts_get_weaker_coolers(self):
        assert stock_cooler(ATOM_45).theta_ja > stock_cooler(CORE_I7_45).theta_ja


class TestBoostHeadroom:
    def test_idle_full_headroom(self):
        assert boost_headroom(CORE_I7_45, Watts(0.0)) == pytest.approx(1.0)

    def test_tdp_zero_headroom(self):
        assert boost_headroom(CORE_I7_45, Watts(130.0)) == pytest.approx(0.0)

    def test_clamped_below_zero(self):
        assert boost_headroom(CORE_I7_45, Watts(200.0)) == 0.0

    def test_typical_measured_power_leaves_headroom(self):
        """Fig. 2: measured power sits well under TDP, so boost sustains."""
        assert boost_headroom(CORE_I7_45, Watts(60.0)) > 0.4
