"""Unit tests for the whole-system clamp-meter contrast."""

import pytest

from repro.core.quantities import Watts
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.measurement.clamp import (
    DESKTOP_PLATFORM,
    NETTOP_PLATFORM,
    SystemPlatform,
    chip_share_of_wall,
    platform_for,
)
from repro.workloads.catalog import benchmark


class TestPlatform:
    def test_wall_exceeds_chip(self):
        wall = DESKTOP_PLATFORM.wall_power(Watts(50.0))
        assert wall.value > 50.0 + DESKTOP_PLATFORM.board_watts

    def test_psu_efficiency_inflates(self):
        lossless = SystemPlatform(board_watts=45.0, psu_efficiency=1.0)
        lossy = SystemPlatform(board_watts=45.0, psu_efficiency=0.7)
        assert lossy.wall_power(Watts(50.0)).value > lossless.wall_power(
            Watts(50.0)
        ).value

    def test_platform_selection(self):
        assert platform_for("atom_45") is NETTOP_PLATFORM
        assert platform_for("i7_45") is DESKTOP_PLATFORM

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemPlatform(board_watts=-1.0)
        with pytest.raises(ValueError):
            SystemPlatform(board_watts=10.0, psu_efficiency=0.0)
        with pytest.raises(ValueError):
            DESKTOP_PLATFORM.wall_power(Watts(-1.0))


class TestChipShare:
    def test_atom_is_a_sliver_of_the_wall(self, engine):
        execution = engine.ideal(benchmark("xalan"), stock(ATOM_45))
        assert chip_share_of_wall(execution) < 0.15

    def test_i7_is_a_large_share(self, engine):
        execution = engine.ideal(benchmark("xalan"), stock(CORE_I7_45))
        assert chip_share_of_wall(execution) > 0.3
