"""Unit tests for the memory-path model."""

import pytest

from repro.core.quantities import Hertz
from repro.hardware.catalog import CORE_I7_45
from repro.hardware.memory import (
    miss_latency_cycles,
)


class TestMissLatency:
    def test_cycle_cost_grows_with_clock(self):
        """The fixed-wall-time miss costs more cycles at higher clock —
        why clock scaling is sub-linear (§3.3)."""
        memory = CORE_I7_45.memory
        slow = miss_latency_cycles(memory, Hertz.from_ghz(1.6))
        fast = miss_latency_cycles(memory, Hertz.from_ghz(2.66))
        assert fast / slow == pytest.approx(2.66 / 1.6)

    def test_known_value(self):
        memory = CORE_I7_45.memory
        assert miss_latency_cycles(memory, Hertz.from_ghz(2.0)) == pytest.approx(
            memory.latency_ns * 2.0
        )
