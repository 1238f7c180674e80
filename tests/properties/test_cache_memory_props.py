"""Property-based tests for the cache and memory-path models."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.hardware.caches import capacity_miss_factor, sharing_pressure

footprints = st.floats(min_value=0.0, max_value=512.0, allow_nan=False)
cache_sizes = st.floats(min_value=0.25, max_value=16.0, allow_nan=False)


class TestCacheProperties:
    @given(footprints, cache_sizes)
    def test_factor_positive(self, footprint, llc):
        assert capacity_miss_factor(footprint, llc) > 0.0

    @given(footprints, cache_sizes, cache_sizes)
    def test_bigger_cache_never_more_misses(self, footprint, a, b):
        small, big = sorted((a, b))
        assert capacity_miss_factor(footprint, big) <= capacity_miss_factor(
            footprint, small
        ) + 1e-12

    @given(footprints)
    def test_reference_cache_fixed_point(self, footprint):
        assert capacity_miss_factor(footprint, 4.0) == pytest.approx(1.0)

    @given(st.integers(min_value=1, max_value=64))
    def test_sharing_pressure_at_least_one(self, contexts):
        assert sharing_pressure(contexts) >= 1.0

    @given(st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=32))
    def test_sharing_pressure_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert sharing_pressure(lo) <= sharing_pressure(hi)
