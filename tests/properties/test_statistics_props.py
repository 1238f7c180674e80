"""Property-based tests for the statistics primitives."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.core.statistics import (
    confidence_interval,
    linear_fit,
    mean,
)

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
    min_size=2,
    max_size=50,
)


class TestMeanProperties:
    @given(samples)
    def test_mean_within_range(self, xs):
        assert min(xs) - 1e-6 <= mean(xs) <= max(xs) + 1e-6

    @given(samples, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_mean_shift_equivariant(self, xs, shift):
        assert mean([x + shift for x in xs]) == pytest.approx(
            mean(xs) + shift, abs=1e-3
        )


class TestConfidenceIntervalProperties:
    @given(samples)
    def test_interval_contains_mean(self, xs):
        ci = confidence_interval(xs)
        assert ci.lower <= ci.mean <= ci.upper

    @given(samples)
    def test_width_nonnegative(self, xs):
        assert confidence_interval(xs).half_width >= 0.0

    @given(samples)
    def test_replication_narrows_interval(self, xs):
        one = confidence_interval(xs)
        many = confidence_interval(xs * 4)
        assert many.half_width <= one.half_width + 1e-12


class TestLinearFitProperties:
    lines = st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
    )

    @given(lines, st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=3, max_size=20, unique=True))
    def test_exact_recovery_of_noiseless_line(self, line, xs):
        xs = [float(x) for x in xs]
        intercept, slope = line
        ys = [slope * x + intercept for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(slope, rel=1e-4, abs=1e-5)
        assert fit.intercept == pytest.approx(intercept, rel=1e-3, abs=1e-4)
        assert fit.r_squared >= 0.999
