"""Unit tests for the statistics primitives (Table 2, §2.5 machinery)."""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import stdtrit

from repro.core.statistics import (
    _T95,
    ConfidenceInterval,
    _t_crit,
    confidence_interval,
    linear_fit,
    mean,
)
from repro.runtime.methodology import protocol_for
from repro.workloads.catalog import BENCHMARKS


class TestMean:
    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_single(self):
        assert mean([5.0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])


class TestConfidenceInterval:
    def test_symmetry(self):
        ci = confidence_interval([9.0, 10.0, 11.0])
        assert ci.upper - ci.mean == pytest.approx(ci.mean - ci.lower)

    def test_single_sample_zero_width(self):
        ci = confidence_interval([10.0])
        assert ci.half_width == 0.0
        assert ci.relative_error == 0.0

    def test_constant_samples_zero_width(self):
        ci = confidence_interval([5.0] * 10)
        assert ci.half_width == 0.0

    def test_more_samples_narrow_the_interval(self):
        few = confidence_interval([9.0, 10.0, 11.0])
        many = confidence_interval([9.0, 10.0, 11.0] * 10)
        assert many.half_width < few.half_width

    def test_relative_error(self):
        ci = confidence_interval([9.0, 10.0, 11.0])
        assert ci.relative_error == pytest.approx(ci.half_width / 10.0)

    def test_known_t_value(self):
        # n=3, 95%: t = 4.303; std = 1; half width = 4.303 / sqrt(3)
        ci = confidence_interval([9.0, 10.0, 11.0])
        assert ci.half_width == pytest.approx(4.303 / math.sqrt(3), rel=1e-3)

    def test_higher_confidence_wider(self):
        samples = [9.0, 10.0, 11.0, 10.5]
        assert (
            confidence_interval(samples, 0.99).half_width
            > confidence_interval(samples, 0.95).half_width
        )

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], confidence=1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([])


def _bits(value: float) -> str:
    return float(value).hex()


#: Whole magnitudes apart, so the pairwise sums round at every step.
_mixed = st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    st.integers(-12, 12),
)
_repeated = st.sampled_from([0.0, -0.0, 1.0, 3.3, 1e-9, 7.25e6, -2.5])


class TestIntervalEqualsNumpy:
    """The interval's mean and spread are ``np.mean`` and
    ``np.std(ddof=1)`` bit for bit, without their wrapper layers."""

    @staticmethod
    def _assert_matches_numpy(samples, confidence):
        arr = np.asarray(samples, dtype=float)
        ci = confidence_interval(samples, confidence)
        n = len(samples)
        assert ci.n == n
        assert _bits(ci.mean) == _bits(np.mean(arr))
        if n == 1:
            assert ci.half_width == 0.0
            return
        std_err = float(np.std(arr, ddof=1)) / math.sqrt(n)
        assert _bits(ci.half_width) == _bits(_t_crit(confidence, n - 1) * std_err)

    @settings(max_examples=400, deadline=None)
    @given(
        samples=st.lists(st.one_of(_mixed, _repeated), min_size=1, max_size=40),
        confidence=st.sampled_from([0.95, 0.9, 0.99]),
    )
    def test_mean_and_std_bit_for_bit(self, samples, confidence):
        self._assert_matches_numpy(samples, confidence)

    @settings(max_examples=100, deadline=None)
    @given(value=st.one_of(_mixed, _repeated), n=st.integers(1, 40))
    def test_repeated_value(self, value, n):
        self._assert_matches_numpy([value] * n, 0.95)


CONFIDENCES = (0.90, 0.95, 0.99)


class TestMemoisedCriticalValue:
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_equals_scipy_bit_for_bit(self, confidence):
        for df in range(1, 41):
            direct = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df))
            assert _t_crit(confidence, df) == direct
            assert _t_crit(confidence, df) == direct  # the memoised answer

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_intervals_unchanged(self, confidence):
        rng = np.random.default_rng(16)
        for n in range(2, 42):
            samples = rng.lognormal(0.0, 0.1, size=n).tolist()
            t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
            expected = ConfidenceInterval(
                mean=mean(samples),
                half_width=t_crit * (float(np.std(samples, ddof=1)) / math.sqrt(n)),
                confidence=confidence,
                n=n,
            )
            assert confidence_interval(samples, confidence) == expected


    def test_equals_scipy_byte_for_byte_over_a_wide_grid(self):
        """``scipy.special.stdtrit`` is what ``scipy.stats.t.ppf``
        evaluates: the same float bits at every confidence and df."""
        for confidence in (0.5, 0.9, 0.95, 0.99, 0.999):
            for df in [*range(1, 400), 1000, 10**5]:
                direct = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df))
                got = _t_crit(confidence, df)
                assert struct.pack("<d", got) == struct.pack("<d", direct), (
                    confidence, df,
                )


class TestPinnedQuantiles:
    def test_table_equals_stdtrit_byte_for_byte(self):
        for df, value in _T95.items():
            direct = float(stdtrit(df, 0.5 + 0.95 / 2.0))
            assert struct.pack("<d", value) == struct.pack("<d", direct), df

    def test_table_covers_every_protocol_df(self):
        """A protocol that grows past the table fails here instead of
        quietly importing scipy again in every campaign process."""
        largest = max(protocol_for(b).invocations for b in BENCHMARKS)
        assert set(range(1, largest)) <= set(_T95)


class TestColdImport:
    def test_full_protocol_sweep_loads_no_scipy(self):
        """A fresh interpreter loading the CLI, the study and the server,
        then measuring one Java and two native benchmarks at the full
        protocol (intervals at df 19, 4 and 2), holds no scipy module."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys\n"
            "import repro.cli, repro.core.study, repro.service.server\n"
            "from repro.core.study import Study\n"
            "from repro.hardware.catalog import processor\n"
            "from repro.hardware.config import stock\n"
            "from repro.workloads.catalog import benchmark\n"
            "chosen = [benchmark(n) for n in ('xalan', 'vips', 'mcf')]\n"
            "results = Study(jobs=None).run([stock(processor('i7_45'))], chosen)\n"
            "print(sorted(r.time_ci.n for r in results))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert result.stdout.split("\n")[:2] == ["[3, 5, 20]", "[]"]


class TestLinearFit:
    def test_perfect_line(self):
        fit = linear_fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noise_reduces_r_squared(self):
        clean = linear_fit([0, 1, 2, 3], [0, 2, 4, 6])
        noisy = linear_fit([0, 1, 2, 3], [0, 2.5, 3.5, 6])
        assert noisy.r_squared < clean.r_squared

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [1.0, 2.0])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [1.0])


class TestMedianAbsDeviation:
    def test_known_value(self):
        from repro.core.statistics import median_abs_deviation

        # median 3; |x - 3| = [2, 1, 0, 1, 2] whose median is 1.
        assert median_abs_deviation([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0

    def test_constant_samples_have_zero_mad(self):
        from repro.core.statistics import median_abs_deviation

        assert median_abs_deviation([7.0, 7.0, 7.0, 7.0]) == 0.0


class TestMadOutlierIndices:
    def test_flags_the_gross_outlier(self):
        from repro.core.statistics import mad_outlier_indices

        samples = [10.0, 10.1, 9.9, 10.05, 50.0]
        assert mad_outlier_indices(samples) == (4,)

    def test_clean_samples_flag_nothing(self):
        from repro.core.statistics import mad_outlier_indices

        assert mad_outlier_indices([10.0, 10.1, 9.9, 10.05]) == ()

    def test_small_and_degenerate_samples_are_never_flagged(self):
        from repro.core.statistics import mad_outlier_indices

        # Fewer than four samples: no robust scale estimate.
        assert mad_outlier_indices([1.0, 100.0, 1.0]) == ()
        # Zero MAD (majority identical): the screen abstains rather than
        # dividing by zero and flagging everything off-median.
        assert mad_outlier_indices([5.0, 5.0, 5.0, 5.0, 9.0]) == ()

    def test_threshold_tightens_the_screen(self):
        from repro.core.statistics import mad_outlier_indices

        samples = [10.0, 10.4, 9.6, 10.2, 9.8, 11.5]
        loose = mad_outlier_indices(samples, threshold=10.0)
        tight = mad_outlier_indices(samples, threshold=2.0)
        assert set(loose) <= set(tight)
