"""Statistics used by the paper's methodology (§2.1, §2.5, §2.6).

The paper reports arithmetic means over repeated executions, 95 % confidence
intervals on time and power (Table 2), and least-squares linear fits with an
R² quality criterion for sensor calibration (§2.5).  This module implements
those primitives on plain sequences of floats so every substrate can share
them.  The 95 % Student-t quantiles the protocol's intervals need are
pinned in ``_T95``, so a default-protocol process never imports scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sample set."""
    if len(samples) == 0:
        raise ValueError("mean of empty sample set")
    return float(np.mean(np.asarray(samples, dtype=float)))


def sample_std(samples: Sequence[float]) -> float:
    """Unbiased (n-1) sample standard deviation; zero for a single sample."""
    if len(samples) == 0:
        raise ValueError("std of empty sample set")
    if len(samples) == 1:
        return 0.0
    return float(np.std(np.asarray(samples, dtype=float), ddof=1))


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a sample mean."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_error(self) -> float:
        """Half-width as a fraction of the mean — the quantity in Table 2."""
        if self.mean == 0.0:
            return 0.0
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    The paper reports 95 % intervals aggregated over benchmarks and
    configurations (Table 2).  With a single sample the half-width is zero by
    convention (no dispersion information).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1): {confidence}")
    n = len(samples)
    if n == 0:
        raise ValueError("mean of empty sample set")
    # np.mean and np.std(ddof=1) without their wrapper layers, in the
    # same steps: one pairwise sum for the mean, then one over the
    # squared deviations from it, so both agree with them bit for bit.
    arr = np.asarray(samples, dtype=float)
    centre = float(np.add.reduce(arr)) / n
    if n == 1:
        return ConfidenceInterval(mean=centre, half_width=0.0, confidence=confidence, n=1)
    arr = arr - centre
    np.square(arr, out=arr)
    std_err = math.sqrt(float(np.add.reduce(arr)) / (n - 1)) / math.sqrt(n)
    return ConfidenceInterval(
        mean=centre,
        half_width=_t_crit(confidence, n - 1) * std_err,
        confidence=confidence,
        n=n,
    )


#: ``scipy.special.stdtrit(df, 0.5 + 0.95 / 2.0)`` for df 1-19, the exact
#: bits scipy returns.  The paper's protocol (§2.1, §2.2) takes 20 Java
#: invocations and 3 or 5 native executions, so every interval a study at
#: ``invocation_scale <= 1`` computes reads this table, and no such
#: process imports scipy.
_T95 = {
    1: float.fromhex("0x1.96993aacc4d1ep+3"),
    2: float.fromhex("0x1.135ea98e146b9p+2"),
    3: float.fromhex("0x1.975a66893c1a7p+1"),
    4: float.fromhex("0x1.63628d9efb5dep+1"),
    5: float.fromhex("0x1.4908d359dff38p+1"),
    6: float.fromhex("0x1.393468546e668p+1"),
    7: float.fromhex("0x1.2eac01e9f5b1ap+1"),
    8: float.fromhex("0x1.272b24bc92428p+1"),
    9: float.fromhex("0x1.218e5dac50b23p+1"),
    10: float.fromhex("0x1.1d33a7661d302p+1"),
    11: float.fromhex("0x1.19b9e1b8c996cp+1"),
    12: float.fromhex("0x1.16e356bbc352dp+1"),
    13: float.fromhex("0x1.1486f5cb67d3bp+1"),
    14: float.fromhex("0x1.12885ec4c0667p+1"),
    15: float.fromhex("0x1.10d356b5a06c2p+1"),
    16: float.fromhex("0x1.0f590e8d62dd7p+1"),
    17: float.fromhex("0x1.0e0e6fd5b155ep+1"),
    18: float.fromhex("0x1.0ceb036f23f31p+1"),
    19: float.fromhex("0x1.0be83653b666cp+1"),
}


@functools.lru_cache(maxsize=256)
def _t_crit(confidence: float, df: int) -> float:
    """The two-sided Student-t critical value: the ``0.5 + confidence/2``
    quantile of Student's t with ``df`` degrees of freedom.

    95 % at df 1-19 is read from ``_T95``.  Any other pair is
    ``scipy.special.stdtrit``, imported on first use: the function
    ``scipy.stats.t.ppf`` evaluates (scipy's ``t`` distribution computes
    its quantile as ``stdtrit(df, q)`` and only adds ``* 1.0 + 0.0``), so
    every value is the same float as before.  A campaign asks for a
    handful of ``(confidence, df)`` values thousands of times, hence the
    memo."""
    if confidence == 0.95 and df in _T95:
        return _T95[df]
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + confidence / 2.0))


@dataclass(frozen=True, slots=True)
class LinearFit:
    """A least-squares line ``y = slope * x + intercept`` with fit quality."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept

    def invert(self, y: float) -> float:
        """Solve ``y = slope * x + intercept`` for ``x``.

        Used by sensor calibration to map logged codes back to current.
        """
        if abs(self.slope) < 1e-12:
            raise ValueError("cannot invert a flat fit")
        return (y - self.intercept) / self.slope


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares linear fit, as used for sensor calibration (§2.5).

    The paper records 28 reference currents and their sensor codes, fits a
    line per sensor, and requires R² of 0.999 or better.
    """
    if len(xs) != len(ys):
        raise ValueError("x and y sample counts differ")
    if len(xs) < 2:
        raise ValueError("need at least two points for a linear fit")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


def median_abs_deviation(samples: Sequence[float]) -> float:
    """Median absolute deviation from the median (unscaled)."""
    if len(samples) == 0:
        raise ValueError("MAD of empty sample set")
    arr = np.asarray(samples, dtype=float)
    return float(np.median(np.abs(arr - np.median(arr))))


#: Consistency constant mapping MAD to the normal sigma (Iglewicz-Hoaglin).
_MAD_TO_SIGMA = 0.6745


def mad_outlier_indices(
    samples: Sequence[float], threshold: float = 3.5
) -> tuple[int, ...]:
    """Indices whose modified z-score ``0.6745 * |x - med| / MAD`` exceeds
    ``threshold`` — the robust screen the study uses to spot invocations a
    sensor glitch or saturation burst has corrupted.

    A zero MAD (at least half the samples identical) yields no outliers:
    with the majority in exact agreement there is no robust scale to
    judge deviation against, and flagging everything else would turn the
    screen into a trigger-happy re-measure loop.  Fewer than four samples
    also yield none (the median of three is too easily dragged).
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if len(samples) < 4:
        return ()
    arr = np.asarray(samples, dtype=float)
    mad = median_abs_deviation(arr)
    if mad == 0.0:
        return ()
    scores = _MAD_TO_SIGMA * np.abs(arr - np.median(arr)) / mad
    return tuple(int(i) for i in np.flatnonzero(scores > threshold))


def geometric_mean(samples: Sequence[float]) -> float:
    """Geometric mean of strictly positive samples.

    Not used for the paper's headline aggregates (which are arithmetic over
    normalised scores) but provided for sensitivity analyses.
    """
    if len(samples) == 0:
        raise ValueError("geometric mean of empty sample set")
    arr = np.asarray(samples, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("geometric mean requires positive samples")
    return float(np.exp(np.mean(np.log(arr))))


def relative_range(samples: Sequence[float]) -> float:
    """(max - min) / min — e.g. the ~30 % min-to-max power spread on Atom."""
    if len(samples) == 0:
        raise ValueError("relative range of empty sample set")
    low = min(samples)
    if low <= 0.0:
        raise ValueError("relative range requires positive samples")
    return (max(samples) - low) / low
