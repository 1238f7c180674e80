"""How well does TDP predict measured power?  (§2.5's question, quantified.)

The paper argues TDP "loosely correlates with power consumption, but it
does not provide a good estimate" for maxima, cross-processor comparison,
or per-benchmark power.  This module fits measured power against TDP and
reports the regression alongside the per-machine prediction errors, so
the looseness has a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.statistics import LinearFit, linear_fit, mean
from repro.core.study import Study
from repro.experiments.base import resolve_study
from repro.hardware.catalog import PROCESSORS
from repro.hardware.config import stock


@dataclass(frozen=True)
class TdpRegression:
    """Measured mean power regressed on TDP across the eight machines."""

    fit: LinearFit
    #: Per-machine (label, tdp, mean measured watts, tdp / mean ratio).
    machines: tuple[tuple[str, float, float, float], ...]

    @property
    def r_squared(self) -> float:
        return self.fit.r_squared

    @property
    def ratio_spread(self) -> float:
        """Max/min of TDP-to-measured ratios: 1.0 would mean TDP ranks
        machines perfectly; the measured spread shows it does not."""
        ratios = [ratio for _, _, _, ratio in self.machines]
        return max(ratios) / min(ratios)


def regress(study: Optional[Study] = None) -> TdpRegression:
    """Fit mean measured power against TDP over the stock machines."""
    study = resolve_study(study)
    tdps: list[float] = []
    powers: list[float] = []
    machines = []
    for spec in PROCESSORS:
        watts = mean(list(study.run_config(stock(spec)).values("watts").values()))
        tdps.append(float(spec.tdp_w))
        powers.append(watts)
        machines.append(
            (spec.label, float(spec.tdp_w), watts, float(spec.tdp_w) / watts)
        )
    return TdpRegression(
        fit=linear_fit(tdps, powers), machines=tuple(machines)
    )
