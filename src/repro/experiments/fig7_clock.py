"""Fig. 7: the impact of clock scaling (§3.3).

Scales the i7 (45), Core 2D (45), and i5 (32) between their minimum and
maximum clocks (Turbo Boost disabled) and expresses the change in
performance, power, and energy per clock *doubling*, the paper's
normalisation.  Architecture Finding 3: the i5 does not increase energy
consumption as the clock increases, unlike the i7 and Core 2D.
Also regenerates Fig. 7(c)'s energy-versus-performance curves across all
operating points.
"""

from __future__ import annotations

from typing import Optional

from repro.core.aggregation import group_means, per_group_ratio, weighted_average
from repro.core.study import Study
from repro.experiments import paper_data
from repro.experiments.base import (
    ExperimentResult,
    doubling_normalised,
    resolve_study,
)
from repro.experiments.features import compare
from repro.hardware.catalog import CORE2DUO_45, CORE_I5_32, CORE_I7_45
from repro.hardware.config import Configuration
from repro.hardware.processor import ProcessorSpec
from repro.workloads.catalog import BENCHMARKS

#: The three machines the paper clock-scales, at their stock core/thread
#: configurations (Turbo Boost off throughout).
MACHINES: tuple[tuple[str, ProcessorSpec, int, int], ...] = (
    ("i7_45", CORE_I7_45, 4, 2),
    ("c2d_45", CORE2DUO_45, 2, 1),
    ("i5_32", CORE_I5_32, 2, 2),
)


def _config(spec: ProcessorSpec, cores: int, threads: int, ghz: float) -> Configuration:
    return Configuration(spec, cores, threads, ghz)


def doubling_rows(study: Study) -> list[dict[str, object]]:
    """Fig. 7(a): per-doubling percent changes, paper versus measured."""
    rows = []
    for key, spec, cores, threads in MACHINES:
        low_ghz, high_ghz = spec.clock_points_ghz[0], spec.clock_points_ghz[-1]
        effect = compare(
            study,
            _config(spec, cores, threads, high_ghz),
            _config(spec, cores, threads, low_ghz),
            label=f"{spec.label} {high_ghz:g}/{low_ghz:g}GHz",
        )
        frequency_ratio = high_ghz / low_ghz
        paper = paper_data.FIG7_CLOCK_DOUBLING[key]
        rows.append(
            {
                "processor": spec.label,
                "performance_per_doubling": round(
                    doubling_normalised(effect.performance, frequency_ratio) - 1.0, 3
                ),
                "power_per_doubling": round(
                    doubling_normalised(effect.power, frequency_ratio) - 1.0, 3
                ),
                "energy_per_doubling": round(
                    doubling_normalised(effect.energy, frequency_ratio) - 1.0, 3
                ),
                "paper_performance": paper["performance"],
                "paper_power": paper["power"],
                "paper_energy": paper["energy"],
            }
        )
    return rows


def group_energy_rows(study: Study) -> list[dict[str, object]]:
    """Fig. 7(b): per-group energy change per clock doubling."""
    from repro.workloads.catalog import BENCHMARKS as _BENCHMARKS

    rows = []
    for key, spec, cores, threads in MACHINES:
        low_ghz, high_ghz = spec.clock_points_ghz[0], spec.clock_points_ghz[-1]
        high = study.run_config(_config(spec, cores, threads, high_ghz))
        low = study.run_config(_config(spec, cores, threads, low_ghz))
        ratios = per_group_ratio(
            high.values("energy_joules"), low.values("energy_joules"), _BENCHMARKS
        )
        frequency_ratio = high_ghz / low_ghz
        paper = paper_data.FIG7_CLOCK_ENERGY_BY_GROUP[key]
        for group, ratio in ratios.items():
            rows.append(
                {
                    "processor": spec.label,
                    "group": group.value,
                    "energy_per_doubling": round(
                        doubling_normalised(ratio, frequency_ratio) - 1.0, 3
                    ),
                    "paper_energy": paper.get(group),
                }
            )
    return rows


def energy_curve(study: Study, key: str) -> list[tuple[float, float, float]]:
    """Fig. 7(c): (clock GHz, relative performance, relative energy) along
    a machine's operating points, normalised to its lowest clock."""
    spec, cores, threads = next(
        (s, c, t) for k, s, c, t in MACHINES if k == key
    )
    points = []
    base_perf = base_energy = None
    for ghz in spec.clock_points_ghz:
        results = study.run_config(_config(spec, cores, threads, ghz))
        perf = weighted_average(group_means(results.values("speedup"), BENCHMARKS))
        energy = weighted_average(
            group_means(results.values("normalized_energy"), BENCHMARKS)
        )
        if base_perf is None:
            base_perf, base_energy = perf, energy
        points.append((ghz, perf / base_perf, energy / base_energy))
    return points


def run(study: Optional[Study] = None) -> ExperimentResult:
    study = resolve_study(study)
    rows = doubling_rows(study)
    rows.extend(group_energy_rows(study))
    for key, spec, _, _ in MACHINES:
        for ghz, perf, energy in energy_curve(study, key):
            rows.append(
                {
                    "processor": spec.label,
                    "curve_clock_ghz": ghz,
                    "curve_relative_performance": round(perf, 3),
                    "curve_relative_energy": round(energy, 3),
                }
            )
    return ExperimentResult(
        experiment_id="fig7",
        title="Impact of clock scaling (per clock doubling)",
        paper_section="Fig. 7 / Architecture Finding 3 / Workload Finding 3",
        rows=tuple(rows),
    )
