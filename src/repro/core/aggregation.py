"""Aggregation over benchmarks and workload groups (§2.6).

"We report results for each group by taking the arithmetic mean of the
benchmarks within the group.  We use the mean of the four groups for the
overall average.  This aggregation avoids bias due to the varying number
of benchmarks within each group (from 5 to 27)."

Table 4 also reports the simple benchmark mean (Avg_b) next to the
group-weighted mean (Avg_w); both are provided here.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.statistics import mean
from repro.workloads.benchmark import Benchmark, Group


def group_means(
    values: Mapping[str, float],
    benchmarks: Iterable[Benchmark],
) -> dict[Group, float]:
    """Arithmetic mean of ``values`` (keyed by benchmark name) per group.

    Groups with no benchmark present in ``values`` are omitted rather than
    reported as zero.
    """
    by_group: dict[Group, list[float]] = {}
    for benchmark in benchmarks:
        if benchmark.name in values:
            by_group.setdefault(benchmark.group, []).append(values[benchmark.name])
    return {group: mean(samples) for group, samples in by_group.items()}


def weighted_average(per_group: Mapping[Group, float]) -> float:
    """The paper's Avg_w: the unweighted mean of the (equal-weight) group
    means, computed over the groups present."""
    if not per_group:
        raise ValueError("no groups to average")
    return mean(list(per_group.values()))


def benchmark_average(values: Mapping[str, float]) -> float:
    """The paper's Avg_b: plain mean over individual benchmarks."""
    if not values:
        raise ValueError("no benchmarks to average")
    return mean(list(values.values()))


def full_aggregate(
    values: Mapping[str, float],
    benchmarks: Iterable[Benchmark],
) -> dict[str, float]:
    """Table 4's row shape: per-group means, Avg_w, Avg_b, min, and max."""
    benchmarks = list(benchmarks)
    per_group = group_means(values, benchmarks)
    row: dict[str, float] = {group.value: value for group, value in per_group.items()}
    row["Avg_w"] = weighted_average(per_group)
    row["Avg_b"] = benchmark_average(values)
    row["Min"] = min(values.values())
    row["Max"] = max(values.values())
    return row


def ratio_of_aggregates(
    numerator: Mapping[str, float],
    denominator: Mapping[str, float],
    benchmarks: Iterable[Benchmark],
    combine: Callable[[Mapping[Group, float]], float] = weighted_average,
) -> float:
    """Aggregate ratio used by the feature analyses (§3).

    The paper's feature charts (e.g. "2 cores / 1 core") aggregate
    per-benchmark ratios into group means and then average the groups.
    """
    benchmarks = list(benchmarks)
    ratios = {
        name: numerator[name] / denominator[name]
        for name in numerator
        if name in denominator
    }
    if not ratios:
        raise ValueError("no overlapping benchmarks between the two sides")
    return combine(group_means(ratios, benchmarks))


def per_group_ratio(
    numerator: Mapping[str, float],
    denominator: Mapping[str, float],
    benchmarks: Iterable[Benchmark],
) -> dict[Group, float]:
    """Group-mean of per-benchmark ratios (the §3 per-workload panels)."""
    benchmarks = list(benchmarks)
    ratios = {
        name: numerator[name] / denominator[name]
        for name in numerator
        if name in denominator
    }
    return group_means(ratios, benchmarks)
