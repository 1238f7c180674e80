"""Pareto frontier search over the synthesized candidate space.

The driver decomposes every candidate into its homogeneous clusters, runs
the distinct cluster configurations through the *unmodified* Study
pipeline as one ``run_pairs`` sweep — so the supervised worker pool,
result cache, and vectorized kernels all apply — and recombines
cluster measurements into candidate-level (performance, energy) points.

Heterogeneous combination model (docs/projection.md):

* **Scalable** groups saturate every core, so a big+little machine's
  throughput is the sum of the clusters' and its energy-per-work is the
  throughput-weighted mean:
  ``s = s_b + s_l``, ``e = (e_b*s_b + e_l*s_l) / (s_b + s_l)``.
* **Non-scalable** groups cannot use the second cluster: work runs on the
  faster cluster alone while the other is power-gated (dark), so the
  candidate inherits that cluster's speedup and normalized energy.

Measurement happens once per distinct cluster configuration regardless of
how many candidates share it, which is what makes a multi-thousand
candidate search cost only a few hundred engine sweeps.

The dataset serializes to canonical JSON (sorted keys, no whitespace, no
timestamps), so equal searches produce byte-identical files — the property
CI asserts across worker counts, kernel modes, and fault plans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.aggregation import group_means, weighted_average
from repro.core.pareto import TradeoffPoint, fit_frontier, pareto_efficient
from repro.core.study import Study, shared_study
from repro.hardware.config import Configuration
from repro.hardware.configurations import stock_configurations
from repro.projection.synthesize import (
    DEFAULT_NODES,
    Budget,
    Candidate,
    synthesize_candidates,
)
from repro.workloads.benchmark import Benchmark, Group
from repro.workloads.catalog import BENCHMARKS_BY_NAME, groups

#: Two benchmarks per workload group — the projection scoring set.  Small
#: enough that a 2000+-candidate search stays interactive, balanced enough
#: that the paper's equal-weight Avg_w is still over all four groups.
PROJECTION_BENCHMARK_NAMES = (
    "mcf",
    "hmmer",
    "blackscholes",
    "fluidanimate",
    "db",
    "javac",
    "lusearch",
    "xalan",
)

#: Groups whose software scales across every core it is given (§2.1).
SCALABLE_GROUPS = frozenset({Group.NATIVE_SCALABLE, Group.JAVA_SCALABLE})


def projection_benchmarks() -> tuple[Benchmark, ...]:
    """The scoring benchmarks, in their canonical order."""
    return tuple(BENCHMARKS_BY_NAME[name] for name in PROJECTION_BENCHMARK_NAMES)


@dataclass(frozen=True, slots=True)
class CandidateOutcome:
    """A candidate with its aggregate score over the projection set."""

    candidate: Candidate
    performance: float
    energy: float

    @property
    def point(self) -> TradeoffPoint:
        return TradeoffPoint(
            key=self.candidate.key,
            performance=self.performance,
            energy=self.energy,
        )


@dataclass(frozen=True, slots=True)
class MeasuredPoint:
    """A measured-era stock processor scored over the same benchmark set."""

    key: str
    node_nm: int
    performance: float
    energy: float


@dataclass(frozen=True, slots=True)
class NodeFrontier:
    """All scored candidates at one node plus its Pareto-efficient subset."""

    node_nm: int
    outcomes: tuple[CandidateOutcome, ...]
    efficient_keys: tuple[str, ...]

    @property
    def efficient_outcomes(self) -> tuple[CandidateOutcome, ...]:
        wanted = set(self.efficient_keys)
        return tuple(o for o in self.outcomes if o.candidate.key in wanted)

    def best_performance(self) -> float:
        return max(o.performance for o in self.outcomes)

    def best_efficiency(self) -> float:
        """Best performance-per-energy on the frontier (perf/W trend proxy)."""
        return max(o.performance / o.energy for o in self.efficient_outcomes)

    def frontier_series(self, samples: int = 40) -> tuple[tuple[float, float], ...]:
        """The fitted fig12-style curve through the efficient points."""
        points = [o.point for o in self.efficient_outcomes]
        if len(points) < 2:
            return tuple((p.performance, p.energy) for p in points)
        return tuple(fit_frontier(points).series(samples))


@dataclass(frozen=True, slots=True)
class ProjectionDataset:
    """The full deterministic product of one frontier search."""

    seed: int
    samples: int
    budget: Budget
    benchmark_names: tuple[str, ...]
    measured: tuple[MeasuredPoint, ...]
    frontiers: tuple[NodeFrontier, ...]

    def frontier_for(self, node_nm: int) -> NodeFrontier:
        for frontier in self.frontiers:
            if frontier.node_nm == node_nm:
                return frontier
        raise KeyError(f"no frontier for {node_nm} nm in this dataset")

    def candidate_count(self) -> int:
        return sum(len(f.outcomes) for f in self.frontiers)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "seed": self.seed,
            "samples": self.samples,
            "budget": {"area_mm2": self.budget.area_mm2, "tdp_w": self.budget.tdp_w},
            "benchmarks": list(self.benchmark_names),
            "measured": [
                {
                    "key": p.key,
                    "node_nm": p.node_nm,
                    "performance": p.performance,
                    "energy": p.energy,
                }
                for p in self.measured
            ],
            "nodes": [
                {
                    "nm": f.node_nm,
                    "candidates": [
                        {
                            "key": o.candidate.key,
                            "big_cores": o.candidate.big.cores if o.candidate.big else 0,
                            "big_clock_ghz": (
                                o.candidate.big.clock_ghz if o.candidate.big else 0.0
                            ),
                            "little_cores": (
                                o.candidate.little.cores if o.candidate.little else 0
                            ),
                            "little_clock_ghz": (
                                o.candidate.little.clock_ghz
                                if o.candidate.little
                                else 0.0
                            ),
                            "area_mm2": o.candidate.area_mm2,
                            "peak_watts": o.candidate.peak_watts,
                            "dark_fraction": o.candidate.dark_fraction,
                            "performance": o.performance,
                            "energy": o.energy,
                            "efficient": o.candidate.key in set(f.efficient_keys),
                        }
                        for o in f.outcomes
                    ],
                    "efficient": list(f.efficient_keys),
                    "frontier_series": [list(xy) for xy in f.frontier_series()],
                }
                for f in self.frontiers
            ],
        }

    def to_json_bytes(self) -> bytes:
        """Canonical bytes: sorted keys, no whitespace, trailing newline."""
        return (
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("ascii")


def _aggregate(
    per_benchmark: dict[str, tuple[float, float]],
    scoring: Sequence[Benchmark],
) -> dict[Group, tuple[float, float]]:
    """Per-group (speedup, normalized energy) means for one configuration."""
    speedups = group_means({n: v[0] for n, v in per_benchmark.items()}, scoring)
    energies = group_means({n: v[1] for n, v in per_benchmark.items()}, scoring)
    return {g: (speedups[g], energies[g]) for g in speedups}


def _combine(
    candidate: Candidate,
    by_config: dict[str, dict[Group, tuple[float, float]]],
    group_order: Sequence[Group],
) -> CandidateOutcome:
    """Candidate-level score from its clusters' per-group aggregates."""
    cluster_groups = [by_config[c.config.key] for c in candidate.clusters]
    perf: dict[Group, float] = {}
    energy: dict[Group, float] = {}
    for group in group_order:
        values = [cg[group] for cg in cluster_groups if group in cg]
        if not values:
            continue
        if len(values) == 1:
            perf[group], energy[group] = values[0]
        elif group in SCALABLE_GROUPS:
            total = sum(s for s, _ in values)
            perf[group] = total
            energy[group] = sum(e * s for s, e in values) / total
        else:
            # Serial work runs on the faster cluster; the other sleeps.
            perf[group], energy[group] = max(values, key=lambda v: v[0])
    return CandidateOutcome(
        candidate=candidate,
        performance=weighted_average(perf),
        energy=weighted_average(energy),
    )


def search(
    study: Optional[Study] = None,
    nodes: Sequence[int] = DEFAULT_NODES,
    samples: int = 512,
    budget: Budget = Budget(),
    seed: int = 0,
    jobs: Optional[Union[int, str]] = None,
) -> ProjectionDataset:
    """Run the full frontier search and return its deterministic dataset.

    ``samples`` is per node, so the default four-node list searches 2048
    candidates.  ``jobs`` passes straight to ``Study.run_pairs``; any
    worker count (and either kernel mode) produces identical bytes.
    """
    study = study if study is not None else shared_study()
    nodes = tuple(nodes)
    if not nodes:
        raise ValueError("need at least one node to project")
    scoring = projection_benchmarks()
    candidates = {nm: synthesize_candidates(nm, samples, budget, seed) for nm in nodes}

    configs: dict[str, Configuration] = {}
    for nm in nodes:
        for candidate in candidates[nm]:
            for cluster in candidate.clusters:
                configs.setdefault(cluster.config.key, cluster.config)
    measured_configs = stock_configurations()

    pairs = [
        (benchmark, config)
        for config in list(configs.values()) + list(measured_configs)
        for benchmark in scoring
    ]
    results = study.run_pairs(pairs, jobs=jobs)

    per_config: dict[str, dict[str, tuple[float, float]]] = {}
    for result in results:
        per_config.setdefault(result.config_key, {})[result.benchmark_name] = (
            result.speedup,
            result.normalized_energy,
        )
    missing = [
        key
        for key in configs
        if len(per_config.get(key, {})) != len(scoring)
    ]
    if missing:
        raise ValueError(
            f"frontier search is incomplete: {len(missing)} cluster "
            f"configuration(s) lost benchmarks to quarantine, e.g. {missing[:3]}"
        )

    group_order = groups()
    by_config = {
        key: _aggregate(per_benchmark, scoring)
        for key, per_benchmark in per_config.items()
    }

    frontiers = []
    for nm in nodes:
        outcomes = tuple(
            _combine(candidate, by_config, group_order)
            for candidate in candidates[nm]
        )
        efficient = pareto_efficient([o.point for o in outcomes])
        frontiers.append(
            NodeFrontier(
                node_nm=nm,
                outcomes=outcomes,
                efficient_keys=tuple(p.key for p in efficient),
            )
        )

    measured = []
    for config in measured_configs:
        per_benchmark = per_config.get(config.key, {})
        if len(per_benchmark) != len(scoring):
            continue
        per_group = _aggregate(per_benchmark, scoring)
        measured.append(
            MeasuredPoint(
                key=config.key,
                node_nm=config.spec.node.nanometers,
                performance=weighted_average({g: v[0] for g, v in per_group.items()}),
                energy=weighted_average({g: v[1] for g, v in per_group.items()}),
            )
        )

    return ProjectionDataset(
        seed=seed,
        samples=samples,
        budget=budget,
        benchmark_names=PROJECTION_BENCHMARK_NAMES,
        measured=tuple(measured),
        frontiers=tuple(frontiers),
    )
