"""Unit tests for frontier combination and dataset serialization.

Everything here is pure — no engine sweeps.  The end-to-end search (and
its byte-identity guarantee) lives in ``tests/integration/test_projection``.
"""

import json

import pytest

from repro.projection.frontier import (
    PROJECTION_BENCHMARK_NAMES,
    CandidateOutcome,
    MeasuredPoint,
    NodeFrontier,
    ProjectionDataset,
    _combine,
    projection_benchmarks,
)
from repro.projection.synthesize import Budget, _assemble
from repro.workloads.benchmark import Group
from repro.workloads.catalog import groups


def _candidate(big_cores=2, little_cores=4):
    candidate = _assemble(22, big_cores, 2.8, little_cores, 1.6, Budget())
    assert candidate is not None
    return candidate


def _outcome(candidate, performance, energy):
    return CandidateOutcome(candidate=candidate, performance=performance, energy=energy)


class TestScoringSet:
    def test_two_benchmarks_per_group(self):
        scoring = projection_benchmarks()
        assert tuple(b.name for b in scoring) == PROJECTION_BENCHMARK_NAMES
        per_group: dict[Group, int] = {}
        for benchmark in scoring:
            per_group[benchmark.group] = per_group.get(benchmark.group, 0) + 1
        assert set(per_group) == set(groups())
        assert all(count == 2 for count in per_group.values())


class TestCombine:
    def _by_config(self, candidate, big_groups, little_groups):
        big, little = candidate.big, candidate.little
        table = {}
        if big is not None:
            table[big.config.key] = big_groups
        if little is not None:
            table[little.config.key] = little_groups
        return table

    def test_scalable_groups_sum_throughput(self):
        candidate = _candidate()
        by_config = self._by_config(
            candidate,
            big_groups={Group.NATIVE_SCALABLE: (4.0, 1.0)},
            little_groups={Group.NATIVE_SCALABLE: (2.0, 0.4)},
        )
        outcome = _combine(candidate, by_config, groups())
        # s = 4 + 2; e = (1.0*4 + 0.4*2) / 6 = 0.8; one group present.
        assert outcome.performance == pytest.approx(6.0)
        assert outcome.energy == pytest.approx(0.8)

    def test_serial_groups_take_the_faster_cluster(self):
        candidate = _candidate()
        by_config = self._by_config(
            candidate,
            big_groups={Group.JAVA_NONSCALABLE: (3.0, 1.2)},
            little_groups={Group.JAVA_NONSCALABLE: (1.1, 0.3)},
        )
        outcome = _combine(candidate, by_config, groups())
        assert outcome.performance == pytest.approx(3.0)
        assert outcome.energy == pytest.approx(1.2)

    def test_homogeneous_candidate_passes_through(self):
        candidate = _assemble(22, 4, 2.8, 0, 1.6, Budget())
        by_config = {
            candidate.big.config.key: {
                Group.NATIVE_SCALABLE: (5.0, 0.9),
                Group.NATIVE_NONSCALABLE: (2.0, 1.1),
            }
        }
        outcome = _combine(candidate, by_config, groups())
        assert outcome.performance == pytest.approx((5.0 + 2.0) / 2)
        assert outcome.energy == pytest.approx((0.9 + 1.1) / 2)

    def test_point_carries_the_candidate_key(self):
        candidate = _candidate()
        point = _outcome(candidate, 2.0, 0.5).point
        assert point.key == candidate.key
        assert point.performance == 2.0


class TestNodeFrontier:
    def _frontier(self):
        slow = _outcome(_assemble(22, 0, 2.8, 8, 1.6, Budget()), 1.0, 0.2)
        fast = _outcome(_assemble(22, 4, 2.8, 0, 1.6, Budget()), 4.0, 1.0)
        dominated = _outcome(_assemble(22, 1, 2.8, 1, 1.6, Budget()), 0.5, 0.9)
        return NodeFrontier(
            node_nm=22,
            outcomes=(slow, fast, dominated),
            efficient_keys=(slow.candidate.key, fast.candidate.key),
        )

    def test_efficient_outcomes_filter(self):
        frontier = self._frontier()
        assert len(frontier.efficient_outcomes) == 2
        assert frontier.best_performance() == pytest.approx(4.0)
        assert frontier.best_efficiency() == pytest.approx(5.0)  # 1.0 / 0.2

    def test_frontier_series_spans_the_efficient_points(self):
        series = self._frontier().frontier_series(samples=9)
        assert len(series) == 9
        assert series[0][0] == pytest.approx(1.0)
        assert series[-1][0] == pytest.approx(4.0)

    def test_single_point_series_degenerates_to_the_point(self):
        lone = _outcome(_candidate(), 2.0, 0.5)
        frontier = NodeFrontier(
            node_nm=22, outcomes=(lone,), efficient_keys=(lone.candidate.key,)
        )
        assert frontier.frontier_series() == ((2.0, 0.5),)


class TestDataset:
    def _dataset(self):
        lone = _outcome(_candidate(), 2.0, 0.5)
        frontier = NodeFrontier(
            node_nm=22, outcomes=(lone,), efficient_keys=(lone.candidate.key,)
        )
        measured = MeasuredPoint(key="i7stock", node_nm=45, performance=1.0, energy=1.0)
        return ProjectionDataset(
            seed=0,
            samples=1,
            budget=Budget(),
            benchmark_names=PROJECTION_BENCHMARK_NAMES,
            measured=(measured,),
            frontiers=(frontier,),
        )

    def test_lookup_and_count(self):
        dataset = self._dataset()
        assert [f.node_nm for f in dataset.frontiers] == [22]
        assert dataset.candidate_count() == 1

    def test_json_bytes_are_canonical(self):
        dataset = self._dataset()
        first = dataset.to_json_bytes()
        assert first == dataset.to_json_bytes()
        assert first.endswith(b"\n")
        first.decode("ascii")  # pure ASCII, no escapes needed
        payload = json.loads(first)
        assert payload["version"] == 1
        assert payload["budget"] == {"area_mm2": 260.0, "tdp_w": 130.0}
        assert payload["nodes"][0]["candidates"][0]["efficient"] is True
        # Canonical form: sorted keys, no whitespace after separators.
        assert b": " not in first and b", " not in first

    def test_candidate_rows_expose_the_mix(self):
        payload = json.loads(self._dataset().to_json_bytes())
        row = payload["nodes"][0]["candidates"][0]
        assert row["big_cores"] == 2
        assert row["little_cores"] == 4
        assert row["dark_fraction"] >= 0.0
