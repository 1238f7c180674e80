"""Unit tests for the capacity-bounded (LRU) study result cache.

An unbounded cache is right for one campaign (the paper's dataset is
61x45 and fits trivially); a long-lived measurement server needs a cap.
The cap must never change *what* is measured — only whether a repeat
request hits memory or re-derives the identical bytes.
"""

import json

import pytest

from repro.core.study import Study
from repro.hardware.catalog import ATOM_45, CORE2DUO_45, CORE_I7_45
from repro.hardware.config import stock
from repro.obs.metrics import default_registry
from repro.workloads.catalog import benchmark

MCF = benchmark("mcf")
I7 = stock(CORE_I7_45)
ATOM = stock(ATOM_45)
CORE2 = stock(CORE2DUO_45)


def _study(references, **kwargs):
    return Study(references=references, invocation_scale=0.2, **kwargs)


def _evictions() -> float:
    return default_registry().get("repro_study_cache_evictions_total").value


class TestCapacity:
    def test_unbounded_by_default(self, references):
        study = _study(references)
        assert study.ledger.cache_capacity is None
        for config in (I7, ATOM, CORE2):
            study.measure(MCF, config)
        assert study.ledger.cached_pairs == 3

    def test_capacity_bounds_the_cache(self, references):
        study = _study(references, cache_capacity=2)
        for config in (I7, ATOM, CORE2):
            study.measure(MCF, config)
        assert study.ledger.cached_pairs == 2

    def test_oldest_entry_is_evicted_first(self, references):
        study = _study(references, cache_capacity=2)
        study.measure(MCF, I7)
        study.measure(MCF, ATOM)
        study.measure(MCF, CORE2)  # evicts I7, the oldest
        assert not study.ledger.is_cached(MCF, I7)
        assert study.ledger.is_cached(MCF, ATOM)
        assert study.ledger.is_cached(MCF, CORE2)

    def test_cache_hit_refreshes_recency(self, references):
        study = _study(references, cache_capacity=2)
        study.measure(MCF, I7)
        study.measure(MCF, ATOM)
        study.measure(MCF, I7)  # hit: I7 becomes most recent
        study.measure(MCF, CORE2)  # so ATOM is evicted, not I7
        assert study.ledger.is_cached(MCF, I7)
        assert not study.ledger.is_cached(MCF, ATOM)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_degenerate_capacity(self, references, capacity):
        with pytest.raises(ValueError):
            _study(references, cache_capacity=capacity)


class TestDeterminismUnderEviction:
    def test_remeasuring_an_evicted_pair_is_byte_identical(self, references):
        bounded = _study(references, cache_capacity=1)
        first = bounded.measure(MCF, I7)
        bounded.measure(MCF, ATOM)  # evicts the I7 result
        again = bounded.measure(MCF, I7)  # cache miss: re-measures
        assert json.dumps(again.as_record()) == json.dumps(first.as_record())

    def test_bounded_sweep_matches_unbounded_bytes(self, references):
        configs = (I7, ATOM, CORE2)
        unbounded = _study(references).run(configs, [MCF])
        bounded = _study(references, cache_capacity=1).run(configs, [MCF])
        assert [json.dumps(r.as_record()) for r in bounded] == [
            json.dumps(r.as_record()) for r in unbounded
        ]


class TestEvictionAccounting:
    def test_evictions_metric_counts(self, references):
        before = _evictions()
        study = _study(references, cache_capacity=1)
        study.measure(MCF, I7)
        study.measure(MCF, ATOM)
        study.measure(MCF, CORE2)
        assert _evictions() - before == 2

    def test_evicted_restored_pairs_lose_restored_status(self, references):
        """A restored-then-evicted pair must not be double-counted as
        restored if warm-started again later."""
        source = _study(references)
        records = [source.measure(MCF, c) for c in (I7, ATOM)]
        study = _study(references, cache_capacity=1)
        assert study.ledger.restore_records(records) == 2  # second restore evicts first
        assert study.ledger.cached_pairs == 1
        # The evicted pair restores cleanly a second time.
        assert study.ledger.restore_records(records[:1]) == 1
