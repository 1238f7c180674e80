"""Unit test for checkpoint determinism.

``Study.save_checkpoint`` emits records in sorted (benchmark,
configuration) order, so the file's bytes depend only on the dataset —
not on whether the cache was filled sequentially, in parallel merge
order, or by a resumed campaign.
"""

import json

from repro.core.study import Study
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.workloads.catalog import benchmark

CLEAN = FaultPlan()

PAIRS = [
    (benchmark(name), stock(spec))
    for spec in (CORE_I7_45, ATOM_45)
    for name in ("mcf", "db")
]


class TestSaveCheckpointOrder:
    def test_bytes_are_independent_of_population_order(
        self, references, tmp_path
    ):
        forward = Study(references=references, invocation_scale=0.2)
        backward = Study(references=references, invocation_scale=0.2)
        with injected(CLEAN):
            for bench, config in PAIRS:
                forward.measure(bench, config)
            for bench, config in reversed(PAIRS):
                backward.measure(bench, config)
        a = forward.ledger.save_checkpoint(tmp_path / "forward.jsonl")
        b = backward.ledger.save_checkpoint(tmp_path / "backward.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_records_are_sorted_by_benchmark_then_config(
        self, references, tmp_path
    ):
        study = Study(references=references, invocation_scale=0.2)
        with injected(CLEAN):
            for bench, config in PAIRS:
                study.measure(bench, config)
        path = study.ledger.save_checkpoint(tmp_path / "sorted.jsonl")
        keys = [
            (record["benchmark"], record["configuration"])
            for record in map(json.loads, path.read_text().splitlines())
        ]
        assert keys == sorted(keys)

    def test_roundtrip_restores_every_record(self, references, tmp_path):
        writer = Study(references=references, invocation_scale=0.2)
        with injected(CLEAN):
            for bench, config in PAIRS:
                writer.measure(bench, config)
        path = writer.ledger.save_checkpoint(tmp_path / "roundtrip.jsonl")
        reader = Study(references=references, invocation_scale=0.2)
        assert reader.ledger.restore_checkpoint(path) == len(PAIRS)
        for bench, config in PAIRS:
            assert reader.ledger.is_cached(bench, config)
