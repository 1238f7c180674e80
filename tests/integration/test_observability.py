"""Integration: telemetry across the engine -> meter -> study pipeline."""

import json

import pytest

from repro.cli import main
from repro.core.study import Study
from repro.faults.injector import injected
from repro.faults.plan import FaultPlan, FaultSpec, fail_stop_plan
from repro.faults.retry import RetryPolicy
from repro.hardware.catalog import ATOM_45, CORE_I7_45
from repro.hardware.config import stock
from repro.obs.distributed import build_span_tree, orphan_parent_ids
from repro.obs.metrics import default_registry
from repro.obs.tracing import default_tracer, read_jsonl
from repro.workloads.catalog import benchmark


def _counter_value(name: str) -> float:
    metric = default_registry().get(name)
    assert metric is not None, f"{name} not registered"
    return metric.value


@pytest.fixture
def tracer():
    tracer = default_tracer()
    tracer.clear()
    tracer.enable()
    yield tracer
    tracer.disable()
    tracer.clear()


#: Retried fail-stop faults plus one drifted db invocation per pair, which
#: the outlier screen of ``_SCREENED`` re-measures.
_FAULTED = FaultPlan(
    specs=fail_stop_plan(probability=0.1).specs
    + (
        FaultSpec(
            kind="sensor.drift", probability=1.0, scope="*/db/0", magnitude=400.0
        ),
    ),
    seed="spans",
)
_SCREENED = RetryPolicy(max_retries=8, outlier_threshold=3.5)


class TestStudySpanTree:
    def test_two_by_two_sweep_emits_expected_spans(self, references, tracer):
        study = Study(
            references=references, invocation_scale=0.2, retry=_SCREENED
        )
        benches = (benchmark("db"), benchmark("mcf"))
        configs = (stock(ATOM_45), stock(CORE_I7_45))

        with injected(_FAULTED), tracer.span("campaign") as root:
            results = study.run(configs, benches)

        # One finished span per measured pair and nothing nested in it.
        assert {span.name for span in tracer.finished} == {
            "campaign", "study.measure",
        }
        measures = tracer.by_name("study.measure")
        assert len(measures) == 4
        assert all(span.parent_id == root.span_id for span in measures)
        # Retries and re-measures ride on the pair's span, only when
        # non-zero, and add up to the sweep's health report.
        health = results.health
        assert health.retries > 0 and health.remeasured_outliers == 2
        for key, total in (
            ("retries", health.retries),
            ("outlier_remeasures", health.remeasured_outliers),
        ):
            counts = [s.attributes[key] for s in measures if key in s.attributes]
            assert all(count > 0 for count in counts)
            assert sum(counts) == total
        seen = {
            (span.attributes["benchmark"], span.attributes["config"])
            for span in measures
        }
        assert seen == {
            (b.name, c.key) for b in benches for c in configs
        }
        assert all(span.duration_s > 0 for span in measures)
        assert all(span.attributes["invocations"] >= 1 for span in measures)

    def test_failed_pair_still_gets_its_span(self, references, tracer):
        crash = FaultPlan(
            specs=(FaultSpec(kind="invocation.crash", probability=1.0),)
        )
        study = Study(references=references, invocation_scale=0.05)
        with injected(crash), tracer.span("campaign") as root:
            results = study.run((stock(ATOM_45),), (benchmark("mcf"),))
        assert len(results.health.quarantined) == 1
        (span,) = tracer.by_name("study.measure")
        assert span.parent_id == root.span_id
        assert span.attributes == {
            "benchmark": "mcf", "config": stock(ATOM_45).key,
        }

    def test_second_pass_is_cached_and_counted(self, references, tracer):
        study = Study(references=references, invocation_scale=0.05)
        benches = (benchmark("db"), benchmark("mcf"))
        configs = (stock(ATOM_45), stock(CORE_I7_45))
        study.run(configs, benches)

        spans_before = len(tracer.finished)
        hits_before = _counter_value("repro_study_cache_hits_total")
        study.run(configs, benches)

        # No new measurement spans: the cached fast path does no work.
        assert len(tracer.by_name("study.measure")) == 4
        assert len(tracer.finished) == spans_before
        assert _counter_value("repro_study_cache_hits_total") - hits_before == 4


class TestParallelSpanMerge:
    """The tentpole contract: a traced parallel sweep yields one rooted
    span tree covering coordinator and workers, with the measurement
    records byte-identical to the traced sequential run."""

    BENCHES = ("db", "mcf")

    def _run(self, references, tracer, jobs):
        tracer.clear()
        study = Study(references=references, invocation_scale=0.05)
        benches = tuple(benchmark(name) for name in self.BENCHES)
        configs = (stock(ATOM_45), stock(CORE_I7_45))
        with tracer.span("campaign") as root:
            results = study.run(configs, benches, jobs=jobs)
        spans = [span.as_dict() for span in tracer.finished]
        records = json.dumps([r.as_record() for r in results]).encode()
        return root, spans, records

    @pytest.mark.parametrize("jobs", (1, 2, 4))
    def test_single_rooted_tree_and_byte_identity(
        self, references, tracer, jobs
    ):
        _, seq_spans, seq_records = self._run(references, tracer, None)
        root, spans, records = self._run(references, tracer, jobs)

        # Byte-identity survives tracing at any worker count.
        assert records == seq_records

        # Every span hangs off the campaign root: zero orphans, one root.
        assert orphan_parent_ids(spans) == set()
        tree = build_span_tree(spans)
        assert tree is not None and tree["name"] == "campaign"

        # Worker subtrees arrived: one executor.chunk per pair, each
        # wrapping its measurement, adopted in sweep order.
        chunks = [s for s in spans if s["name"] == "executor.chunk"]
        assert len(chunks) == 4
        sweep_order = [
            (s["attributes"]["benchmark"], s["attributes"]["config"])
            for s in sorted(chunks, key=lambda s: s["attributes"]["pair"])
        ]
        seq_order = [
            (s["attributes"]["benchmark"], s["attributes"]["config"])
            for s in seq_spans
            if s["name"] == "study.measure"
        ]
        assert sweep_order == seq_order
        measures = [s for s in spans if s["name"] == "study.measure"]
        chunk_ids = {s["span_id"] for s in chunks}
        assert all(s["parent_id"] in chunk_ids for s in measures)

    def test_span_ids_never_collide_across_workers(self, references, tracer):
        """Regression for the per-process count(1) ID scheme: spans
        shipped home by 4 workers must not alias each other or the
        coordinator."""
        _, spans, _ = self._run(references, tracer, 4)
        ids = [s["span_id"] for s in spans]
        assert len(ids) == len(set(ids))

    def test_jsonl_and_chrome_exports_agree(
        self, references, tracer, tmp_path
    ):
        from repro.obs.tracing import chrome_trace_events

        self._run(references, tracer, 2)
        jsonl = tracer.export_jsonl(tmp_path / "spans.jsonl")
        chrome = tracer.export_chrome_trace(tmp_path / "trace.json")

        from_jsonl = read_jsonl(jsonl)
        events = json.loads(chrome.read_text(encoding="utf-8"))["traceEvents"]
        assert len(events) == len(from_jsonl)
        # Exact nesting rides in args, not just time containment.
        by_id = {e["args"]["span_id"]: e for e in events}
        for record in from_jsonl:
            event = by_id[record["span_id"]]
            assert event["name"] == record["name"]
            assert event["args"]["parent_id"] == record["parent_id"]
        assert chrome_trace_events(from_jsonl) == chrome_trace_events(
            tracer.finished
        )


class TestPipelineCounters:
    def test_invocations_and_executions_advance_together(self, references):
        study = Study(references=references, invocation_scale=0.05)
        invocations_before = _counter_value("repro_study_invocations_total")
        executions_before = _counter_value("repro_engine_executions_total")
        result = study.measure(benchmark("vips"), stock(ATOM_45))
        delta = _counter_value("repro_study_invocations_total") - invocations_before
        assert delta == result.invocations
        assert (
            _counter_value("repro_engine_executions_total") - executions_before
            == result.invocations
        )

    def test_meter_sample_counter_advances(self, references):
        study = Study(references=references, invocation_scale=0.05)
        samples = default_registry().get("repro_meter_samples_total")
        before = samples.labels(machine="atom_45").value
        study.measure(benchmark("lusearch"), stock(ATOM_45))
        assert samples.labels(machine="atom_45").value > before

    def test_measure_latency_histogram_fills(self, references):
        histogram = default_registry().get("repro_measure_seconds")
        before = histogram.count
        study = Study(references=references, invocation_scale=0.05)
        study.measure(benchmark("fop"), stock(ATOM_45))
        assert histogram.count == before + 1


class TestCliTelemetry:
    @pytest.mark.parametrize("jobs", ["none", "2"])
    def test_trace_and_metrics_flags_end_to_end(self, tmp_path, capsys, jobs):
        trace_path = tmp_path / "spans.jsonl"
        tracer = default_tracer()
        tracer.clear()
        try:
            exit_code = main(
                ["--quick", "--jobs", jobs, "--trace", str(trace_path),
                 "--metrics", "experiment", "fig4"]
            )
        finally:
            tracer.disable()
            tracer.clear()
        assert exit_code == 0

        spans = read_jsonl(trace_path)
        by_id = {s["span_id"]: s for s in spans}
        roots = [s for s in spans if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["experiment:fig4"]
        root_id = roots[0]["span_id"]
        measures = [s for s in spans if s["name"] == "study.measure"]
        assert len(measures) >= 1
        if jobs == "none":
            # In process: each measurement hangs straight off the root.
            assert all(s["parent_id"] == root_id for s in measures)
        else:
            # Sharded: workers measure under one executor.chunk span per
            # pair, and the merge adopts those subtrees under the root.
            for span in measures:
                chunk = by_id[span["parent_id"]]
                assert chunk["name"] == "executor.chunk"
                assert chunk["parent_id"] == root_id

        out = capsys.readouterr().out
        assert "repro_study_cache_hits_total" in out
        assert "repro_engine_executions_total" in out
        assert "# TYPE repro_measure_seconds histogram" in out
        assert "repro_measure_seconds_bucket" in out

    def test_stats_subcommand_prints_summary(self, capsys):
        assert main(["--quick", "stats"]) == 0
        out = capsys.readouterr().out
        assert "repro_study_cache_hits_total" in out
        assert "repro_engine_executions_total" in out
        assert "repro_measure_seconds" in out

    def test_progress_composes_with_quick(self, references):
        # --quick scales the protocol; the progress total must follow it.
        from repro.obs.progress import ProgressReporter
        import io

        reporter = ProgressReporter(stream=io.StringIO(), min_interval_s=0.0)
        study = Study(
            references=references, invocation_scale=0.2, progress=reporter
        )
        benches = (benchmark("db"), benchmark("mcf"))
        study.run((stock(ATOM_45),), benches)
        expected = sum(study.scaled_invocations(b) for b in benches)
        assert reporter.total == expected
        assert reporter.done == expected
        full = Study(references=references, invocation_scale=1.0)
        assert expected < sum(full.scaled_invocations(b) for b in benches)
