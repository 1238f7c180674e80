"""Unit tests for hierarchical tracing: nesting, contextvars, JSONL."""

import json

from repro.obs.tracing import (
    NULL_SPAN,
    Tracer,
    chrome_trace_events,
    default_tracer,
    read_jsonl,
    root_span,
    write_chrome_trace,
)


class TestSpanNesting:
    def test_parent_propagates_through_nesting(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_a_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert tracer.children_of(root) == (a, b)

    def test_finished_in_completion_order(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert [s.name for s in tracer.roots()] == ["outer"]

    def test_parent_restored_after_exception(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            try:
                with tracer.span("boom"):
                    raise RuntimeError("x")
            except RuntimeError:
                pass
            with tracer.span("after") as after:
                pass
        assert after.parent_id == root.span_id

    def test_durations_and_attributes_recorded(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", benchmark="db") as span:
            span.set_attribute("invocations", 4)
        assert span.duration_s is not None and span.duration_s >= 0.0
        assert span.attributes == {"benchmark": "db", "invocations": 4}


class TestDisabledTracer:
    def test_disabled_spans_are_null_and_unrecorded(self):
        tracer = Tracer()
        with tracer.span("ignored") as span:
            span.set_attribute("k", "v")
        assert span is NULL_SPAN
        assert tracer.finished == []

    def test_default_tracer_starts_disabled(self):
        assert default_tracer() is default_tracer()


class TestJsonlRoundTrip:
    def test_export_and_read_back(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", experiment="fig4"):
            with tracer.span("inner", benchmark="db"):
                pass
        path = tracer.export_jsonl(tmp_path / "spans.jsonl")
        spans = read_jsonl(path)
        assert len(spans) == 2
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["attributes"]["experiment"] == "fig4"
        assert by_name["inner"]["duration_s"] >= 0.0

    def test_every_line_is_valid_json(self, tmp_path):
        tracer = Tracer(enabled=True)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        path = tracer.export_jsonl(tmp_path / "spans.jsonl")
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                assert {"name", "span_id", "parent_id", "start_unix_s",
                        "duration_s", "attributes"} <= set(record)

    def test_clear_drops_spans_but_keeps_the_id_base(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a") as a:
            pass
        tracer.clear()
        assert tracer.finished == []
        with tracer.span("b") as b:
            pass
        # Counter restarts, so the first post-clear span re-issues the
        # first ID of this tracer's seeded range.
        assert b.span_id == a.span_id


class TestSpanIdentity:
    def test_distinct_tracers_never_alias(self):
        """Regression: the old per-process count(1) made every tracer
        issue 1, 2, 3... so coordinator and worker spans collided."""
        tracers = [Tracer(enabled=True) for _ in range(4)]
        ids = set()
        for tracer in tracers:
            for i in range(50):
                with tracer.span(f"s{i}") as span:
                    pass
                ids.add(span.span_id)
        assert len(ids) == 4 * 50

    def test_reseed_moves_to_a_fresh_id_range(self):
        tracer = Tracer(enabled=True)
        with tracer.span("before") as before:
            pass
        tracer.reseed()
        with tracer.span("after") as after:
            pass
        assert after.span_id != before.span_id

    def test_span_ids_are_positive_63_bit(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s") as span:
            pass
        assert 0 < span.span_id < 1 << 63


class TestExplicitParents:
    def test_child_span_attaches_to_the_given_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("request") as request:
            pass
        with tracer.child_span("batch", parent_id=request.span_id) as batch:
            with tracer.span("nested") as nested:
                pass
        assert batch.parent_id == request.span_id
        assert nested.parent_id == batch.span_id

    def test_record_span_captures_an_elapsed_interval(self):
        tracer = Tracer(enabled=True)
        span = tracer.record_span(
            "queue.wait", parent_id=None, start_unix_s=100.0, duration_s=0.25
        )
        assert span in tracer.finished
        assert span.duration_s == 0.25
        assert round(span.as_dict()["start_unix_s"], 3) == 100.0

    def test_record_span_is_null_when_disabled(self):
        tracer = Tracer()
        span = tracer.record_span("x", None, 0.0, 0.0)
        assert span.span_id is None
        assert tracer.finished == []

    def test_reparent_children_moves_only_matched_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.span("batch") as batch:
            with tracer.span("a", benchmark="mcf") as a:
                pass
            with tracer.span("b", benchmark="db") as b:
                pass
            with tracer.span("keep") as keep:
                pass
        targets = {"mcf": 777}
        moved = tracer.reparent_children(
            batch.span_id,
            lambda span: targets.get(span.attributes.get("benchmark")),
        )
        assert moved == 1
        assert a.parent_id == 777
        assert b.parent_id == batch.span_id
        assert keep.parent_id == batch.span_id


class TestAdoption:
    def _worker_payload(self):
        worker = Tracer(enabled=True)
        with worker.span("executor.chunk", pair=0) as chunk:
            with worker.span("study.measure"):
                pass
        return [span.as_dict() for span in worker.finished], chunk

    def test_adopt_remaps_ids_and_preserves_structure(self):
        payload, _ = self._worker_payload()
        parent = Tracer(enabled=True)
        with parent.span("sweep") as sweep:
            pass
        adopted = parent.adopt(payload, parent_id=sweep.span_id)
        by_name = {span.name: span for span in adopted}
        chunk = by_name["executor.chunk"]
        assert chunk.parent_id == sweep.span_id
        assert by_name["study.measure"].parent_id == chunk.span_id
        old_ids = {record["span_id"] for record in payload}
        assert old_ids.isdisjoint({span.span_id for span in adopted})

    def test_adoption_order_determines_ids(self):
        """Adopting identical payloads in the same order yields the same
        structure on two tracers — the property the parallel merge needs."""
        payload, _ = self._worker_payload()
        shapes = []
        for _ in range(2):
            adopter = Tracer(enabled=True)
            adopted = adopter.adopt(payload)
            base = adopter._id_base
            shapes.append(
                [
                    (
                        span.name,
                        span.span_id - base,
                        None if span.parent_id is None else span.parent_id - base,
                    )
                    for span in adopted
                ]
            )
        assert shapes[0] == shapes[1]


class TestSubtreeAndPrune:
    def test_subtree_collects_descendants_in_any_finish_order(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            with tracer.span("mid") as mid:
                with tracer.span("leaf"):
                    pass
        with tracer.span("other"):
            pass
        # mid's leaf finished first; the sweep still finds it via mid.
        names = {span.name for span in tracer.subtree(root.span_id)}
        assert names == {"root", "mid", "leaf"}
        assert mid.parent_id == root.span_id

    def test_detach_subtree_returns_and_removes_in_one_pass(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    pass
        with tracer.span("other"):
            pass
        detached = tracer.detach_subtree(root.span_id)
        # Finished order is preserved: children close before parents.
        assert [span.name for span in detached] == ["leaf", "mid", "root"]
        assert [span.name for span in tracer.finished] == ["other"]
        # Detaching an unknown root is a no-op that returns nothing.
        assert tracer.detach_subtree(root.span_id) == []
        assert len(tracer.finished) == 1


class TestChromeTrace:
    def test_events_mirror_spans(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", pid=4242):
            with tracer.span("inner"):
                pass
        events = chrome_trace_events(tracer.finished)
        assert len(events) == len(tracer.finished)
        by_name = {event["name"]: event for event in events}
        assert by_name["outer"]["ph"] == "X"
        assert by_name["outer"]["pid"] == 4242
        assert (
            by_name["inner"]["args"]["parent_id"]
            == by_name["outer"]["args"]["span_id"]
        )
        path = write_chrome_trace(tracer.finished, tmp_path / "trace.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert len(payload["traceEvents"]) == len(events)

    def test_accepts_exported_dicts_too(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("s"):
            pass
        jsonl = tracer.export_jsonl(tmp_path / "spans.jsonl")
        from_dicts = chrome_trace_events(read_jsonl(jsonl))
        from_spans = chrome_trace_events(tracer.finished)
        assert from_dicts == from_spans


class TestRootSpanHelper:
    def test_root_span_names_the_experiment(self):
        tracer = default_tracer()
        tracer.enable()
        try:
            with root_span("fig4") as span:
                pass
            assert span.name == "experiment:fig4"
            assert span.attributes["experiment"] == "fig4"
        finally:
            tracer.disable()
            tracer.clear()
