"""Tracing core: nesting, thread hand-off, exporters, rendering."""

import io
import json
import threading

from repro.obs import (
    NOOP_SPAN,
    InMemorySpanExporter,
    JsonLinesExporter,
    Tracer,
    get_tracer,
    render_span_tree,
    set_tracer,
)
from repro.obs.tracing import SPAN_CAPACITY


class TestSpanLifecycle:
    def test_nesting_links_parent_and_trace(self, obs_tracer,
                                            span_buffer):
        with obs_tracer.span("outer") as outer:
            with obs_tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == outer.span_id
        names = [s.name for s in span_buffer.spans()]
        assert names == ["inner", "outer"]  # finish order

    def test_exception_marks_error_status(self, obs_tracer):
        try:
            with obs_tracer.span("boom") as span:
                raise ValueError("nope")
        except ValueError:
            pass
        assert span.status == "error"
        assert "ValueError" in span.error

    def test_attributes_and_duration(self, obs_tracer):
        with obs_tracer.span("op", {"k": 1}) as span:
            span.set_attribute("extra", "v")
        assert span.attributes == {"k": 1, "extra": "v"}
        assert span.duration >= 0.0
        assert span.status == "ok"
        assert span.is_recording

    def test_to_dict_shape(self, obs_tracer):
        with obs_tracer.span("op", {"a": 1}) as span:
            pass
        record = span.to_dict()
        assert record["name"] == "op"
        assert record["duration_ms"] >= 0.0
        assert record["attributes"] == {"a": 1}
        assert record["status"] == "ok"

    def test_out_of_order_exit_tolerated(self, obs_tracer):
        outer = obs_tracer.span("outer")
        inner = obs_tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # wrong order on purpose
        inner.__exit__(None, None, None)
        assert obs_tracer.current_span() is None


class TestDisabledTracer:
    def test_disabled_tracer_hands_out_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything")
        assert span is NOOP_SPAN
        assert not span.is_recording
        with span as entered:
            entered.set_attribute("ignored", 1)
            entered.set_status("error")
        assert tracer.current_span() is None

    def test_default_global_tracer_is_disabled(self):
        assert get_tracer().enabled is False

    def test_set_tracer_returns_previous(self):
        replacement = Tracer(enabled=False)
        previous = set_tracer(replacement)
        try:
            assert get_tracer() is replacement
        finally:
            set_tracer(previous)


class TestThreadPropagation:
    def test_threads_have_independent_stacks(self, obs_tracer):
        seen = {}

        def work():
            seen["current"] = obs_tracer.current_span()
            with obs_tracer.span("child") as span:
                seen["child"] = span

        with obs_tracer.span("root") as root:
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        # no implicit cross-thread inheritance...
        assert seen["current"] is None
        assert seen["child"].parent_id is None

        assert root.span_id is not None

    def test_explicit_parent_crosses_threads(self, obs_tracer):
        spans = []

        def work(parent):
            with obs_tracer.span("child", parent=parent) as span:
                spans.append(span)

        with obs_tracer.span("root") as root:
            thread = threading.Thread(target=work, args=(root,))
            thread.start()
            thread.join()
        assert spans[0].parent_id == root.span_id
        assert spans[0].trace_id == root.trace_id

    def test_noop_parent_is_ignored(self, obs_tracer):
        with obs_tracer.span("solo", parent=NOOP_SPAN) as span:
            pass
        assert span.parent_id is None


class TestRecordSpan:
    def test_record_span_parents_to_current(self, obs_tracer):
        with obs_tracer.span("outer") as outer:
            recorded = obs_tracer.record_span("timed", 0.25)
        assert recorded.parent_id == outer.span_id
        assert recorded.duration == 0.25
        assert recorded.status == "ok"

    def test_record_span_explicit_parent(self, obs_tracer):
        with obs_tracer.span("a") as a:
            pass
        recorded = obs_tracer.record_span("timed", 0.1, parent=a)
        assert recorded.parent_id == a.span_id

    def test_record_span_disabled_returns_none(self):
        assert Tracer(enabled=False).record_span("x", 1.0) is None


class TestExporters:
    def test_ring_buffer_drops_oldest_and_counts(self):
        buffer = InMemorySpanExporter()
        tracer = Tracer(enabled=True, exporters=[buffer])
        for index in range(SPAN_CAPACITY + 3):
            with tracer.span(f"s{index}"):
                pass
        names = [s.name for s in buffer.spans()]
        assert len(names) == SPAN_CAPACITY
        assert names[:2] == ["s3", "s4"]
        assert buffer.dropped == 3
        buffer.clear()
        assert buffer.spans() == []
        assert buffer.dropped == 0

    def test_jsonl_exporter_writes_valid_lines(self):
        sink = io.StringIO()
        tracer = Tracer(
            enabled=True, exporters=[JsonLinesExporter(sink)]
        )
        with tracer.span("outer", {"k": "v"}):
            with tracer.span("inner"):
                pass
        lines = [
            json.loads(line)
            for line in sink.getvalue().splitlines()
        ]
        assert [r["name"] for r in lines] == ["inner", "outer"]
        assert lines[1]["attributes"] == {"k": "v"}
        assert lines[0]["parent_id"] == lines[1]["span_id"]

    def test_jsonl_exporter_to_path(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        exporter = JsonLinesExporter(str(target))
        tracer = Tracer(enabled=True, exporters=[exporter])
        with tracer.span("only"):
            pass
        exporter.close()
        record = json.loads(target.read_text().strip())
        assert record["name"] == "only"


class TestRenderTree:
    def test_tree_shape_and_orphans(self, obs_tracer, span_buffer):
        with obs_tracer.span("root"):
            with obs_tracer.span("a"):
                pass
            with obs_tracer.span("b"):
                pass
        rendered = render_span_tree(span_buffer.spans())
        lines = rendered.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].lstrip().startswith("├─ a")
        assert lines[2].lstrip().startswith("└─ b")
        assert "ms" in lines[0]

        # drop the root: children become orphaned roots
        orphans = [
            s for s in span_buffer.spans() if s.name != "root"
        ]
        rendered = render_span_tree(orphans)
        assert rendered.splitlines()[0].startswith("a")
