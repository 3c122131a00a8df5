"""Unit tests for the span tracer (`repro.trace`).

The tracer is the foundation of the observability surface: these tests pin
the thread-local collection model (no collector -> shared no-op span), the
nesting/attribute semantics, the wire payload round-trip, and the
``REPRO_TRACE`` default.
"""

from __future__ import annotations

import threading

import pytest

from repro.trace import (
    Span,
    collect_spans,
    default_tracing,
    flatten_spans,
    span_attr,
    spans_from_payload,
    spans_to_payload,
    trace_span,
    tracing_active,
)


class TestDisabledPath:
    def test_no_collector_means_inactive(self):
        assert not tracing_active()

    def test_trace_span_without_collector_is_shared_noop(self):
        with trace_span("solve", strategy="bigm") as a:
            with trace_span("ilp") as b:
                pass
        assert a is b  # one module-level singleton, no per-call allocation

    def test_span_attr_without_collector_is_harmless(self):
        span_attr(anything=1)

    def test_disabled_collector_keeps_tracing_off(self):
        with collect_spans(enabled=False) as trace:
            assert not tracing_active()
            with trace_span("solve"):
                span_attr(x=1)
        assert trace.spans == ()


class TestCollection:
    def test_nesting_attrs_and_timing(self):
        with collect_spans() as trace:
            assert tracing_active()
            with trace_span("solve", strategy="bigm"):
                with trace_span("ilp"):
                    span_attr(bnb_nodes=42)
            with trace_span("rtl"):
                pass
        assert not tracing_active()

        solve, rtl = trace.spans
        assert solve.name == "solve"
        assert solve.attrs["strategy"] == "bigm"
        (ilp,) = solve.children
        assert ilp.name == "ilp"
        assert ilp.attrs["bnb_nodes"] == 42
        assert rtl.name == "rtl" and rtl.children == ()
        # Children start after (and run within) their parent.
        assert ilp.start >= solve.start
        assert solve.seconds >= ilp.seconds >= 0.0
        assert rtl.start >= solve.start + solve.seconds

    def test_span_attr_targets_innermost_open_span(self):
        with collect_spans() as trace:
            with trace_span("outer"):
                span_attr(level="outer")
                with trace_span("inner"):
                    span_attr(level="inner")
        (outer,) = trace.spans
        assert outer.attrs["level"] == "outer"
        assert outer.children[0].attrs["level"] == "inner"

    def test_exception_still_closes_span(self):
        with collect_spans() as trace:
            with pytest.raises(ValueError):
                with trace_span("solve"):
                    raise ValueError("infeasible")
        (solve,) = trace.spans
        assert solve.name == "solve" and solve.seconds >= 0.0

    def test_nested_collectors_save_and_restore(self):
        with collect_spans() as outer:
            with trace_span("before"):
                pass
            with collect_spans() as inner:
                with trace_span("inner-only"):
                    pass
            with trace_span("after"):
                pass
        assert [span.name for span in inner.spans] == ["inner-only"]
        assert [span.name for span in outer.spans] == ["before", "after"]

    def test_collection_is_thread_local(self):
        seen: list[bool] = []

        def other_thread():
            seen.append(tracing_active())
            with trace_span("elsewhere"):
                pass

        with collect_spans() as trace:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            with trace_span("here"):
                pass
        assert seen == [False]  # the collector never leaks across threads
        assert [span.name for span in trace.spans] == ["here"]

    def test_flatten_spans_walks_children(self):
        with collect_spans() as trace:
            with trace_span("solve"):
                with trace_span("ilp"):
                    pass
            with trace_span("rtl"):
                pass
        names = [span.name for span in flatten_spans(trace.spans)]
        assert names == ["solve", "ilp", "rtl"]


class TestPayloadCodec:
    def test_round_trip_preserves_tree(self):
        with collect_spans() as trace:
            with trace_span("solve", strategy="bigm"):
                with trace_span("ilp"):
                    span_attr(backend="highs", bnb_nodes=7)
        payload = spans_to_payload(trace.spans)
        decoded = spans_from_payload(payload)
        assert [span.name for span in decoded] == ["solve"]
        assert decoded[0].attrs == {"strategy": "bigm"}
        assert decoded[0].children[0].attrs == {"backend": "highs", "bnb_nodes": 7}
        # Idempotent: encoding the decoded tree reproduces the payload.
        assert spans_to_payload(decoded) == payload

    def test_payload_omits_empty_fields(self):
        span = Span(name="rtl", start=0.0, seconds=0.001)
        payload = span.to_payload()
        assert "attrs" not in payload and "children" not in payload

    @pytest.mark.parametrize(
        "payload",
        [
            "not-a-list",
            [{"seconds": 1.0}],  # missing name
            [{"name": "x", "seconds": "fast"}],  # non-numeric duration
            [{"name": "x", "seconds": 0.1, "children": "nope"}],
        ],
    )
    def test_bad_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            spans_from_payload(payload)


class TestDefaultTracing:
    def test_unset_env_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert default_tracing() is True

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", "OFF"])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert default_tracing() is False

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", "anything"])
    def test_everything_else_enables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert default_tracing() is True
