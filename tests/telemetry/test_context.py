"""Tests for request-scoped distributed tracing primitives."""

import pytest

from repro.telemetry import (
    STAGES,
    RequestContext,
    RequestTrace,
    StageSpan,
    TraceBuffer,
    format_trace,
    mint_context,
    record_stage,
)
from repro.telemetry.context import new_id


class TestIds:
    def test_new_ids_are_unique_and_compact(self):
        ids = {new_id() for _ in range(256)}
        assert len(ids) == 256
        assert all(len(value) == 16 for value in ids)
        assert all(set(value) <= set("0123456789abcdef") for value in ids)

    def test_mint_context_stamps_fresh_identity(self):
        context = mint_context("tenant-3")
        assert context.entity == "tenant-3"
        assert context.request_id != context.trace_id
        assert context.origin_ts > 0
        assert context.dispatch_ts == 0.0

    def test_mint_context_can_join_an_existing_trace(self):
        first = mint_context("a")
        second = mint_context("b", trace_id=first.trace_id)
        assert second.trace_id == first.trace_id
        assert second.request_id != first.request_id


class TestWire:
    def test_request_context_round_trips_the_envelope(self):
        context = mint_context("tenant-1")
        context.dispatch_ts = 12.5
        restored = RequestContext.from_wire(context.to_wire())
        assert restored == context

    def test_stage_span_round_trips_the_reply(self):
        span = StageSpan(
            stage="forward", seconds=0.004, started=100.0,
            process="shard-1", thread="worker-0",
        )
        restored = StageSpan.from_wire(span.to_wire())
        assert restored == span

    def test_negative_durations_clamp_to_zero(self):
        # Wall-clock skew across a process boundary can make a delta
        # negative; the clamp keeps decompositions <= end-to-end.
        span = StageSpan(stage="queue_wait", seconds=-0.002)
        assert span.seconds == 0.0
        assert StageSpan.from_wire(span.to_wire()).seconds == 0.0


class TestRecordStage:
    def test_none_sink_is_a_noop(self):
        assert record_stage(None, "forward", 0.1) is None

    def test_appends_span_with_thread_and_default_process(self):
        sink = []
        record_stage(sink, "gather", 0.002, started=5.0)
        (span,) = sink
        assert span.stage == "gather"
        assert span.process == "router"
        assert span.thread  # current thread name, never empty
        assert span.started == 5.0

    def test_canonical_stage_order_is_pinned(self):
        assert STAGES == (
            "router_dispatch", "queue_wait", "cache_lookup",
            "batch_assembly", "forward", "gather",
        )


def build_trace(total=0.010):
    context = mint_context("tenant-7")
    spans = [
        StageSpan(stage="router_dispatch", seconds=0.001, process="router"),
        StageSpan(stage="queue_wait", seconds=0.002, process="shard-0"),
        StageSpan(stage="forward", seconds=0.004, process="shard-0"),
        StageSpan(stage="gather", seconds=0.001, process="router"),
    ]
    return RequestTrace(context=context, spans=spans, total_seconds=total)


class TestRequestTrace:
    def test_decomposition_sums_repeated_stages(self):
        trace = build_trace()
        trace.spans.append(StageSpan(stage="forward", seconds=0.001))
        assert trace.decomposition()["forward"] == pytest.approx(0.005)

    def test_stage_seconds_bounded_by_total(self):
        trace = build_trace(total=0.010)
        assert trace.stage_seconds == pytest.approx(0.008)
        assert trace.stage_seconds <= trace.total_seconds

    def test_processes_cover_both_sides(self):
        assert build_trace().processes() == {"router", "shard-0"}

    def test_event_payload_matches_the_serve_trace_schema(self):
        from repro.telemetry import validate_event

        trace = build_trace()
        payload = trace.event_payload()
        assert payload["total_ms"] == pytest.approx(10.0)
        assert [span["ms"] for span in payload["spans"]] == [1.0, 2.0, 4.0, 1.0]
        assert {span["process"] for span in payload["spans"]} == {
            "router", "shard-0",
        }
        event = {"schema": 1, "seq": 1, "ts": 0.0, "type": "serve_trace",
                 **payload}
        assert validate_event(event) == []


class TestTraceBuffer:
    def test_keeps_only_the_newest(self):
        buffer = TraceBuffer(keep=3)
        for index in range(6):
            buffer.record(build_trace(total=float(index)))
        assert len(buffer) == 3
        assert [t.total_seconds for t in buffer.traces()] == [3.0, 4.0, 5.0]

    def test_batches_share_spans_and_trim_to_keep(self):
        buffer = TraceBuffer(keep=5)
        spans = [StageSpan("forward", 0.5)]
        for batch in range(4):
            contexts = [mint_context(f"e{batch}-{i}") for i in range(3)]
            buffer.record_batch(contexts, spans, float(batch))
        buffer.record_batch([], spans, 9.0)  # nothing traced: no entry
        traces = buffer.traces()
        assert len(buffer) == len(traces) == 5
        assert [t.context.entity for t in traces] == [
            "e2-1", "e2-2", "e3-0", "e3-1", "e3-2"
        ]
        assert [t.total_seconds for t in traces] == [2.0, 2.0, 3.0, 3.0, 3.0]
        assert traces[0].spans == spans and traces[0].spans is not spans

    def test_keep_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            TraceBuffer(keep=0)

    def test_clear_empties_the_ring(self):
        buffer = TraceBuffer()
        buffer.record(build_trace())
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.traces() == []


class TestFormatTrace:
    def test_renders_every_stage_line(self):
        trace = build_trace()
        text = format_trace(trace)
        head = text.splitlines()[0]
        assert trace.context.request_id in head
        assert "entity=tenant-7" in head
        assert "total=10.000ms" in head
        for span in trace.spans:
            assert span.stage in text
        assert "(unattributed)" in text  # 2ms of the total is untagged

    def test_fully_attributed_trace_has_no_unattributed_line(self):
        trace = build_trace(total=0.008)
        assert "(unattributed)" not in format_trace(trace)
