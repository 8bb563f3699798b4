"""Tests for request-trace propagation: traceparent headers, trace-id
inheritance, TraceContext attachment, and handle propagation across
fork/spawn process boundaries.

The process-boundary worker lives at module level so it pickles under
both fork and spawn start methods.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.obs.trace import (
    SpanHandle,
    TraceContext,
    Tracer,
    format_traceparent,
    new_trace_id,
    parse_traceparent,
)

HEX = set("0123456789abcdef")


def _is_trace_id(value: str) -> bool:
    return len(value) == 32 and set(value) <= HEX


class TestTraceparent:
    def test_roundtrip(self):
        trace_id = new_trace_id()
        header = format_traceparent(trace_id, span_id=0xABC)
        assert parse_traceparent(header) == trace_id
        assert header == f"00-{trace_id}-0000000000000abc-01"

    def test_zero_span_id_renders_all_zero_parent(self):
        trace_id = new_trace_id()
        assert format_traceparent(trace_id).split("-")[2] == "0" * 16

    def test_span_id_truncated_to_64_bits(self):
        trace_id = new_trace_id()
        header = format_traceparent(trace_id, span_id=1 << 70)
        assert header.split("-")[2] == "0" * 16

    def test_trace_id_lowercased(self):
        upper = "AB" * 16
        header = f"00-{upper}-{'1' * 16}-01"
        assert parse_traceparent(header) == upper.lower()

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "not-a-traceparent",
            "00-abc-0000000000000001-01",  # short trace id
            f"00-{'0' * 32}-{'1' * 16}-01",  # all-zero trace id
            f"ff-{'a' * 32}-{'1' * 16}-01",  # forbidden version
            f"0g-{'a' * 32}-{'1' * 16}-01",  # non-hex version
            f"00-{'a' * 32}-{'1' * 15}-01",  # short parent id
            f"00-{'z' * 32}-{'1' * 16}-01",  # non-hex trace id
        ],
    )
    def test_malformed_headers_return_none(self, header):
        assert parse_traceparent(header) is None

    def test_new_trace_ids_are_distinct_and_shaped(self):
        first, second = new_trace_id(), new_trace_id()
        assert first != second
        assert _is_trace_id(first) and _is_trace_id(second)


class TestTraceIdResolution:
    def test_root_span_mints_a_trace_id(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            assert _is_trace_id(root.trace_id)

    def test_children_inherit_the_parent_trace(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.trace_id == root.trace_id
        assert grandchild.trace_id == root.trace_id

    def test_explicit_trace_id_wins_over_inheritance(self):
        tracer = Tracer()
        forced = new_trace_id()
        with tracer.span("root"):
            with tracer.span("child", trace_id=forced) as child:
                pass
        assert child.trace_id == forced

    def test_ambient_trace_seeds_root_spans(self):
        tracer = Tracer()
        ambient = new_trace_id()
        with tracer.trace(ambient):
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.trace_id == ambient
        assert second.trace_id == ambient

    def test_ambient_trace_restored_on_exit(self):
        tracer = Tracer()
        outer, inner = new_trace_id(), new_trace_id()
        with tracer.trace(outer):
            with tracer.trace(inner):
                with tracer.span("inside") as inside:
                    pass
            with tracer.span("after") as after:
                pass
        with tracer.span("outside") as outside:
            pass
        assert inside.trace_id == inner
        assert after.trace_id == outer
        assert outside.trace_id not in (outer, inner)

    def test_handle_and_context_carry_the_trace(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            handle = root.handle()
            context = root.context()
        assert handle.trace_id == root.trace_id
        assert context.trace_id == root.trace_id
        assert context.parent == handle
        assert (
            parse_traceparent(context.traceparent()) == root.trace_id
        )


class TestTraceContextAttached:
    def test_handle_attachment_inherits_trace_and_position(self):
        origin = Tracer()
        with origin.span("request") as request:
            handle = request.handle()
        worker = Tracer()
        with worker.attached(handle):
            with worker.span("work") as work:
                pass
        assert work.trace_id == request.trace_id
        assert work.parent_id == request.span_id
        assert work.depth == request.depth + 1

    def test_parentless_context_seeds_ambient_trace_only(self):
        tracer = Tracer()
        context = TraceContext(trace_id=new_trace_id(), parent=None)
        with tracer.attached(context):
            with tracer.span("rooted") as rooted:
                pass
        assert rooted.trace_id == context.trace_id
        assert rooted.parent_id is None

    def test_context_with_parent_attaches_the_handle(self):
        origin = Tracer()
        with origin.span("request") as request:
            context = request.context()
        worker = Tracer()
        with worker.attached(context):
            with worker.span("work") as work:
                pass
        assert work.parent_id == request.span_id
        assert work.trace_id == request.trace_id

    def test_traceless_handle_picks_up_the_context_trace(self):
        # A pre-trace-context handle (trace_id="") shipped inside a
        # TraceContext still seeds the worker's spans with the trace.
        trace_id = new_trace_id()
        bare = SpanHandle(span_id=7, depth=0, name="request")
        context = TraceContext(trace_id=trace_id, parent=bare)
        worker = Tracer()
        with worker.attached(context):
            with worker.span("work") as work:
                pass
        assert work.trace_id == trace_id
        assert work.parent_id == 7


def _remote_worker(handle, queue):
    """Child-process body: open one span under the shipped handle."""
    tracer = Tracer()
    with tracer.attached(handle):
        with tracer.span("remote"):
            pass
    queue.put(tracer.finished())


@pytest.mark.parametrize(
    "method",
    [
        m
        for m in ("fork", "spawn")
        if m in multiprocessing.get_all_start_methods()
    ],
)
class TestCrossProcessAttached:
    def test_trace_survives_the_process_boundary(self, method):
        context = multiprocessing.get_context(method)
        parent = Tracer()
        with parent.span("sweep") as sweep:
            handle = sweep.handle()
            queue = context.Queue()
            child = context.Process(
                target=_remote_worker, args=(handle, queue)
            )
            child.start()
            shipped = queue.get(timeout=30)
            child.join(timeout=30)
        assert child.exitcode == 0
        (remote,) = shipped
        assert remote.name == "remote"
        assert remote.trace_id == sweep.trace_id
        assert remote.parent_id == sweep.span_id
        assert remote.depth == sweep.depth + 1
