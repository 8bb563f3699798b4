"""Tests for request-trace identity: traceparent headers and trace-id
inheritance."""

from __future__ import annotations

import pytest

from repro.obs.trace import (
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
