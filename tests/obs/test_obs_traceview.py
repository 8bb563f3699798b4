"""Tests for trace reconstruction from NDJSON exports
(resolve_trace_id / trace_spans / render_trace)."""

from __future__ import annotations

import pytest

from repro.obs.context import Observability
from repro.obs.export import (
    export_ndjson,
    load_ndjson,
    render_trace,
    resolve_trace_id,
    trace_spans,
)
from repro.obs.trace import new_trace_id


@pytest.fixture
def export_records(tmp_path):
    """An export with one request trace and an unrelated one."""
    obs = Observability(enabled=True)
    trace_id = new_trace_id()
    with obs.span("service.locate", trace_id=trace_id):
        with obs.span("service.provider_chain"):
            with obs.span("correct"):
                pass
            with obs.span("map_likelihood"):
                pass
    # An unrelated trace that must never be selected.
    with obs.span("service.locate", trace_id=new_trace_id()) as other:
        with obs.span("service.provider_chain"):
            pass
    path = tmp_path / "export.ndjson"
    export_ndjson(path, obs)
    return load_ndjson(path), trace_id, other.trace_id


class TestResolveTraceId:
    def test_exact_match(self, export_records):
        records, trace_id, _ = export_records
        assert resolve_trace_id(records, trace_id) == trace_id

    def test_unique_prefix_resolves(self, export_records):
        records, trace_id, _ = export_records
        assert resolve_trace_id(records, trace_id[:12]) == trace_id

    def test_unknown_id_raises(self, export_records):
        records, _, _ = export_records
        with pytest.raises(ValueError, match="no span"):
            resolve_trace_id(records, "f" * 32)

    def test_ambiguous_prefix_raises(self, export_records):
        records, _, _ = export_records
        with pytest.raises(ValueError, match="ambiguous"):
            resolve_trace_id(records, "")


class TestTraceSpans:
    def test_own_spans_selected(self, export_records):
        records, trace_id, _ = export_records
        names = {
            r["name"] for r in trace_spans(records, trace_id)
        }
        assert names == {
            "service.locate",
            "service.provider_chain",
            "correct",
            "map_likelihood",
        }

    def test_unrelated_traces_excluded(self, export_records):
        records, trace_id, other_trace = export_records
        selected = trace_spans(records, trace_id)
        assert len(selected) == 4
        assert all(r["trace_id"] == trace_id for r in selected)
        assert len(trace_spans(records, other_trace)) == 2

    def test_unknown_trace_selects_nothing(self, export_records):
        records, _, _ = export_records
        assert trace_spans(records, "f" * 32) == []


class TestRenderTrace:
    def test_header_counts_spans(self, export_records):
        records, trace_id, _ = export_records
        text = render_trace(records, trace_id)
        assert text.startswith(f"trace {trace_id}:")
        assert "4 spans" in text

    def test_tree_nests_by_parent(self, export_records):
        records, trace_id, _ = export_records
        lines = render_trace(records, trace_id).splitlines()[1:]
        assert [line.split()[1] for line in lines] == [
            "service.locate",
            "service.provider_chain",
            "correct",
            "map_likelihood",
        ]
        assert lines[0].startswith("`- ")
        assert lines[1].startswith("   `- ")
        assert lines[2].startswith("      |- ")
        assert lines[3].startswith("      `- ")

    def test_empty_trace_renders_placeholder(self, export_records):
        records, _, _ = export_records
        text = render_trace(records, "f" * 32)
        assert "no spans" in text
