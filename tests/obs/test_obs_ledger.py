"""Tests for repro.obs.ledger: records, ledger IO, diffing."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    build_run_record,
    diff_records,
    fingerprint_of,
    null_result_keys,
    render_diff,
    render_report,
    render_runs,
    scalar_view,
    span_quantiles,
)
from repro.obs.trace import Span


def make_span(name, start, end, span_id=1):
    return Span(
        name=name,
        span_id=span_id,
        parent_id=None,
        depth=0,
        start_s=start,
        end_s=end,
        status="ok",
    )


class TestFingerprint:
    def test_key_order_does_not_matter(self):
        assert fingerprint_of({"a": 1, "b": 2}) == fingerprint_of(
            {"b": 2, "a": 1}
        )

    def test_different_values_differ(self):
        assert fingerprint_of({"a": 1}) != fingerprint_of({"a": 2})

    def test_nan_is_canonicalised_not_fatal(self):
        # _json_safe maps NaN to None before hashing.
        assert fingerprint_of({"x": float("nan")}) == fingerprint_of(
            {"x": None}
        )


class TestSpanQuantiles:
    def test_quantiles_per_name(self):
        spans = [
            make_span("fix", 0.0, 1.0),
            make_span("fix", 0.0, 3.0),
            make_span("correct", 0.0, 0.5),
        ]
        out = span_quantiles(spans)
        assert out["fix"]["count"] == 2
        assert out["fix"]["total_s"] == pytest.approx(4.0)
        assert out["fix"]["p50_s"] == pytest.approx(2.0)
        assert out["correct"]["p99_s"] == pytest.approx(0.5)

    def test_open_spans_excluded(self):
        open_span = make_span("fix", 0.0, float("nan"))
        assert span_quantiles([open_span]) == {}


class TestBuildRunRecord:
    def test_embeds_observer_data_when_enabled(self):
        obs = Observability(enabled=True).preregister()
        with obs.span("fix"):
            obs.metrics.counter("eval.fixes_total").inc()
        record = build_run_record(
            "evaluate",
            obs,
            label="unit",
            config={"seed": 7},
            workers=2,
            results={"median_m": 0.5},
            artifacts=["trace.ndjson"],
        )
        assert record.command == "evaluate"
        assert record.workers == 2
        assert record.fingerprint == fingerprint_of({"seed": 7})
        assert record.host["cpu_count"] >= 1
        assert "fix" in record.spans
        assert any(
            m.get("name") == "eval.fixes_total" for m in record.metrics
        )
        payload = record.to_dict()
        assert payload["type"] == "run"
        json.dumps(payload, allow_nan=False)

    def test_disabled_observer_embeds_nothing(self):
        record = build_run_record("bench", Observability(enabled=False))
        assert record.metrics == []
        assert record.spans == {}
        assert record.fingerprint == ""


class TestRunLedger:
    def test_append_and_load_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.ndjson")
        written = ledger.append(build_run_record("evaluate"))
        assert ledger.load() == [written]

    def test_non_finite_values_round_trip_as_strict_json(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.ndjson")
        record = build_run_record(
            "evaluate",
            results={
                "nan": float("nan"),
                "pos": float("inf"),
                "neg": float("-inf"),
            },
        )
        ledger.append(record)
        for line in ledger.path.read_text().splitlines():
            json.loads(line)  # strict: bare NaN/Infinity would fail
        loaded = ledger.load()[0]
        assert loaded["results"] == {
            "nan": None,
            "pos": "Infinity",
            "neg": "-Infinity",
        }

    def test_load_missing_file_is_empty(self, tmp_path):
        assert RunLedger(tmp_path / "absent.ndjson").load() == []

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "runs.ndjson"
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt ledger"):
            RunLedger(path).load()

    def test_append_creates_parent_dirs(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "runs.ndjson")
        ledger.append({"run_id": "abc"})
        assert ledger.path.exists()

    def test_concurrent_appends_keep_lines_whole(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.ndjson")

        def writer(i):
            for j in range(20):
                ledger.append({"run_id": f"w{i}-{j}", "payload": "x" * 64})

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = ledger.load()  # raises on any torn line
        assert len(records) == 80
        assert len({r["run_id"] for r in records}) == 80

    def test_resolve_by_index_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.ndjson")
        ledger.append({"run_id": "aaa111"})
        ledger.append({"run_id": "bbb222"})
        assert ledger.resolve("-1")["run_id"] == "bbb222"
        assert ledger.resolve("aaa")["run_id"] == "aaa111"
        with pytest.raises(ConfigurationError, match="no ledger record"):
            ledger.resolve("zzz")
        with pytest.raises(ConfigurationError, match="out of range"):
            ledger.resolve("-5")

    def test_resolve_ambiguous_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.ndjson")
        ledger.append({"run_id": "abc1"})
        ledger.append({"run_id": "abc2"})
        with pytest.raises(ConfigurationError, match="ambiguous"):
            ledger.resolve("abc")

    def test_resolve_empty_ledger(self, tmp_path):
        with pytest.raises(ConfigurationError, match="empty or missing"):
            RunLedger(tmp_path / "runs.ndjson").resolve("-1")


def record_with(metrics=(), spans=None, results=None):
    return {
        "run_id": "r1",
        "command": "evaluate",
        "timestamp": "t",
        "metrics": list(metrics),
        "spans": spans or {},
        "results": results or {},
    }


class TestScalarView:
    def test_namespaced_flattening(self):
        record = record_with(
            metrics=[
                {"type": "counter", "name": "eval.fixes_total", "value": 9},
                {
                    "type": "histogram",
                    "name": "eval.fix_latency_s",
                    "count": 9,
                    "mean": 0.1,
                    "p50": 0.05,
                    "p95": 0.2,
                },
            ],
            spans={"fix": {"count": 9, "p50_s": 0.05, "p95_s": 0.2,
                           "p99_s": 0.3}},
            results={"bloc.median_m": 0.5, "note": "text ignored"},
        )
        view = scalar_view(record)
        assert view["metric:eval.fixes_total"] == 9.0
        assert view["metric:eval.fix_latency_s.p95"] == 0.2
        assert view["span:fix.p99_s"] == 0.3
        assert view["result:bloc.median_m"] == 0.5
        assert "result:note" not in view

    def test_bools_and_nulls_dropped(self):
        record = record_with(
            results={"flag": True, "missing": None, "x": 1}
        )
        view = scalar_view(record)
        assert "result:flag" not in view
        assert "result:missing" not in view
        assert view["result:x"] == 1.0


class TestDiffAndRender:
    def test_diff_rows(self):
        a = record_with(results={"x": 2.0, "only_a": 1.0})
        b = record_with(results={"x": 3.0, "only_b": 4.0})
        rows = {r["key"]: r for r in diff_records(a, b)}
        assert rows["result:x"]["delta"] == pytest.approx(1.0)
        assert rows["result:x"]["pct"] == pytest.approx(0.5)
        assert rows["result:only_a"]["b"] is None
        assert rows["result:only_a"]["delta"] is None
        assert rows["result:only_b"]["a"] is None

    def test_zero_baseline_has_no_pct(self):
        a = record_with(results={"x": 0.0})
        b = record_with(results={"x": 5.0})
        (row,) = diff_records(a, b)
        assert row["pct"] is None

    def test_render_diff_min_pct_filters(self):
        a = record_with(results={"big": 1.0, "small": 1.0})
        b = record_with(results={"big": 2.0, "small": 1.001})
        text = render_diff(a, b, min_pct=0.05)
        assert "result:big" in text
        assert "result:small" not in text

    def test_render_runs_and_report(self):
        a = record_with(results={"x": 1.0})
        b = record_with(results={"x": 2.0})
        b = dict(b, run_id="r2")
        assert "r1" in render_runs([a, b])
        report = render_report([a, b])
        assert "== runs ==" in report
        assert "latest diff" in report
        assert "result:x" in report

    def test_report_needs_two_records(self):
        text = render_report([record_with()])
        assert "need >= 2 ledger records" in text


class TestNullSpeedupRendering:
    """A 1-cpu bench records speedups as null; the report says why."""

    def test_null_result_keys_labelled(self):
        record = record_with(
            results={
                "evaluate.speedup_parallel_vs_serial": None,
                "process.speedup_process_vs_serial": None,
                "other_thing": None,
                "evaluate.serial_fixes_per_s": 40.0,
            }
        )
        keys = null_result_keys(record)
        assert (
            keys["result:evaluate.speedup_parallel_vs_serial"]
            == "n/a (1 cpu)"
        )
        assert (
            keys["result:process.speedup_process_vs_serial"]
            == "n/a (1 cpu)"
        )
        assert keys["result:other_thing"] == "n/a"
        assert "result:evaluate.serial_fixes_per_s" not in keys

    def test_report_renders_na_for_null_speedup(self):
        a = record_with(
            results={
                "evaluate.speedup_parallel_vs_serial": None,
                "x": 1.0,
            }
        )
        b = dict(
            record_with(
                results={
                    "evaluate.speedup_parallel_vs_serial": None,
                    "x": 2.0,
                }
            ),
            run_id="r2",
        )
        report = render_report([a, b])
        assert "result:evaluate.speedup_parallel_vs_serial" in report
        assert "n/a (1 cpu)" in report

    def test_null_on_one_side_renders_na_against_number(self):
        a = record_with(
            results={"evaluate.speedup_parallel_vs_serial": 3.4}
        )
        b = dict(
            record_with(
                results={"evaluate.speedup_parallel_vs_serial": None}
            ),
            run_id="r2",
        )
        text = render_diff(a, b)
        assert "3.4" in text
        assert "n/a (1 cpu)" in text
