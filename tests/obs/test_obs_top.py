"""Tests for the `repro obs top` dashboard: frame building, rendering,
and the rotation-aware access-log tailer."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.obs.top import (
    AccessLogTail,
    build_frame,
    read_access_records,
    render_frame,
    run_top,
)


def _record(ts, status=200, provider="bloc", latency_s=0.05, trace_id=""):
    return {
        "ts": ts,
        "status": status,
        "provider": provider,
        "latency_s": latency_s,
        "trace_id": trace_id,
    }


class TestReadAccessRecords:
    def test_missing_file_is_empty(self, tmp_path):
        assert read_access_records(tmp_path / "nope.ndjson") == []

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "access.ndjson"
        path.write_text(
            json.dumps(_record(1.0)) + "\n"
            + "{torn line\n"
            + "[1, 2]\n"
            + json.dumps(_record(2.0)) + "\n"
        )
        records = read_access_records(path)
        assert [r["ts"] for r in records] == [1.0, 2.0]


class TestBuildFrame:
    def test_empty_records_give_empty_frame(self):
        frame = build_frame([], window_s=60.0)
        assert frame.requests == 0
        assert frame.rps == 0.0

    def test_window_anchors_on_newest_record(self):
        records = [_record(0.0), _record(100.0), _record(110.0)]
        frame = build_frame(records, window_s=60.0)
        assert frame.requests == 2  # ts=0 fell out of the window

    def test_error_rate_counts_non_2xx(self):
        records = [
            _record(1.0, status=200),
            _record(2.0, status=429),
            _record(3.0, status=503),
            _record(4.0, status=200),
        ]
        frame = build_frame(records, window_s=60.0)
        assert frame.error_rate == pytest.approx(0.5)
        assert frame.statuses == {"200": 2, "429": 1, "503": 1}

    def test_fallback_rate_is_non_bloc_share(self):
        records = [
            _record(1.0, provider="bloc"),
            _record(2.0, provider="bloc"),
            _record(3.0, provider="aoa"),
            _record(4.0, provider="rssi"),
        ]
        frame = build_frame(records, window_s=60.0)
        assert frame.fallback_rate == pytest.approx(0.5)
        assert frame.providers == {"bloc": 2, "aoa": 1, "rssi": 1}

    def test_latency_quantiles_in_ms(self):
        records = [
            _record(float(i), latency_s=0.010 * (i + 1))
            for i in range(10)
        ]
        frame = build_frame(records, window_s=60.0)
        assert frame.latency_ms["p50"] == pytest.approx(55.0, abs=10.0)
        assert frame.latency_ms["p99"] <= 100.0 + 1e-6

    def test_slowest_request_trace_id_surfaces(self):
        records = [
            _record(1.0, latency_s=0.02, trace_id="aa" * 16),
            _record(2.0, latency_s=0.90, trace_id="bb" * 16),
            _record(3.0, latency_s=0.05, trace_id="cc" * 16),
        ]
        frame = build_frame(records, window_s=60.0)
        assert frame.slowest_trace_id == "bb" * 16
        assert frame.slowest_latency_ms == pytest.approx(900.0)

    def test_explicit_now_shifts_the_window(self):
        records = [_record(10.0), _record(100.0)]
        frame = build_frame(records, window_s=30.0, now=35.0)
        assert frame.requests == 1


class TestRenderFrame:
    def test_shows_rates_providers_and_stats(self):
        records = [
            _record(1.0, provider="bloc", trace_id="ab" * 16),
            _record(
                2.0, provider="aoa", latency_s=0.4, trace_id="cd" * 16
            ),
        ]
        stats = {
            "cache": {
                "hits": 9,
                "misses": 1,
                "entries": 2,
                "hit_ratio": 0.9,
            },
            "pool": {"warmth": {"vicon": True, "open_room": False}},
        }
        text = render_frame(
            build_frame(records, window_s=60.0, stats=stats)
        )
        assert "requests" in text and "rps" in text
        assert "bloc" in text and "aoa" in text
        assert "hit ratio 90.0%" in text
        assert "vicon:warm" in text and "open_room:cold" in text
        assert "slowest" in text  # the 0.4 s aoa request

    def test_empty_frame_renders_without_error(self):
        text = render_frame(build_frame([], window_s=60.0))
        assert "requests" in text


class TestAccessLogTail:
    def test_incremental_polls(self, tmp_path):
        path = tmp_path / "access.ndjson"
        tail = AccessLogTail(path)
        assert tail.poll() == []
        with path.open("a") as fh:
            fh.write(json.dumps(_record(1.0)) + "\n")
        assert [r["ts"] for r in tail.poll()] == [1.0]
        with path.open("a") as fh:
            fh.write(json.dumps(_record(2.0)) + "\n")
        assert [r["ts"] for r in tail.poll()] == [2.0]
        assert tail.poll() == []

    def test_rotation_restarts_at_new_file(self, tmp_path):
        path = tmp_path / "access.ndjson"
        tail = AccessLogTail(path)
        path.write_text(
            json.dumps(_record(1.0)) + "\n"
            + json.dumps(_record(2.0)) + "\n"
        )
        assert len(tail.poll()) == 2
        # Size-based rotation: the service renames and starts fresh.
        os.replace(path, str(path) + ".1")
        path.write_text(json.dumps(_record(3.0)) + "\n")
        assert [r["ts"] for r in tail.poll()] == [3.0]

    def test_torn_tail_reread_on_next_poll(self, tmp_path):
        path = tmp_path / "access.ndjson"
        tail = AccessLogTail(path)
        with path.open("a") as fh:
            fh.write(json.dumps(_record(1.0)) + "\n")
            fh.write('{"ts": 2.0')  # no newline: mid-write
        assert [r["ts"] for r in tail.poll()] == [1.0]
        with path.open("a") as fh:
            fh.write(', "status": 200}\n')
        assert [r["ts"] for r in tail.poll()] == [2.0]


class TestRunTop:
    def test_single_frame_scripting_mode(self, tmp_path):
        path = tmp_path / "access.ndjson"
        path.write_text(
            json.dumps(_record(1.0, trace_id="ab" * 16)) + "\n"
        )
        out = io.StringIO()
        rendered = run_top(path, frames=1, out=out, clear=False)
        assert rendered == 1
        text = out.getvalue()
        assert "requests" in text
        assert "\x1b[" not in text  # no ANSI codes in --once mode

    def test_rotated_generation_included(self, tmp_path):
        path = tmp_path / "access.ndjson"
        (tmp_path / "access.ndjson.1").write_text(
            json.dumps(_record(1.0)) + "\n"
        )
        path.write_text(json.dumps(_record(2.0)) + "\n")
        out = io.StringIO()
        run_top(path, frames=1, out=out, clear=False)
        assert "requests      2" in out.getvalue()
