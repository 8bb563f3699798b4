"""End-to-end request tracing through the service.

Covers the telemetry pipeline's acceptance flow: a traceparent header in
-> the same trace id out (response body, header, access log); the span
tree of one request -- HTTP handler, provider chain, localizer stages --
reconstructable from an NDJSON export; /metrics serving OpenMetrics
whose latency histogram carries exemplar trace ids that resolve against
that export; and the size-rotated access log.
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, Tuple

import pytest

from repro.obs import (
    exemplar_trace_ids,
    export_ndjson,
    load_ndjson,
    observed,
    parse_exposition,
    render_trace,
    resolve_trace_id,
    trace_spans,
)
from repro.obs.trace import format_traceparent, new_trace_id
from repro.service import LocalizationService, ServiceConfig


def _post(
    host: str,
    port: int,
    body: bytes,
    headers: Dict[str, str] = None,
) -> Tuple[int, dict, Dict[str, str]]:
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request(
            "POST",
            "/v1/locate",
            body=body,
            headers={
                "Content-Type": "application/json",
                **(headers or {}),
            },
        )
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        response_headers = {
            k.lower(): v for k, v in response.getheaders()
        }
        return response.status, payload, response_headers
    finally:
        connection.close()


def _get(
    host: str, port: int, path: str
) -> Tuple[int, bytes, Dict[str, str]]:
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, response.read(), headers
    finally:
        connection.close()


class TestTraceparentPropagation:
    def test_inbound_trace_id_echoed(self, live_server, locate_body):
        host, port = live_server
        trace_id = new_trace_id()
        status, payload, headers = _post(
            host,
            port,
            locate_body,
            headers={"traceparent": format_traceparent(trace_id, 7)},
        )
        assert status == 200
        assert payload["trace_id"] == trace_id
        assert trace_id in headers["traceparent"]

    def test_missing_header_mints_a_trace(
        self, live_server, locate_body
    ):
        host, port = live_server
        status, payload, headers = _post(host, port, locate_body)
        assert status == 200
        assert len(payload["trace_id"]) == 32
        assert payload["trace_id"] in headers["traceparent"]

    def test_malformed_header_starts_fresh(
        self, live_server, locate_body
    ):
        host, port = live_server
        status, payload, _ = _post(
            host,
            port,
            locate_body,
            headers={"traceparent": "zz-garbage"},
        )
        assert status == 200
        assert len(payload["trace_id"]) == 32

    def test_error_responses_carry_the_trace(self, live_server):
        host, port = live_server
        trace_id = new_trace_id()
        status, payload, headers = _post(
            host,
            port,
            b"{not json",
            headers={"traceparent": format_traceparent(trace_id)},
        )
        assert status == 400
        assert payload["trace_id"] == trace_id
        assert trace_id in headers["traceparent"]

    def test_health_and_stats_traced(self, live_server):
        host, port = live_server
        for path in ("/v1/health", "/v1/stats"):
            status, raw, headers = _get(host, port, path)
            assert status == 200
            payload = json.loads(raw.decode("utf-8"))
            assert payload["trace_id"] in headers["traceparent"]


class TestSpanTreeReconstruction:
    def test_request_tree_on_the_handler_thread(
        self, live_server, locate_body, tmp_path
    ):
        host, port = live_server
        trace_id = new_trace_id()
        with observed() as obs:
            status, payload, _ = _post(
                host,
                port,
                locate_body,
                headers={
                    "traceparent": format_traceparent(trace_id)
                },
            )
            assert status == 200
            assert payload["trace_id"] == trace_id
            export_path = tmp_path / "trace.ndjson"
            export_ndjson(export_path, obs)
        records = load_ndjson(export_path)
        assert resolve_trace_id(records, trace_id[:12]) == trace_id
        selected = trace_spans(records, trace_id)
        by_id = {r["span_id"]: r for r in selected}
        # Handler -> provider chain -> localizer stages, all on the
        # request's own trace and the thread that accepted it.
        (chain,) = [
            r for r in selected if r["name"] == "service.provider_chain"
        ]
        assert by_id[chain["parent_id"]]["name"] == "service.locate"
        assert {"service.locate", "correct", "map_likelihood"} <= {
            r["name"] for r in selected
        }
        assert len({r["thread"] for r in selected}) == 1
        rendered = render_trace(records, trace_id)
        assert rendered.startswith(f"trace {trace_id}:")
        assert "service.provider_chain" in rendered

    def test_metrics_exemplars_resolve_against_export(
        self, live_server, locate_body, tmp_path
    ):
        host, port = live_server
        trace_id = new_trace_id()
        with observed() as obs:
            status, _, _ = _post(
                host,
                port,
                locate_body,
                headers={
                    "traceparent": format_traceparent(trace_id)
                },
            )
            assert status == 200
            export_path = tmp_path / "trace.ndjson"
            export_ndjson(export_path, obs)
        status, raw, headers = _get(host, port, "/metrics")
        assert status == 200
        assert "openmetrics" in headers["content-type"]
        exposition = raw.decode("utf-8")
        families = parse_exposition(exposition)
        assert "service_request_latency_s" in families
        ids = exemplar_trace_ids(exposition)
        # The request just made is the histogram's latest observation,
        # so its trace id must be an exemplar somewhere...
        assert trace_id in ids
        # ...and that exemplar resolves against the span export (the
        # acceptance criterion's cross-check).
        records = load_ndjson(export_path)
        assert resolve_trace_id(records, trace_id) == trace_id


class TestMetricsEndpoint:
    def test_served_without_global_observer(
        self, live_server, locate_body
    ):
        # No observed() here: the service-local registry is always on.
        host, port = live_server
        _post(host, port, locate_body)
        status, raw, _ = _get(host, port, "/metrics")
        assert status == 200
        families = parse_exposition(raw.decode("utf-8"))
        requests_family = families["service_requests"]
        assert requests_family.type == "counter"
        assert requests_family.samples[0].value >= 1

    def test_stats_surface_cache_warmth_telemetry(
        self, live_server, locate_body
    ):
        host, port = live_server
        _post(host, port, locate_body)
        status, raw, _ = _get(host, port, "/v1/stats")
        assert status == 200
        payload = json.loads(raw.decode("utf-8"))
        cache = payload["cache"]
        assert cache["hits"] >= 1
        assert 0.0 <= cache["hit_ratio"] <= 1.0
        warmth = payload["pool"]["warmth"]
        assert warmth["vicon"] is True
        telemetry = payload["telemetry"]
        assert telemetry["fixes_recorded"] >= 1
        assert "anomalies_total" in telemetry


class TestAccessLogRotation:
    @pytest.fixture
    def logged_service(self, service_pool, tmp_path):
        path = tmp_path / "access.ndjson"
        service = LocalizationService(
            pool=service_pool,
            config=ServiceConfig(
                rate_per_s=10_000.0,
                burst=10_000,
                max_wait_s=0.002,
                access_log_path=str(path),
                access_log_max_bytes=600,
            ),
        )
        yield service, path
        service.close()

    def test_lines_carry_trace_ids_and_rotate(
        self, logged_service, locate_body
    ):
        service, path = logged_service
        trace_ids = []
        for _ in range(4):
            trace_id = new_trace_id()
            status, _, _ = service.handle_locate(
                locate_body,
                traceparent=format_traceparent(trace_id),
            )
            assert status == 200
            trace_ids.append(trace_id)
        rotated = path.with_name(path.name + ".1")
        assert rotated.exists()  # 4 lines cannot fit in 600 bytes
        lines = []
        for source in (rotated, path):
            lines += [
                json.loads(line)
                for line in source.read_text().splitlines()
            ]
        assert [r["trace_id"] for r in lines] == trace_ids
        assert all(r["status"] == 200 for r in lines)
