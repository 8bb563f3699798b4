"""HTTP endpoint against a live ephemeral-port server.

Covers the ISSUE's error-path matrix: malformed JSON -> 400, unknown
scenario -> 404, exhausted token bucket -> 429 with Retry-After,
injected band outage -> fallback provider (not a 5xx), warm steering
cache reuse across requests, and concurrent requests answered
bit-identically to serial in-process ones.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from typing import Dict, Optional, Tuple

import pytest

from repro.errors import LocalizationError, ReproError
from repro.service import (
    LocalizationService,
    LocalizerPool,
    QualityGates,
    ScenarioSpec,
    ServiceConfig,
    decode_observations,
    encode_observations,
    make_server,
)
from repro.service.schema import MAX_BODY_BYTES
from repro.sim import ChannelMeasurementModel
from repro.sim.interference import inject_band_outage
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point


def _post(
    host: str,
    port: int,
    body: bytes,
    path: str = "/v1/locate",
) -> Tuple[int, dict, Dict[str, str]]:
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request(
            "POST",
            path,
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, payload, headers
    finally:
        connection.close()


def _get(host: str, port: int, path: str) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestLocateHappyPath:
    def test_locate_returns_position_and_provider(
        self, live_server, locate_body, tag_position
    ):
        host, port = live_server
        status, payload, _ = _post(host, port, locate_body)
        assert status == 200
        assert payload["provider"] == "bloc"
        assert payload["scenario"] == "vicon"
        position = payload["position"]
        # Coarse service grid: decimetres of quantisation are expected.
        assert abs(position["x"] - tag_position.x) < 1.0
        assert abs(position["y"] - tag_position.y) < 1.0
        assert payload["quality"]["band_coverage"] == pytest.approx(1.0)
        assert payload["fallback_reasons"] == []
        assert payload["latency_s"] > 0

    def test_second_request_hits_warm_steering_cache(
        self, live_server, locate_body, service_pool
    ):
        host, port = live_server
        status, _, _ = _post(host, port, locate_body)
        assert status == 200
        before = service_pool.engine.info()
        status, _, _ = _post(host, port, locate_body)
        assert status == 200
        after = service_pool.engine.info()
        # Warm path: the hit counter moves, nothing is rebuilt.
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]
        assert after["entries"] == before["entries"]


class TestErrorPaths:
    def test_malformed_json_is_400(self, live_server):
        host, port = live_server
        status, payload, _ = _post(host, port, b"{definitely not json")
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert payload["error"]["field"] == "body"

    def test_bad_shape_is_400(self, live_server, observations):
        host, port = live_server
        encoded = encode_observations(observations)
        encoded["tag_to_anchor"] = encoded["tag_to_anchor"][:-1]
        body = json.dumps(
            {"scenario": "vicon", "observations": encoded}
        ).encode()
        status, payload, _ = _post(host, port, body)
        assert status == 400
        assert "tag_to_anchor" in payload["error"]["field"]

    def test_unknown_scenario_is_404(self, live_server, observations):
        host, port = live_server
        body = json.dumps(
            {
                "scenario": "warehouse-9",
                "observations": encode_observations(observations),
            }
        ).encode()
        status, payload, _ = _post(host, port, body)
        assert status == 404
        assert payload["error"]["code"] == "unknown_scenario"
        assert "vicon" in payload["error"]["scenarios"]

    def test_unknown_route_is_404(self, live_server):
        host, port = live_server
        status, payload, _ = _post(host, port, b"{}", path="/v2/locate")
        assert status == 404
        status, payload = _get(host, port, "/nope")
        assert status == 404

    def test_empty_body_is_400(self, live_server):
        host, port = live_server
        status, payload, _ = _post(host, port, b"")
        assert status == 400


class TestRateLimiting:
    @pytest.fixture()
    def throttled_server(self, service_pool):
        """A server whose buckets hold 2 tokens and barely refill."""
        service = LocalizationService(
            pool=service_pool,
            config=ServiceConfig(rate_per_s=0.01, burst=2),
        )
        server = make_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        yield str(host), int(port)
        server.shutdown()
        server.server_close()
        service.close()

    def test_exhaustion_yields_429_with_retry_after(
        self, throttled_server, locate_body
    ):
        host, port = throttled_server
        statuses = []
        retry_after: Optional[str] = None
        payload: dict = {}
        for _ in range(3):
            status, payload, headers = _post(host, port, locate_body)
            statuses.append(status)
            if status == 429:
                retry_after = headers.get("retry-after")
        assert statuses[:2] == [200, 200]
        assert statuses[2] == 429
        assert payload["error"]["code"] == "rate_limited"
        assert payload["error"]["retry_after_s"] > 0
        assert retry_after is not None and int(retry_after) >= 1

    def test_other_keys_unaffected_by_exhaustion(
        self, throttled_server, observations
    ):
        host, port = throttled_server

        def body_for(key: str) -> bytes:
            return json.dumps(
                {
                    "key": key,
                    "scenario": "vicon",
                    "observations": encode_observations(observations),
                }
            ).encode()

        for _ in range(3):
            status, _, _ = _post(host, port, body_for("hog"))
        assert status == 429
        status, _, _ = _post(host, port, body_for("patient"))
        assert status == 200


class TestAllowlist:
    @pytest.fixture()
    def allowlisted_service(self, service_pool):
        service = LocalizationService(
            pool=service_pool,
            config=ServiceConfig(api_keys=frozenset({"good"})),
        )
        yield service
        service.close()

    def test_unknown_key_is_401(
        self, allowlisted_service, observations
    ):
        body = json.dumps(
            {
                "key": "evil",
                "scenario": "vicon",
                "observations": encode_observations(observations),
            }
        ).encode()
        status, payload, _ = allowlisted_service.handle_locate(body)
        assert status == 401
        assert payload["error"]["code"] == "unauthorized"

    def test_listed_key_is_served(
        self, allowlisted_service, observations
    ):
        body = json.dumps(
            {
                "key": "good",
                "scenario": "vicon",
                "observations": encode_observations(observations),
            }
        ).encode()
        status, payload, _ = allowlisted_service.handle_locate(body)
        assert status == 200


class TestProviderFallbackOverHttp:
    def test_band_outage_degrades_not_500(
        self, live_server, observations
    ):
        host, port = live_server
        degraded = inject_band_outage(
            observations, anchor_index=0, band_indices=list(range(30))
        )
        body = json.dumps(
            {
                "scenario": "vicon",
                "observations": encode_observations(degraded),
            }
        ).encode()
        status, payload, _ = _post(host, port, body)
        assert status == 200
        assert payload["provider"] in ("aoa", "rssi")
        assert any(
            "bloc" in reason for reason in payload["fallback_reasons"]
        )


def _body(scenario: str, observations) -> bytes:
    payload = {
        "scenario": scenario,
        "observations": encode_observations(observations),
    }
    return json.dumps(payload).encode()


class TestConcurrentRequests:
    def test_concurrent_requests_match_serial_in_process(
        self, live_server, service_pool, observations
    ):
        """Requests served at once on separate handler threads answer
        exactly what the provider chain answers for them one by one."""
        host, port = live_server
        room = open_room_testbed()
        room_model = ChannelMeasurementModel(testbed=room, seed=5)
        outage = inject_band_outage(
            observations, anchor_index=0, band_indices=list(range(30))
        )
        requests = [
            ("vicon", observations),
            ("open_room", room_model.measure(Point(0.6, -0.4))),
            ("vicon", outage),
        ] * 3
        bodies = [_body(name, obs) for name, obs in requests]
        results: Dict[int, Tuple[int, dict]] = {}
        lock = threading.Lock()
        start = threading.Barrier(len(bodies))

        def worker(index: int, body: bytes) -> None:
            start.wait(timeout=30.0)
            status, payload, _ = _post(host, port, body)
            with lock:
                results[index] = (status, payload)

        threads = [
            threading.Thread(target=worker, args=(i, body))
            for i, body in enumerate(bodies)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        providers = set()
        for index, ((name, _), body) in enumerate(zip(requests, bodies)):
            status, payload = results[index]
            assert status == 200, payload
            warm = service_pool.get(name)
            decoded = decode_observations(
                json.loads(body)["observations"],
                warm.testbed.anchors,
                warm.testbed.master_index,
            )
            serial = warm.chain.locate(decoded)
            assert payload["provider"] == serial.provider
            assert payload["fallback_reasons"] == serial.fallback_reasons
            assert payload["position"] == {
                "x": serial.position.x,
                "y": serial.position.y,
            }
            providers.add(serial.provider)
        assert "bloc" in providers and providers - {"bloc"}


class TestMasterOnlyRequest:
    """A sweep that heard only the master anchor has no cross-anchor
    geometry: BLoc must refuse it rather than answer next to the
    master, even with the quality gate wide open."""

    @pytest.fixture()
    def master_only_service(self):
        def master_only():
            from repro.sim.testbed import Testbed

            room = open_room_testbed()
            return Testbed(
                environment=room.environment,
                anchors=[room.master],
                master_index=0,
            )

        pool = LocalizerPool(
            scenarios={
                "master_only": ScenarioSpec(
                    "master_only", "the master anchor alone", master_only
                )
            },
            grid_resolution_m=0.35,
            gates=QualityGates(min_anchors=1),
        )
        service = LocalizationService(
            pool=pool,
            config=ServiceConfig(rate_per_s=10_000.0, burst=10_000),
        )
        yield service
        service.close()

    @pytest.mark.parametrize("x, y", [(-1.0, 1.2), (0.5, 0.5), (1.5, -1.0)])
    def test_never_answered_by_bloc(self, master_only_service, x, y):
        testbed = master_only_service.pool.get("master_only").testbed
        observations = ChannelMeasurementModel(
            testbed=testbed, seed=3
        ).measure(Point(x, y))
        status, payload, _ = master_only_service.handle_locate(
            _body("master_only", observations)
        )
        if status == 200:
            assert payload["provider"] != "bloc"
            reasons = payload["fallback_reasons"]
        else:
            assert status == 503
            reasons = [payload["error"]["message"]]
        assert any("BLoc needs >= 2 anchors" in r for r in reasons)
        chain = master_only_service.pool.get("master_only").chain
        with pytest.raises(LocalizationError, match=">= 2 anchors"):
            chain.bloc.locate(observations)


class TestServiceConfig:
    @pytest.mark.parametrize(
        "max_batch, max_wait_s", [(0, 0.01), (1, -1.0)]
    )
    def test_invalid_batch_fields_rejected(self, max_batch, max_wait_s):
        # Ignored since requests are served inline, but still
        # validated: the benchmark's server passes both fields.
        with pytest.raises(ReproError):
            ServiceConfig(max_batch=max_batch, max_wait_s=max_wait_s)


class TestIntrospectionRoutes:
    def test_health(self, live_server):
        host, port = live_server
        status, payload = _get(host, port, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert "vicon" in payload["scenarios"]

    def test_stats_expose_pool_and_limiter(self, live_server, locate_body):
        host, port = live_server
        _post(host, port, locate_body)
        status, payload = _get(host, port, "/v1/stats")
        assert status == 200
        assert payload["responses_by_status"].get("200", 0) >= 1
        assert payload["pool"]["engine"]["entries"] >= 1
        assert "allowed_total" in payload["ratelimit"]


def _post_with_length(
    host: str, port: int, content_length: str
) -> Tuple[int, dict, Dict[str, str]]:
    """POST with a hand-written Content-Length header and no body."""
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.putrequest("POST", "/v1/locate")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, payload, headers
    finally:
        connection.close()


class TestContentLength:
    @pytest.mark.parametrize("content_length", ["abc", "-5"])
    def test_invalid_length_is_400_envelope(
        self, live_server, content_length
    ):
        host, port = live_server
        status, payload, headers = _post_with_length(
            host, port, content_length
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert payload["error"]["field"] == "Content-Length"
        # The body's extent is unknown, so the connection is not reused.
        assert headers.get("connection") == "close"

    def test_oversized_length_is_413_and_closes(self, live_server):
        host, port = live_server
        status, payload, headers = _post_with_length(
            host, port, str(MAX_BODY_BYTES + 1)
        )
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"
        # The body was never read, so it must not be parsed as the
        # connection's next request.
        assert headers.get("connection") == "close"

    def test_server_survives_invalid_length(self, live_server):
        host, port = live_server
        _post_with_length(host, port, "abc")
        status, payload = _get(host, port, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"


class TestTransport:
    """The socket-level shape of responses, counted deterministically."""

    @pytest.fixture()
    def counted_server(self, service_app):
        """A live server whose handlers record TCP_NODELAY and writes.

        Each accepted connection appends one record: the server-side
        socket's TCP_NODELAY value and the sizes of the handler's
        socket writes, in order.
        """
        connections: list = []
        lock = threading.Lock()
        server = make_server(service_app, host="127.0.0.1", port=0)
        base = server.RequestHandlerClass

        class CountingHandler(base):  # type: ignore[misc,valid-type]
            def setup(self) -> None:
                super().setup()
                record = {
                    "nodelay": self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    ),
                    "writes": [],
                }
                with lock:
                    connections.append(record)
                # Buffered: count the raw socket writes under the
                # buffer; unbuffered: count the writer's sendalls.
                sink = getattr(self.wfile, "raw", self.wfile)
                write = sink.write

                def counting_write(data):
                    record["writes"].append(len(data))
                    return write(data)

                sink.write = counting_write

        server.RequestHandlerClass = CountingHandler
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        yield str(host), int(port), connections
        server.shutdown()
        server.server_close()

    def test_accepted_socket_has_nodelay(self, counted_server):
        host, port, connections = counted_server
        status, _ = _get(host, port, "/v1/health")
        assert status == 200
        assert len(connections) == 1
        assert connections[0]["nodelay"] != 0

    def test_locate_response_is_one_write(
        self, counted_server, locate_body
    ):
        host, port, connections = counted_server
        status, payload, _ = _post(host, port, locate_body)
        assert status == 200
        assert payload["provider"] == "bloc"
        assert len(connections[0]["writes"]) == 1

    def test_error_response_is_one_write(self, counted_server):
        host, port, connections = counted_server
        status, payload, _ = _post(host, port, b"{definitely not json")
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert len(connections[0]["writes"]) == 1

    def test_keep_alive_back_to_back_posts(
        self, counted_server, locate_body
    ):
        host, port, connections = counted_server
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            statuses = []
            for _ in range(3):
                connection.request(
                    "POST",
                    "/v1/locate",
                    body=locate_body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                json.loads(response.read().decode("utf-8"))
                statuses.append(response.status)
        finally:
            connection.close()
        assert statuses == [200, 200, 200]
        # One connection carried all three, one write per response.
        assert len(connections) == 1
        assert len(connections[0]["writes"]) == 3
