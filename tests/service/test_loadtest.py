"""Loadtest driver: percentiles, bench-JSON shape, CLI smoke."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ReproError
from repro.service import (
    LocalizationService,
    LocalizerPool,
    ServiceConfig,
    make_server,
)
from repro.service.loadtest import (
    build_request_bodies,
    fetch_grid_resolution_m,
    run_loadtest,
    update_bench_service_json,
)
from repro.service.schema import parse_locate_request


class TestBuildRequestBodies:
    def test_bodies_are_valid_locate_requests(self):
        bodies = build_request_bodies("vicon", count=2, seed=7)
        assert len(bodies) == 2
        for raw, truth in bodies:
            request = parse_locate_request(raw)
            assert request.scenario == "vicon"
            assert -3.0 <= truth.x <= 3.0

    def test_api_key_travels_in_envelope(self):
        (raw, _), = build_request_bodies(
            "vicon", count=1, seed=7, api_key="tenant"
        )
        assert parse_locate_request(raw).api_key == "tenant"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError, match="default scenarios"):
            build_request_bodies("warehouse-9", count=1)


class TestRunLoadtest:
    def test_against_live_server(self, live_server):
        host, port = live_server
        result = run_loadtest(
            host,
            port,
            scenario="vicon",
            clients=2,
            requests_per_client=2,
            seed=11,
        )
        assert result.requests == 4
        assert result.errors == 0
        assert 0 < result.p50_s <= result.p95_s <= result.p99_s
        assert result.throughput_rps > 0
        assert result.median_error_m is not None
        assert result.statuses.get("200") == 4
        assert sum(result.providers.values()) == 4

    def test_unreachable_server_raises(self):
        with pytest.raises(ReproError, match="no responses"):
            run_loadtest(
                "127.0.0.1",
                9,  # discard port: nothing listens there
                clients=1,
                requests_per_client=1,
                timeout_s=0.5,
            )


class TestBenchJson:
    def test_write_and_merge(self, tmp_path, live_server):
        host, port = live_server
        result = run_loadtest(
            host, port, clients=1, requests_per_client=2, seed=3
        )
        path = tmp_path / "BENCH_service.json"
        # Pre-existing foreign sections must survive the merge.
        path.write_text(json.dumps({"other_section": {"keep": 1}}))
        payload = update_bench_service_json(
            str(path),
            result,
            scenario="vicon",
            clients=1,
            grid_resolution_m=0.35,
        )
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["benchmark"] == "service"
        assert on_disk["service"]["p95_s"] > 0
        assert on_disk["service"]["requests"] == 2
        assert on_disk["scenario"]["grid_resolution_m"] == 0.35
        assert on_disk["other_section"] == {"keep": 1}


class TestCliSmoke:
    def test_loadtest_self_host_cli(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        bench = tmp_path / "BENCH_service.json"
        ledger = tmp_path / "runs.ndjson"
        status = main(
            [
                "loadtest",
                "--self-host",
                "--resolution",
                "0.5",
                "--clients",
                "2",
                "--per-client",
                "2",
                "--bench-out",
                str(bench),
                "--ledger",
                str(ledger),
            ]
        )
        assert status == 0
        payload = json.loads(bench.read_text())
        assert payload["service"]["p95_s"] > 0
        records = [
            json.loads(line)
            for line in ledger.read_text().splitlines()
            if line.strip()
        ]
        assert records, "loadtest must append a ledger RunRecord"
        results = records[-1]["results"]
        assert results["service.p95_s"] > 0
        assert results["service.requests"] == 4


class TestExternalServerGrid:
    """``repro loadtest --port`` records the grid the server runs on."""

    @pytest.fixture(scope="class")
    def server_at_0_2(self):
        service = LocalizationService(
            pool=LocalizerPool(grid_resolution_m=0.2),
            config=ServiceConfig(rate_per_s=10_000.0, burst=10_000),
        )
        server = make_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield str(host), int(port)
        server.shutdown()
        server.server_close()
        service.close()

    def test_fetch_grid_resolution(self, server_at_0_2):
        assert fetch_grid_resolution_m(*server_at_0_2) == 0.2

    def test_cli_records_server_grid(self, tmp_path, server_at_0_2):
        from repro.__main__ import main

        _, port = server_at_0_2
        bench = tmp_path / "BENCH_service.json"
        status = main(
            [
                "loadtest",
                "--port",
                str(port),
                "--clients",
                "1",
                "--per-client",
                "1",
                "--bench-out",
                str(bench),
                "--ledger",
                str(tmp_path / "runs.ndjson"),
            ]
        )
        assert status == 0
        payload = json.loads(bench.read_text())
        assert payload["scenario"]["grid_resolution_m"] == 0.2

    def test_unreachable_server_raises(self):
        with pytest.raises(ReproError, match="/v1/stats"):
            fetch_grid_resolution_m("127.0.0.1", 9, timeout_s=0.5)
