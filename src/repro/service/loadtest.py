"""Synthetic load driver for the locate endpoint.

Spins up N client threads against a live server, each posting synthetic
sweeps generated from the *same* deterministic testbed factory the
server keys its pool on -- so the driver knows every request's ground
truth and can report accuracy (median error) alongside latency.  Every
request's wall latency is recorded individually; the summary reports
p50/p95/p99, throughput, provider mix and status mix in the repo's
bench-JSON shape so ``repro obs slo`` can gate ``service.p95_s`` like
any other benchmark number.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.service.pool import default_scenarios
from repro.service.schema import encode_observations
from repro.sim.measurement import ChannelMeasurementModel
from repro.sim.scenario import sample_tag_positions
from repro.utils.geometry2d import Point


@dataclass
class LoadtestResult:
    """Aggregate outcome of one loadtest run.

    Attributes:
        requests / errors: total posted and non-200 counts.
        duration_s: wall time from first post to last response.
        p50_s / p95_s / p99_s: per-request latency percentiles.
        throughput_rps: requests / duration.
        median_error_m: median localization error over 200 responses
            (None when nothing succeeded).
        providers: 200-response count per provider.
        statuses: response count per HTTP status.
        trace_ids: sample of response trace ids (first few responses),
            for cross-checking against a span export or /metrics
            exemplars.
        slowest_trace_id: trace id of the slowest observed request --
            the natural argument to ``repro obs trace``.
    """

    requests: int
    errors: int
    duration_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    throughput_rps: float
    median_error_m: Optional[float]
    providers: Dict[str, int] = field(default_factory=dict)
    statuses: Dict[str, int] = field(default_factory=dict)
    trace_ids: List[str] = field(default_factory=list)
    slowest_trace_id: str = ""

    def to_dict(self) -> dict:
        """Bench-JSON ``service`` section."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 4),
            "p50_s": round(self.p50_s, 6),
            "p95_s": round(self.p95_s, 6),
            "p99_s": round(self.p99_s, 6),
            "throughput_rps": round(self.throughput_rps, 2),
            "median_error_m": (
                round(self.median_error_m, 4)
                if self.median_error_m is not None
                else None
            ),
            "providers": dict(sorted(self.providers.items())),
            "statuses": dict(sorted(self.statuses.items())),
            "trace_ids": list(self.trace_ids),
            "slowest_trace_id": self.slowest_trace_id,
        }


def build_request_bodies(
    scenario: str,
    count: int,
    seed: int = 0,
    api_key: Optional[str] = None,
    snr_db: float = 18.0,
) -> List[Tuple[bytes, Point]]:
    """Synthesise ``count`` locate bodies with known ground truth.

    Raises:
        ReproError: when ``scenario`` is not a default scenario (the
        driver needs the factory to reproduce the server's geometry).
    """
    scenarios = default_scenarios()
    if scenario not in scenarios:
        raise ReproError(
            f"loadtest knows only default scenarios "
            f"{sorted(scenarios)}, got {scenario!r}"
        )
    testbed = scenarios[scenario].factory()
    model = ChannelMeasurementModel(testbed, snr_db=snr_db, seed=seed)
    positions = sample_tag_positions(testbed, count, seed=seed)
    bodies: List[Tuple[bytes, Point]] = []
    for round_index, position in enumerate(positions):
        observations = model.measure(position, round_index=round_index)
        envelope: Dict[str, Any] = {
            "scenario": scenario,
            "observations": encode_observations(observations),
        }
        if api_key is not None:
            envelope["key"] = api_key
        bodies.append(
            (json.dumps(envelope).encode("utf-8"), position)
        )
    return bodies


def _post_one(
    connection: http.client.HTTPConnection, body: bytes
) -> Tuple[int, dict]:
    """POST one locate body, returning (status, decoded JSON)."""
    connection.request(
        "POST",
        "/v1/locate",
        body=body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    raw = response.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        payload = {}
    return response.status, payload


def run_loadtest(
    host: str,
    port: int,
    scenario: str = "vicon",
    clients: int = 4,
    requests_per_client: int = 8,
    seed: int = 0,
    api_key: Optional[str] = None,
    timeout_s: float = 60.0,
) -> LoadtestResult:
    """Drive a live server with ``clients`` concurrent posters.

    Each client owns one keep-alive connection and a disjoint slice of
    the synthetic dataset, so request streams are deterministic per
    (scenario, seed) and overlap in time -- which is what exercises the
    server's concurrent request handling.

    Raises:
        ReproError: when no request completed (server unreachable).
    """
    total = clients * requests_per_client
    bodies = build_request_bodies(
        scenario, total, seed=seed, api_key=api_key
    )
    latencies: List[float] = []
    errors_m: List[float] = []
    providers: Dict[str, int] = {}
    statuses: Dict[str, int] = {}
    trace_ids: List[str] = []
    slowest: Tuple[float, str] = (0.0, "")
    failures = 0
    lock = threading.Lock()

    def client(worker_index: int) -> None:
        nonlocal failures, slowest
        connection = http.client.HTTPConnection(
            host, port, timeout=timeout_s
        )
        start = worker_index * requests_per_client
        for body, truth in bodies[start : start + requests_per_client]:
            began = time.perf_counter()
            try:
                status, payload = _post_one(connection, body)
            except (OSError, http.client.HTTPException):
                with lock:
                    failures += 1
                connection.close()
                connection = http.client.HTTPConnection(
                    host, port, timeout=timeout_s
                )
                continue
            elapsed = time.perf_counter() - began
            trace_id = str(payload.get("trace_id") or "")
            with lock:
                latencies.append(elapsed)
                statuses[str(status)] = statuses.get(str(status), 0) + 1
                if trace_id:
                    if len(trace_ids) < 8:
                        trace_ids.append(trace_id)
                    if elapsed > slowest[0]:
                        slowest = (elapsed, trace_id)
                if status == 200:
                    provider = str(payload.get("provider", "?"))
                    providers[provider] = providers.get(provider, 0) + 1
                    position = payload.get("position") or {}
                    estimate = Point(
                        float(position.get("x", np.nan)),
                        float(position.get("y", np.nan)),
                    )
                    error = (estimate - truth).norm()
                    if np.isfinite(error):
                        errors_m.append(float(error))
                else:
                    failures += 1
        connection.close()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"load-{i}")
        for i in range(clients)
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration_s = time.perf_counter() - began
    if not latencies:
        raise ReproError(
            f"loadtest got no responses from {host}:{port} "
            f"(is the server up?)"
        )
    quantiles = np.percentile(np.asarray(latencies), [50, 95, 99])
    return LoadtestResult(
        requests=total,
        errors=failures,
        duration_s=duration_s,
        p50_s=float(quantiles[0]),
        p95_s=float(quantiles[1]),
        p99_s=float(quantiles[2]),
        throughput_rps=(
            len(latencies) / duration_s if duration_s > 0 else 0.0
        ),
        median_error_m=(
            float(np.median(errors_m)) if errors_m else None
        ),
        providers=providers,
        statuses=statuses,
        trace_ids=trace_ids,
        slowest_trace_id=slowest[1],
    )


def _fetch(host: str, port: int, path: str, timeout_s: float) -> bytes:
    """``GET path`` from a live server, returning the 200 body.

    Raises:
        ReproError: non-200 status or unreachable server.
    """
    connection = http.client.HTTPConnection(
        host, port, timeout=timeout_s
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        raw = response.read()
        if response.status != 200:
            raise ReproError(f"GET {path} returned {response.status}")
        return raw
    except (OSError, http.client.HTTPException) as exc:
        raise ReproError(f"GET {path} failed: {exc}") from exc
    finally:
        connection.close()


def fetch_metrics(
    host: str, port: int, timeout_s: float = 10.0
) -> str:
    """``GET /metrics`` from a live server, returning the exposition.

    Raises:
        ReproError: non-200 status or unreachable server.
    """
    return _fetch(host, port, "/metrics", timeout_s).decode("utf-8")


def fetch_grid_resolution_m(
    host: str, port: int, timeout_s: float = 10.0
) -> float:
    """The grid step a live server localizes on, from ``/v1/stats``.

    Raises:
        ReproError: non-200 status or unreachable server.
    """
    stats = json.loads(_fetch(host, port, "/v1/stats", timeout_s))
    return float(stats["pool"]["grid_resolution_m"])


def update_bench_service_json(
    path: str,
    result: LoadtestResult,
    scenario: str,
    clients: int,
    grid_resolution_m: Optional[float] = None,
) -> dict:
    """Merge one loadtest's numbers into ``BENCH_service.json``.

    Read-merge-write like the localization bench: reruns update the
    ``service`` section in place and other sections survive.
    """
    payload: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload["benchmark"] = "service"
    payload["scenario"] = {
        "scenario": scenario,
        "clients": clients,
        "requests": result.requests,
        "grid_resolution_m": grid_resolution_m,
        "cpus": os.cpu_count() or 1,
    }
    payload["service"] = result.to_dict()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
