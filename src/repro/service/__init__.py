"""repro.service: the warm-pool localization service.

An ichnaea-shaped HTTP locate endpoint over the BLoc pipeline::

    from repro.service import LocalizationService, make_server

    service = LocalizationService()
    server = make_server(service, port=8080)
    server.serve_forever()

Requests name a server-side scenario (anchor geometry) and ship only
measured channels; the pool keeps one warm steering-cache entry per
scenario, each request runs inline on its server thread, and a provider
chain (BLoc -> AoA -> RSSI) keeps degraded sweeps answerable.
``repro serve`` and ``repro loadtest`` wrap this package on the CLI.
"""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.service.app": (
            "LocalizationService",
            "RotatingNdjsonLog",
            "ServiceConfig",
            "make_server",
        ),
        "repro.service.telemetry": ("AccuracyTelemetry",),
        "repro.service.loadtest": (
            "LoadtestResult",
            "build_request_bodies",
            "fetch_grid_resolution_m",
            "fetch_metrics",
            "run_loadtest",
            "update_bench_service_json",
        ),
        "repro.constants": ("DEFAULT_SERVICE_RESOLUTION_M",),
        "repro.service.pool": (
            "LocalizerPool",
            "ScenarioSpec",
            "UnknownScenarioError",
            "WarmScenario",
            "default_scenarios",
        ),
        "repro.service.providers": (
            "CsiQuality",
            "LocateDecision",
            "PROVIDER_CHAIN_ORDER",
            "ProviderChain",
            "QualityGates",
            "assess_quality",
        ),
        "repro.service.ratelimit": (
            "RateLimitDecision",
            "RateLimiter",
            "TokenBucket",
        ),
        "repro.service.schema": (
            "LocateRequest",
            "MAX_BODY_BYTES",
            "SchemaError",
            "decode_observations",
            "encode_observations",
            "error_body",
            "locate_response",
            "parse_locate_request",
        ),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
