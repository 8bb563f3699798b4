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

from repro.service.app import (
    LocalizationService,
    RotatingNdjsonLog,
    ServiceConfig,
    make_server,
)
from repro.service.telemetry import AccuracyTelemetry
from repro.service.loadtest import (
    LoadtestResult,
    build_request_bodies,
    fetch_metrics,
    run_loadtest,
    update_bench_service_json,
)
from repro.service.pool import (
    DEFAULT_SERVICE_RESOLUTION_M,
    LocalizerPool,
    ScenarioSpec,
    UnknownScenarioError,
    WarmScenario,
    default_scenarios,
)
from repro.service.providers import (
    CsiQuality,
    LocateDecision,
    PROVIDER_CHAIN_ORDER,
    ProviderChain,
    QualityGates,
    assess_quality,
)
from repro.service.ratelimit import (
    RateLimitDecision,
    RateLimiter,
    TokenBucket,
)
from repro.service.schema import (
    LocateRequest,
    MAX_BODY_BYTES,
    SchemaError,
    decode_observations,
    encode_observations,
    error_body,
    locate_response,
    parse_locate_request,
)

__all__ = [
    "AccuracyTelemetry",
    "CsiQuality",
    "DEFAULT_SERVICE_RESOLUTION_M",
    "LoadtestResult",
    "LocalizationService",
    "LocalizerPool",
    "LocateDecision",
    "LocateRequest",
    "MAX_BODY_BYTES",
    "PROVIDER_CHAIN_ORDER",
    "ProviderChain",
    "QualityGates",
    "RateLimitDecision",
    "RateLimiter",
    "RotatingNdjsonLog",
    "ScenarioSpec",
    "SchemaError",
    "ServiceConfig",
    "TokenBucket",
    "UnknownScenarioError",
    "WarmScenario",
    "assess_quality",
    "build_request_bodies",
    "decode_observations",
    "default_scenarios",
    "encode_observations",
    "error_body",
    "fetch_metrics",
    "locate_response",
    "make_server",
    "parse_locate_request",
    "run_loadtest",
    "update_bench_service_json",
]
