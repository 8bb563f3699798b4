"""The locate endpoint: HTTP front end over the warm pool.

Layering follows the ichnaea shape -- a transport-free service core a
test can drive without sockets, wrapped by a thin stdlib HTTP adapter:

* :class:`LocalizationService` owns the request lifecycle
  (schema -> auth -> rate limit -> scenario -> decode -> provider chain)
  and returns ``(status, body, headers)`` tuples.  Each request runs
  start to finish on the server thread that accepted it.
* :func:`make_server` binds it behind a ``ThreadingHTTPServer`` with
  three routes: ``POST /v1/locate``, ``GET /v1/health``,
  ``GET /v1/stats``.

Error taxonomy (every failure is a typed JSON envelope, never a bare
traceback): 400 schema violation, 401 unknown API key when an allowlist
is configured, 404 unknown scenario, 429 over the token bucket (with
``Retry-After``), 503 when every provider in the chain failed.  A
degraded request that *any* provider can answer is a 200 naming the
provider -- degradation is data, not an error.

Instrumentation: every request carries a W3C-``traceparent``-style
``trace_id`` (inbound header honoured, always echoed on the response
and in the body), the request lifecycle runs inside a
``service.locate`` span when an observer is installed, and an
*always-on* service-local metrics registry backs ``GET /metrics``
(OpenMetrics text with exemplars -- latency buckets link to sample
trace ids) regardless of the global observer.  The NDJSON access log is
size-rotated (``access.ndjson`` -> ``access.ndjson.1``) and each line
carries the ``trace_id``; API keys are logged as truncated digests,
never raw.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, FrozenSet, Optional, Tuple, Type, Union

from repro.errors import LocalizationError, ReproError
from repro.obs import LATENCY_BUCKETS_S, Observability, get_observer
from repro.obs.health import AnchorHealthMonitor
from repro.obs.promexport import (
    OPENMETRICS_CONTENT_TYPE,
    render_openmetrics,
)
from repro.obs.trace import (
    format_traceparent,
    new_trace_id,
    parse_traceparent,
)
from repro.service.pool import (
    LocalizerPool,
    UnknownScenarioError,
)
from repro.analysis.runtime_locks import guarded_by, make_lock
from repro.service.ratelimit import RateLimiter
from repro.service.schema import (
    MAX_BODY_BYTES,
    SchemaError,
    decode_observations,
    error_body,
    locate_response,
    parse_locate_request,
)
from repro.service.telemetry import AccuracyTelemetry

#: Write buffer of one connection (bytes): every response the service
#: sends -- a locate fix, an error envelope, the stats or metrics
#: document (a few kB) -- fits, so each leaves in a single socket write.
RESPONSE_BUFFER_BYTES = 64 * 1024

#: (status, body, extra headers) -- what every handler returns.  The
#: body is a JSON dict on every route except ``GET /metrics``, whose
#: body is the OpenMetrics text document itself.
Response = Tuple[int, Union[Dict[str, Any], str], Dict[str, str]]


def _key_digest(api_key: Optional[str]) -> str:
    """Loggable identity of an API key: short digest, never the key."""
    if not api_key:
        return "-"
    return hashlib.sha256(api_key.encode("utf-8")).hexdigest()[:8]


@guarded_by("_lock", "_fh", "_size")
class RotatingNdjsonLog:
    """Append-only NDJSON log with size-based single-generation rotation.

    When appending a line would push the file past ``max_bytes`` (and
    the file is non-empty), the current file is renamed to
    ``<path>.1`` -- replacing any previous ``.1`` -- and a fresh file is
    opened, so the log's disk footprint is bounded by roughly
    ``2 * max_bytes``.

    Thread-safety: writes and rotation run under one lock.
    """

    def __init__(self, path: str, max_bytes: int = 16 * 1024 * 1024):
        self.path = path
        self.max_bytes = int(max_bytes)
        self._lock = make_lock("RotatingNdjsonLog._lock")
        self._fh = open(path, "a", encoding="utf-8")
        self._size = os.fstat(self._fh.fileno()).st_size

    def write_line(self, line: str) -> None:
        """Append one line (rotating first if it would overflow)."""
        encoded_len = len(line.encode("utf-8")) + 1
        with self._lock:
            if (
                self._size > 0
                and self._size + encoded_len > self.max_bytes
            ):
                self._fh.close()
                os.replace(self.path, self.path + ".1")
                self._fh = open(self.path, "a", encoding="utf-8")
                self._size = 0
            self._fh.write(line + "\n")
            self._fh.flush()
            self._size += encoded_len

    def close(self) -> None:
        """Flush and close the current file."""
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


@dataclass
class ServiceConfig:
    """Tunables of one service instance.

    Attributes:
        rate_per_s / burst: token-bucket parameters per API key.
        api_keys: optional allowlist; None accepts any key.
        max_batch / max_wait_s: ignored.  They configured the retired
            micro-batcher; they stay accepted (and validated) until the
            benchmark's server stops passing them.
        access_log_path: NDJSON access log (None disables logging).
        access_log_max_bytes: size threshold at which the access log
            rotates to ``<path>.1`` (one generation kept).
    """

    rate_per_s: float = 50.0
    burst: int = 20
    api_keys: Optional[FrozenSet[str]] = None
    max_batch: int = 8
    max_wait_s: float = 0.005
    access_log_path: Optional[str] = None
    access_log_max_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ReproError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )


@guarded_by(
    "_lock",
    "_request_counter",
    "responses_by_status",
    "responses_by_provider",
    "_closed",
)
class LocalizationService:
    """Transport-free request handling over a warm localizer pool.

    Thread-safety: all entry points may be called concurrently from
    server threads; shared counters and the access log are
    lock-protected, and the pool/limiter guard themselves.
    """

    def __init__(
        self,
        pool: Optional[LocalizerPool] = None,
        config: Optional[ServiceConfig] = None,
    ):
        self.pool = pool or LocalizerPool()
        self.config = config or ServiceConfig()
        self.limiter = RateLimiter(
            rate_per_s=self.config.rate_per_s,
            burst=self.config.burst,
            api_keys=self.config.api_keys,
        )
        self.started_monotonic = time.monotonic()
        self._lock = make_lock("LocalizationService._lock")
        self._request_counter = 0
        self.responses_by_status: Dict[int, int] = {}
        self.responses_by_provider: Dict[str, int] = {}
        # Service-local observability, always on: GET /metrics and the
        # accuracy telemetry must work without the process-wide
        # --trace/--metrics switchboard.  Spans still go through the
        # global observer (tracing stays opt-in); only metrics are
        # unconditionally recorded here.
        self._service_obs = Observability(enabled=True)
        self.metrics = self._service_obs.metrics
        self.telemetry = AccuracyTelemetry(
            metrics=self.metrics,
            monitor=AnchorHealthMonitor(observer=self._service_obs),
        )
        self._access_log = (
            RotatingNdjsonLog(
                self.config.access_log_path,
                max_bytes=self.config.access_log_max_bytes,
            )
            if self.config.access_log_path
            else None
        )
        self._closed = False

    # ---------------------------------------------------------- helpers

    def _next_request_id(self) -> str:
        with self._lock:
            self._request_counter += 1
            return f"req-{self._request_counter:06d}"

    def _record(
        self,
        status: int,
        request_id: str,
        api_key: Optional[str],
        scenario: Optional[str],
        provider: Optional[str],
        latency_s: float,
        error_code: Optional[str],
        trace_id: str = "",
    ) -> None:
        """Account one finished request: counters, metrics, access log.

        Metrics always land in the service-local registry (exemplars on
        the latency histogram carry the request's ``trace_id``); when a
        global observer is installed they are mirrored there too, so a
        ``--metrics`` run and a /metrics scrape agree.
        """
        with self._lock:
            self.responses_by_status[status] = (
                self.responses_by_status.get(status, 0) + 1
            )
            if provider is not None:
                self.responses_by_provider[provider] = (
                    self.responses_by_provider.get(provider, 0) + 1
                )
        registries = [self.metrics]
        observer = get_observer()
        if observer.enabled:
            registries.append(observer.metrics)
        for registry in registries:
            registry.counter("service.requests_total").inc()
            registry.counter(f"service.status.{status}").inc()
            if provider is not None:
                registry.counter(f"service.provider.{provider}").inc()
            registry.histogram(
                "service.request_latency_s", LATENCY_BUCKETS_S
            ).observe(latency_s, trace_id=trace_id or None)
        if self._access_log is not None:
            line = json.dumps(
                {
                    "ts": time.time(),
                    "request_id": request_id,
                    "trace_id": trace_id,
                    "key": _key_digest(api_key),
                    "scenario": scenario,
                    "status": status,
                    "provider": provider,
                    "latency_s": round(latency_s, 6),
                    "error": error_code,
                },
                sort_keys=True,
            )
            self._access_log.write_line(line)

    # ----------------------------------------------------------- routes

    def handle_locate(
        self, raw_body: bytes, traceparent: Optional[str] = None
    ) -> Response:
        """Serve one ``POST /v1/locate`` body end to end.

        ``traceparent`` is the inbound W3C trace-context header (or
        None): a well-formed header continues the caller's trace, else
        the request starts a fresh one.  Every response -- success or
        typed error -- carries the ``trace_id`` in the body and a
        ``traceparent`` response header, and the whole lifecycle runs
        inside a ``service.locate`` span on that trace.
        """
        started = time.perf_counter()
        request_id = self._next_request_id()
        trace_id = parse_traceparent(traceparent) or new_trace_id()
        api_key: Optional[str] = None
        scenario: Optional[str] = None
        observer = get_observer()
        with observer.span(
            "service.locate", trace_id=trace_id, request_id=request_id
        ) as span:
            span_id = span.span_id if span is not None else 0
            try:
                request = parse_locate_request(raw_body)
            except SchemaError as exc:
                return self._finish(
                    400,
                    error_body(
                        "invalid_request",
                        exc.message,
                        field=exc.field,
                        request_id=request_id,
                    ),
                    {},
                    request_id,
                    api_key,
                    scenario,
                    None,
                    started,
                    "invalid_request",
                    trace_id,
                    span_id,
                )
            api_key = request.api_key
            scenario = request.scenario
            if span is not None:
                span.set(scenario=scenario)
            if not self.limiter.authorized(api_key):
                return self._finish(
                    401,
                    error_body(
                        "unauthorized",
                        "unknown API key",
                        request_id=request_id,
                    ),
                    {},
                    request_id,
                    api_key,
                    scenario,
                    None,
                    started,
                    "unauthorized",
                    trace_id,
                    span_id,
                )
            decision = self.limiter.check(api_key)
            if not decision.allowed:
                retry_after = max(
                    1, int(math.ceil(decision.retry_after_s))
                )
                return self._finish(
                    429,
                    error_body(
                        "rate_limited",
                        "token bucket empty for this API key",
                        retry_after_s=round(decision.retry_after_s, 4),
                        request_id=request_id,
                    ),
                    {"Retry-After": str(retry_after)},
                    request_id,
                    api_key,
                    scenario,
                    None,
                    started,
                    "rate_limited",
                    trace_id,
                    span_id,
                )
            try:
                warm = self.pool.get(request.scenario)
            except UnknownScenarioError as exc:
                return self._finish(
                    404,
                    error_body(
                        "unknown_scenario",
                        str(exc),
                        scenarios=exc.known,
                        request_id=request_id,
                    ),
                    {},
                    request_id,
                    api_key,
                    scenario,
                    None,
                    started,
                    "unknown_scenario",
                    trace_id,
                    span_id,
                )
            try:
                observations = decode_observations(
                    request.observations,
                    warm.testbed.anchors,
                    warm.testbed.master_index,
                )
            except SchemaError as exc:
                return self._finish(
                    400,
                    error_body(
                        "invalid_request",
                        exc.message,
                        field=exc.field,
                        request_id=request_id,
                    ),
                    {},
                    request_id,
                    api_key,
                    scenario,
                    None,
                    started,
                    "invalid_request",
                    trace_id,
                    span_id,
                )
            try:
                located = warm.chain.locate(observations)
            except LocalizationError as exc:
                self.telemetry.record_fix(observations, None)
                return self._finish(
                    503,
                    error_body(
                        "no_fix",
                        str(exc),
                        request_id=request_id,
                    ),
                    {},
                    request_id,
                    api_key,
                    scenario,
                    None,
                    started,
                    "no_fix",
                    trace_id,
                    span_id,
                )
            events = self.telemetry.record_fix(
                observations, located.position
            )
            if span is not None and events:
                span.set(anomalies=len(events))
            latency_s = time.perf_counter() - started
            body = locate_response(
                position_x=float(located.position.x),
                position_y=float(located.position.y),
                provider=located.provider,
                scenario=request.scenario,
                request_id=request_id,
                latency_s=round(latency_s, 6),
                quality=located.quality.to_dict(),
                fallback_reasons=located.fallback_reasons,
                trace_id=trace_id,
            )
            self._record(
                200,
                request_id,
                api_key,
                scenario,
                located.provider,
                latency_s,
                None,
                trace_id,
            )
            return (
                200,
                body,
                {"traceparent": format_traceparent(trace_id, span_id)},
            )

    def _finish(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Dict[str, str],
        request_id: str,
        api_key: Optional[str],
        scenario: Optional[str],
        provider: Optional[str],
        started: float,
        error_code: Optional[str],
        trace_id: str = "",
        span_id: int = 0,
    ) -> Response:
        """Record a non-200 outcome and shape the response tuple.

        The trace identity rides along even on failures: the error body
        gains ``trace_id`` and the response a ``traceparent`` header,
        so a 4xx/5xx is as traceable as a fix.
        """
        self._record(
            status,
            request_id,
            api_key,
            scenario,
            provider,
            time.perf_counter() - started,
            error_code,
            trace_id,
        )
        if trace_id:
            body = {**body, "trace_id": trace_id}
            headers = {
                **headers,
                "traceparent": format_traceparent(trace_id, span_id),
            }
        return status, body, headers

    def _trace_headers(
        self, traceparent: Optional[str]
    ) -> Tuple[str, Dict[str, str]]:
        """Resolve the request's trace id and its response headers."""
        trace_id = parse_traceparent(traceparent) or new_trace_id()
        return trace_id, {"traceparent": format_traceparent(trace_id)}

    def handle_health(
        self, traceparent: Optional[str] = None
    ) -> Response:
        """``GET /v1/health``: liveness plus warm-pool readiness."""
        trace_id, headers = self._trace_headers(traceparent)
        with get_observer().span("service.health", trace_id=trace_id):
            pool_info = self.pool.info()
            return (
                200,
                {
                    "status": "ok",
                    "uptime_s": round(
                        time.monotonic() - self.started_monotonic, 3
                    ),
                    "scenarios": pool_info["scenarios"],
                    "warm": sorted(pool_info["warm"]),
                    "trace_id": trace_id,
                },
                headers,
            )

    def _cache_stats(self) -> Dict[str, Any]:
        """Steering-cache hit/miss counters with a derived hit ratio."""
        engine = self.pool.engine.info()
        lookups = engine["hits"] + engine["misses"]
        return {
            "hits": engine["hits"],
            "misses": engine["misses"],
            "evictions": engine["evictions"],
            "entries": engine["entries"],
            "hit_ratio": (
                round(engine["hits"] / lookups, 4) if lookups else None
            ),
        }

    def handle_stats(
        self, traceparent: Optional[str] = None
    ) -> Response:
        """``GET /v1/stats``: pool, limiter and status counters.

        The ``cache`` section surfaces steering-cache hits/misses and
        the derived hit ratio directly (the loadtest smoke asserts on
        it); ``pool.warmth`` maps every served scenario to whether it
        is built; ``telemetry`` summarises live accuracy anomalies.
        """
        trace_id, headers = self._trace_headers(traceparent)
        with get_observer().span("service.stats", trace_id=trace_id):
            with self._lock:
                by_status = {
                    str(status): count
                    for status, count in sorted(
                        self.responses_by_status.items()
                    )
                }
                by_provider = dict(
                    sorted(self.responses_by_provider.items())
                )
            return (
                200,
                {
                    "uptime_s": round(
                        time.monotonic() - self.started_monotonic, 3
                    ),
                    "responses_by_status": by_status,
                    "responses_by_provider": by_provider,
                    "pool": self.pool.info(),
                    "cache": self._cache_stats(),
                    "ratelimit": self.limiter.info(),
                    "telemetry": self.telemetry.info(),
                    "trace_id": trace_id,
                },
                headers,
            )

    def handle_metrics(
        self, traceparent: Optional[str] = None
    ) -> Response:
        """``GET /metrics``: OpenMetrics exposition with exemplars.

        Rendered from the service-local always-on registry, so the
        endpoint works (and latency buckets carry exemplar trace ids)
        whether or not the global observer is installed.
        """
        trace_id, headers = self._trace_headers(traceparent)
        with get_observer().span("service.metrics", trace_id=trace_id):
            headers["Content-Type"] = OPENMETRICS_CONTENT_TYPE
            return 200, render_openmetrics(self.metrics), headers

    def close(self) -> None:
        """Close the access log."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._access_log is not None:
            self._access_log.close()


# ------------------------------------------------------------- transport


def _handler_for(service: LocalizationService) -> Type[BaseHTTPRequestHandler]:
    """Build the request-handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # One send per response, never held back: the status line,
        # headers and body collect in the write buffer until
        # handle_one_request flushes after each method, and Nagle is
        # off.  Written as two sends with Nagle on, the body waits for
        # the client's ACK of the header segment -- which a
        # delayed-ACKing keep-alive client holds for ~40 ms.
        disable_nagle_algorithm = True
        wbufsize = RESPONSE_BUFFER_BYTES

        # The NDJSON access log supersedes BaseHTTPRequestHandler's
        # stderr chatter.

        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass

        def _send(self, response: Response) -> None:
            status, body, headers = response
            headers = dict(headers)
            if isinstance(body, str):
                # Text route (GET /metrics): the handler supplies the
                # exposition Content-Type.
                payload = body.encode("utf-8")
                content_type = headers.pop(
                    "Content-Type", "text/plain; charset=utf-8"
                )
            else:
                payload = json.dumps(body).encode("utf-8")
                content_type = headers.pop(
                    "Content-Type", "application/json"
                )
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def _traceparent(self) -> Optional[str]:
            return self.headers.get("traceparent")

        def do_POST(self) -> None:
            if self.path != "/v1/locate":
                self._send(
                    (404, error_body("not_found", self.path), {})
                )
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if length < 0:
                # The body's extent is unknown: answer, then close
                # rather than parse its bytes as the next request.
                self._send(
                    (
                        400,
                        error_body(
                            "invalid_request",
                            "Content-Length must be a non-negative "
                            "integer",
                            field="Content-Length",
                        ),
                        {"Connection": "close"},
                    )
                )
                return
            if length == 0:
                self._send(
                    (
                        400,
                        error_body(
                            "invalid_request",
                            "a JSON body with Content-Length is "
                            "required",
                        ),
                        {},
                    )
                )
                return
            if length > MAX_BODY_BYTES:
                self._send(
                    (
                        413,
                        error_body(
                            "payload_too_large",
                            f"body exceeds {MAX_BODY_BYTES} bytes",
                        ),
                        {"Connection": "close"},
                    )
                )
                return
            raw = self.rfile.read(length)
            self._send(
                service.handle_locate(raw, self._traceparent())
            )

        def do_GET(self) -> None:
            if self.path == "/v1/health":
                self._send(service.handle_health(self._traceparent()))
            elif self.path == "/v1/stats":
                self._send(service.handle_stats(self._traceparent()))
            elif self.path == "/metrics":
                self._send(
                    service.handle_metrics(self._traceparent())
                )
            else:
                self._send(
                    (404, error_body("not_found", self.path), {})
                )

    return Handler


def make_server(
    service: LocalizationService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the service behind a threading HTTP server.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server.server_address``.  The caller owns the lifecycle::

        server = make_server(service, port=8080)
        server.serve_forever()          # blocks; Ctrl-C to stop
        ...
        server.shutdown(); service.close()
    """
    server = ThreadingHTTPServer((host, port), _handler_for(service))
    server.daemon_threads = True
    return server
