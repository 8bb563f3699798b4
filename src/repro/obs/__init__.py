"""repro.obs: pipeline observability (spans, metrics, exporters).

The BLoc pipeline is instrumented with nested timing spans and a metrics
registry so a regression in any figure can be attributed to a stage:

    from repro.obs import observed, export_ndjson, summary

    with observed() as obs:
        run = evaluate(BlocLocalizer(), dataset)
    export_ndjson("run.ndjson", obs)
    print(summary(obs))

By default observability is *disabled*: the instrumented code paths go
through a no-op observer whose cost is a couple of attribute reads per
``locate`` call, so timing-sensitive tests and benchmarks are unaffected
unless a caller opts in.
"""

from repro.obs.context import (
    Observability,
    STANDARD_METRICS,
    get_observer,
    install,
    observed,
    traced,
)
from repro.obs.diag import (
    FixBundle,
    FixDiagnostics,
    FixDiagnosticsBuilder,
    bundle_filename,
    bundle_from_fix,
    load_fix_bundle,
    render_bundle,
    save_fix_bundle,
)
from repro.obs.export import (
    export_folded,
    export_ndjson,
    export_speedscope,
    folded_stacks,
    format_table,
    load_ndjson,
    metrics_summary,
    render_trace,
    resolve_trace_id,
    span_summary,
    speedscope_document,
    summary,
    trace_spans,
)
from repro.obs.health import (
    AnchorHealthMonitor,
    AnomalyEvent,
    HealthThresholds,
)
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    build_run_record,
    default_ledger_path,
    diff_records,
    fingerprint_of,
    render_diff,
    render_report,
    render_runs,
    span_quantiles,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from repro.obs.prof import ProfileReport, SamplingProfiler
from repro.obs.promexport import (
    OPENMETRICS_CONTENT_TYPE,
    exemplar_trace_ids,
    parse_exposition,
    render_openmetrics,
)
from repro.obs.slo import (
    SloResult,
    SloRule,
    SloSpec,
    evaluate_slos,
    load_slo_spec,
    render_slo_results,
    slo_exit_code,
)
from repro.obs.trace import (
    Span,
    SpanHandle,
    TraceContext,
    Tracer,
    format_traceparent,
    new_trace_id,
    parse_traceparent,
)

__all__ = [
    "AnchorHealthMonitor",
    "AnomalyEvent",
    "COUNT_BUCKETS",
    "Counter",
    "Exemplar",
    "FixBundle",
    "FixDiagnostics",
    "FixDiagnosticsBuilder",
    "Gauge",
    "HealthThresholds",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "OPENMETRICS_CONTENT_TYPE",
    "Observability",
    "ProfileReport",
    "RunLedger",
    "RunRecord",
    "STANDARD_METRICS",
    "SamplingProfiler",
    "SloResult",
    "SloRule",
    "SloSpec",
    "Span",
    "SpanHandle",
    "TraceContext",
    "Tracer",
    "build_run_record",
    "bundle_filename",
    "bundle_from_fix",
    "default_ledger_path",
    "diff_records",
    "evaluate_slos",
    "exemplar_trace_ids",
    "export_folded",
    "export_ndjson",
    "export_speedscope",
    "fingerprint_of",
    "folded_stacks",
    "format_table",
    "format_traceparent",
    "get_observer",
    "install",
    "load_fix_bundle",
    "load_ndjson",
    "load_slo_spec",
    "metrics_summary",
    "new_trace_id",
    "observed",
    "parse_exposition",
    "parse_traceparent",
    "render_bundle",
    "render_diff",
    "render_openmetrics",
    "render_report",
    "render_runs",
    "render_slo_results",
    "render_trace",
    "resolve_trace_id",
    "save_fix_bundle",
    "slo_exit_code",
    "span_quantiles",
    "span_summary",
    "speedscope_document",
    "summary",
    "trace_spans",
    "traced",
]
