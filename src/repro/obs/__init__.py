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

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.obs.context": (
            "Observability",
            "STANDARD_METRICS",
            "get_observer",
            "install",
            "observed",
        ),
        "repro.obs.diag": (
            "FixBundle",
            "FixDiagnostics",
            "FixDiagnosticsBuilder",
            "bundle_filename",
            "bundle_from_fix",
            "load_fix_bundle",
            "render_bundle",
            "save_fix_bundle",
        ),
        "repro.obs.export": (
            "export_folded",
            "export_ndjson",
            "folded_stacks",
            "format_table",
            "load_ndjson",
            "metrics_summary",
            "render_trace",
            "resolve_trace_id",
            "span_summary",
            "summary",
            "trace_spans",
        ),
        "repro.obs.health": (
            "AnchorHealthMonitor",
            "AnomalyEvent",
            "HealthThresholds",
        ),
        "repro.obs.ledger": (
            "RunLedger",
            "RunRecord",
            "build_run_record",
            "default_ledger_path",
            "diff_records",
            "fingerprint_of",
            "render_diff",
            "render_runs",
            "span_quantiles",
        ),
        "repro.obs.metrics": (
            "COUNT_BUCKETS",
            "Counter",
            "Exemplar",
            "Gauge",
            "Histogram",
            "LATENCY_BUCKETS_S",
            "MetricsRegistry",
        ),
        "repro.obs.prof": ("ProfileReport", "SamplingProfiler"),
        "repro.obs.promexport": (
            "OPENMETRICS_CONTENT_TYPE",
            "exemplar_trace_ids",
            "parse_exposition",
            "render_openmetrics",
        ),
        "repro.obs.slo": (
            "SloResult",
            "SloRule",
            "SloSpec",
            "evaluate_slos",
            "load_slo_spec",
            "render_slo_results",
            "slo_exit_code",
        ),
        "repro.obs.trace": (
            "Span",
            "Tracer",
            "format_traceparent",
            "new_trace_id",
            "parse_traceparent",
        ),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
