"""Exporters: NDJSON dumps and human-readable summary tables.

NDJSON schema (one JSON object per line, strict JSON -- no NaN/Inf):

* ``{"type": "meta", "format": "repro-obs", "version": 1, ...}`` --
  always the first line.
* ``{"type": "span", "name", "span_id", "parent_id", "depth",
  "start_s", "duration_s", "status", "thread", "trace_id",
  "attributes"}`` -- one per finished span, completion order.
* counter / gauge / histogram lines exactly as produced by
  :meth:`repro.obs.metrics.MetricsRegistry.snapshot` (histograms carry
  ``count/sum/min/max/mean/p50/p95`` plus the full ``le`` bucket list).

The summary tables are what ``repro evaluate --metrics`` and the
benchmark hook print: per-span-name timing percentiles (computed from
the raw span durations, not bucket estimates) and one line per
instrument.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.obs.context import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.prof import ProfileReport

NDJSON_FORMAT = "repro-obs"
NDJSON_VERSION = 1


def _finite_or_marker(v: float):
    """Strict-JSON stand-in for a float: NaN -> None (an absent value),
    +/-Inf -> "Infinity"/"-Infinity" strings (the *direction* of an
    overflow is diagnostic signal -- an SNR of -Inf and +Inf tell very
    different stories -- so it must survive the export)."""
    if math.isfinite(v):
        return v
    if math.isnan(v):
        return None
    return "Infinity" if v > 0 else "-Infinity"


def _json_safe(value):
    """Make a value strict-JSON serialisable (NaN/Inf become None/str).

    Handles numpy scalars and arrays nested anywhere inside span
    attributes: bools/ints/floats unwrap to their Python equivalents,
    complex values become ``{"real": ..., "imag": ...}`` pairs, and
    arrays become (nested) lists -- so diagnostics-rich spans never leak
    ``str(ndarray)`` junk or non-JSON floats into an NDJSON export.
    NaN maps to null; +/-Inf map to the strings "Infinity"/"-Infinity"
    (``json.dumps(..., allow_nan=False)`` downstream stays happy).
    """
    # np.bool_ is not a bool subclass; check it before the plain types.
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return _finite_or_marker(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _finite_or_marker(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return {"real": _json_safe(c.real), "imag": _json_safe(c.imag)}
    if isinstance(value, np.ndarray):
        # tolist() gives a bare scalar for 0-d arrays; recurse either way.
        return _json_safe(value.tolist())
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    return str(value)


def span_record(span: Span) -> dict:
    """The NDJSON dict for one finished span."""
    return {
        "type": "span",
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "depth": span.depth,
        "start_s": _json_safe(span.start_s),
        "duration_s": _json_safe(span.duration_s),
        "status": span.status,
        "thread": span.thread,
        "trace_id": span.trace_id,
        "attributes": _json_safe(span.attributes),
    }


def export_ndjson(
    path: Union[str, Path], observer: Observability, **meta
) -> int:
    """Write an observer's spans and metrics to an NDJSON file.

    Returns:
        The number of lines written (including the leading meta line).
    """
    spans = observer.tracer.finished()
    metric_lines = observer.metrics.snapshot()
    records: List[dict] = [
        {
            "type": "meta",
            "format": NDJSON_FORMAT,
            "version": NDJSON_VERSION,
            "num_spans": len(spans),
            "num_metrics": len(metric_lines),
            **_json_safe(meta),
        }
    ]
    records.extend(span_record(s) for s in spans)
    records.extend(_json_safe(m) for m in metric_lines)
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, allow_nan=False) + "\n")
    return len(records)


def load_ndjson(path: Union[str, Path]) -> List[dict]:
    """Parse an NDJSON export back into a list of dicts.

    Raises:
        ValueError: on a malformed file (bad JSON or missing meta line).
    """
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {exc}"
                ) from exc
    if not records or records[0].get("type") != "meta":
        raise ValueError(f"{path}: missing leading meta record")
    return records


def format_table(headers: Sequence[str], rows: List[Sequence[str]]) -> str:
    """Fixed-width text table (first column left-aligned, rest right).

    Shared by the metrics/span summaries and the ``repro diag`` renderer.
    """
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(
            str(c).ljust(w) if i == 0 else str(c).rjust(w)
            for i, (c, w) in enumerate(zip(cells, widths))
        )
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def span_summary(spans: Sequence[Span]) -> str:
    """Per-span-name timing table (count, total, mean, p50, p95 in ms)."""
    if not spans:
        return "(no spans recorded)"
    by_name: Dict[str, List[float]] = {}
    order: List[str] = []
    for span in spans:
        if span.name not in by_name:
            by_name[span.name] = []
            order.append(span.name)
        if math.isfinite(span.duration_s):
            by_name[span.name].append(span.duration_s)
    rows = []
    for name in order:
        durations = np.array(by_name[name]) * 1e3
        if durations.size == 0:
            continue
        rows.append(
            [
                name,
                str(durations.size),
                f"{durations.sum():.2f}",
                f"{durations.mean():.3f}",
                f"{np.percentile(durations, 50):.3f}",
                f"{np.percentile(durations, 95):.3f}",
            ]
        )
    return format_table(
        ["span", "count", "total ms", "mean ms", "p50 ms", "p95 ms"], rows
    )


def metrics_summary(registry: MetricsRegistry) -> str:
    """One line per instrument; histograms show count/mean/p50/p95."""
    instruments = registry.instruments()
    if not instruments:
        return "(no metrics recorded)"
    rows = []
    for inst in instruments:
        if inst.kind == "counter":
            rows.append([inst.name, "counter", f"{inst.value:g}", "", "", ""])
        elif inst.kind == "gauge":
            shown = "nan" if math.isnan(inst.value) else f"{inst.value:.4g}"
            rows.append([inst.name, "gauge", shown, "", "", ""])
        else:
            if inst.count:
                rows.append(
                    [
                        inst.name,
                        "histogram",
                        str(inst.count),
                        f"{inst.mean():.4g}",
                        f"{inst.percentile(50):.4g}",
                        f"{inst.percentile(95):.4g}",
                    ]
                )
            else:
                rows.append([inst.name, "histogram", "0", "-", "-", "-"])
    return format_table(
        ["metric", "kind", "value/count", "mean", "p50", "p95"], rows
    )


def summary(observer: Observability) -> str:
    """Combined span + metrics report for one observed run."""
    parts = [
        "== span timings ==",
        span_summary(observer.tracer.finished()),
        "",
        "== metrics ==",
        metrics_summary(observer.metrics),
    ]
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Trace reconstruction (repro obs trace <trace_id>)
# ---------------------------------------------------------------------------


def resolve_trace_id(records: Sequence[dict], prefix: str) -> str:
    """Resolve a (possibly abbreviated) trace id against an export.

    An exact match wins; otherwise a unique prefix match is accepted, so
    ``repro obs trace 3f2a`` works on the ids a dashboard shows
    truncated.

    Raises:
        ValueError: when no span matches or the prefix is ambiguous.
    """
    ids = {
        r["trace_id"]
        for r in records
        if r.get("type") == "span" and r.get("trace_id")
    }
    if prefix in ids:
        return prefix
    hits = sorted(i for i in ids if i.startswith(prefix))
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise ValueError(f"no span with trace id {prefix!r} in export")
    shown = ", ".join(h[:12] for h in hits[:5])
    raise ValueError(
        f"trace id prefix {prefix!r} is ambiguous ({shown}...)"
    )


def trace_spans(records: Sequence[dict], trace_id: str) -> List[dict]:
    """Span records belonging to one trace.

    Every span of a request -- handler, provider chain, localizer
    stages, including absorbed process-worker spans -- carries the
    request's ``trace_id``, so selecting by it is the whole
    reconstruction.
    """
    return [
        r
        for r in records
        if r.get("type") == "span" and r.get("trace_id") == trace_id
    ]


def _span_sort_key(record: dict) -> Tuple[float, int]:
    start = record.get("start_s")
    if not isinstance(start, (int, float)):
        start = float("inf")
    return (start, record.get("span_id", 0))


def render_trace(records: Sequence[dict], trace_id: str) -> str:
    """Text tree of one request's spans from an NDJSON export.

    Spans nest by ``parent_id``.  Cross-thread and cross-process
    children show the thread name that ran them.
    """
    selected = trace_spans(records, trace_id)
    if not selected:
        return f"(no spans for trace {trace_id})"
    by_id = {r["span_id"]: r for r in selected}
    children: Dict[int, List[dict]] = {}
    roots: List[dict] = []
    for r in selected:
        parent = r.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(r)
        else:
            roots.append(r)
    for siblings in children.values():
        siblings.sort(key=_span_sort_key)
    roots.sort(key=_span_sort_key)

    def describe(r: dict) -> str:
        duration = r.get("duration_s")
        if isinstance(duration, (int, float)):
            timing = f"{duration * 1e3:.2f} ms"
        else:
            timing = "-"
        parts = [r.get("name", "?"), timing, str(r.get("status", "?"))]
        thread = r.get("thread")
        if thread:
            parts.append(f"[{thread}]")
        attributes = r.get("attributes") or {}
        shown = []
        for key in sorted(attributes):
            value = attributes[key]
            if isinstance(value, (list, dict)):
                continue
            shown.append(f"{key}={value}")
        if shown:
            text = " ".join(shown)
            if len(text) > 72:
                text = text[:69] + "..."
            parts.append(text)
        return "  ".join(parts)

    threads = {r.get("thread") for r in selected if r.get("thread")}
    lines = [
        f"trace {trace_id}: {len(selected)} spans, "
        f"{len(threads)} thread(s)"
    ]

    def walk(r: dict, prefix: str, is_last: bool) -> None:
        connector = "`- " if is_last else "|- "
        lines.append(prefix + connector + describe(r))
        child_prefix = prefix + ("   " if is_last else "|  ")
        kids = children.get(r["span_id"], [])
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1)

    for i, root in enumerate(roots):
        walk(root, "", i == len(roots) - 1)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Profiler exports (flamegraph / speedscope)
# ---------------------------------------------------------------------------

#: JSON schema URL speedscope uses to recognise its file format.
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def folded_stacks(report: "ProfileReport") -> str:
    """Brendan-Gregg folded-stack text for one profile report.

    One line per unique span-stack path, ``root;child;leaf <count>``,
    sorted by descending count -- the input format of
    ``flamegraph.pl`` and most flamegraph viewers.
    """
    ranked = sorted(
        report.stacks.items(), key=lambda kv: (-kv[1], kv[0])
    )
    return "\n".join(
        f"{';'.join(stack)} {count}" for stack, count in ranked
    )


def export_folded(path: Union[str, Path], report: "ProfileReport") -> int:
    """Write folded-stack flamegraph text; returns the line count."""
    text = folded_stacks(report)
    Path(path).write_text(
        text + ("\n" if text else ""), encoding="utf-8"
    )
    return len(report.stacks)


def speedscope_document(
    report: "ProfileReport", name: str = "repro"
) -> dict:
    """A speedscope-compatible ``sampled`` profile document.

    Each unique stack becomes one sample whose weight is
    ``count * interval_s`` seconds; frame order is root-first, matching
    speedscope's convention.  The document is strict JSON (no NaN/Inf)
    and loads directly at https://www.speedscope.app.
    """
    frame_index: Dict[str, int] = {}
    frames: List[dict] = []
    samples: List[List[int]] = []
    weights: List[float] = []
    ranked = sorted(
        report.stacks.items(), key=lambda kv: (-kv[1], kv[0])
    )
    for stack, count in ranked:
        indices = []
        for frame_name in stack:
            if frame_name not in frame_index:
                frame_index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            indices.append(frame_index[frame_name])
        samples.append(indices)
        weights.append(count * report.interval_s)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": _json_safe(sum(weights)),
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def export_speedscope(
    path: Union[str, Path], report: "ProfileReport", name: str = "repro"
) -> int:
    """Write a speedscope JSON profile; returns the sample count."""
    document = speedscope_document(report, name=name)
    Path(path).write_text(
        json.dumps(document, allow_nan=False) + "\n", encoding="utf-8"
    )
    return len(document["profiles"][0]["samples"])
