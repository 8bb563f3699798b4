"""Persistent run ledger: one strict-JSON record per pipeline run.

Every ``python -m repro evaluate``, benchmark session and experiment
sweep appends a :class:`RunRecord` line to ``runs.ndjson`` (path
overridable via ``REPRO_RUNS_LEDGER``), so perf and accuracy claims are
attributable to a specific commit, host and configuration, and any two
runs can be diffed metric-by-metric (``repro obs diff``) months apart.

A record carries:

* identity -- ``run_id`` (random, collision-free per line), UTC
  timestamp, the command that produced it, and the git commit;
* comparability keys -- a configuration/scenario ``fingerprint``
  (sha256 of the canonical JSON) and host info including the *real*
  ``os.cpu_count()``, so a 1-core CI "parallel speedup" is never again
  mistaken for a multi-core measurement;
* the measurements -- the metrics-registry snapshot, per-span-name
  latency quantiles (p50/p95/p99), headline ``results`` numbers, and
  paths of artifacts (traces, profiles, bundles) the run wrote.

Strict JSON throughout: NaN/Inf never land in the file
(``allow_nan=False``), via the same :func:`repro.obs.export._json_safe`
normalisation the NDJSON trace export uses.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import threading
import uuid
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.runtime_locks import make_lock
from repro.errors import ConfigurationError
from repro.obs.context import Observability
from repro.obs.export import _json_safe
from repro.obs.trace import Span

#: Environment variable overriding the default ledger location.
LEDGER_ENV = "REPRO_RUNS_LEDGER"

#: Default ledger filename (appended in the working directory).
DEFAULT_LEDGER = "runs.ndjson"

#: Schema version stamped into every record.
LEDGER_VERSION = 1


def default_ledger_path() -> Path:
    """The ledger location: ``$REPRO_RUNS_LEDGER`` or ``./runs.ndjson``."""
    return Path(os.environ.get(LEDGER_ENV) or DEFAULT_LEDGER)


def fingerprint_of(obj: Any) -> str:
    """Short sha256 fingerprint of a config/scenario-like object.

    Canonicalised through the strict-JSON normaliser with sorted keys,
    so two structurally equal configurations fingerprint identically
    regardless of dict ordering or numpy scalar types.
    """
    canonical = json.dumps(
        _json_safe(obj), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def current_git_sha() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git checkout.

    Falls back to ``GITHUB_SHA`` (set by Actions even in shallow or
    detached checkouts) before giving up.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GITHUB_SHA", "unknown")


def host_info() -> dict:
    """Host facts every record carries (real cpu_count included)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "node": platform.node(),
    }


def span_quantiles(spans: Sequence[Span]) -> Dict[str, dict]:
    """Per-span-name latency quantiles from raw span durations.

    Returns ``{name: {count, total_s, p50_s, p95_s, p99_s}}`` computed
    from the exact durations (not bucket estimates), first-seen order
    preserved in the dict.
    """
    by_name: Dict[str, List[float]] = {}
    for span in spans:
        if math.isfinite(span.duration_s):
            by_name.setdefault(span.name, []).append(span.duration_s)
    out: Dict[str, dict] = {}
    for name, durations in by_name.items():
        values = np.asarray(durations, dtype=float)
        out[name] = {
            "count": int(values.size),
            "total_s": float(values.sum()),
            "p50_s": float(np.percentile(values, 50)),
            "p95_s": float(np.percentile(values, 95)),
            "p99_s": float(np.percentile(values, 99)),
        }
    return out


@dataclass
class RunRecord:
    """One ledger line (see the module docstring for the field story).

    Attributes mirror the JSON schema one-to-one; :meth:`to_dict`
    produces the strict-JSON-safe dict that lands in the file.
    """

    run_id: str
    timestamp: str
    command: str
    git_sha: str
    fingerprint: str
    host: dict
    label: str = ""
    workers: Optional[int] = None
    metrics: List[dict] = field(default_factory=list)
    spans: Dict[str, dict] = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)
    profile: Optional[dict] = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The strict-JSON dict written to the ledger."""
        payload = {"type": "run", "version": LEDGER_VERSION}
        payload.update(asdict(self))
        return _json_safe(payload)


def build_run_record(
    command: str,
    observer: Optional[Observability] = None,
    *,
    label: str = "",
    config: Any = None,
    workers: Optional[int] = None,
    results: Optional[dict] = None,
    artifacts: Sequence[Union[str, Path]] = (),
    profile: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` for the run that just finished.

    Args:
        command: what ran (``evaluate``, ``bench:localize``, ...).
        observer: the run's observer; its metrics snapshot and span
            quantiles are embedded when enabled (omitted when None or
            disabled).
        config: any JSON-able configuration/scenario object; only its
            fingerprint is stored.
        results: headline numbers (median error, fixes/s, ...).
        artifacts: paths of files the run wrote (traces, profiles,
            bundles) for later retrieval.
        profile: a :meth:`~repro.obs.prof.ProfileReport.snapshot` dict.
        extra: free-form additions (kept small; the ledger is a log,
            not a blob store).
    """
    metrics: List[dict] = []
    spans: Dict[str, dict] = {}
    if observer is not None and observer.enabled:
        metrics = observer.metrics.snapshot()
        spans = span_quantiles(observer.tracer.finished())
    return RunRecord(
        run_id=uuid.uuid4().hex[:12],
        timestamp=datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        command=command,
        git_sha=current_git_sha(),
        fingerprint=fingerprint_of(config) if config is not None else "",
        host=host_info(),
        label=label,
        workers=workers,
        metrics=metrics,
        spans=spans,
        results=dict(results or {}),
        artifacts=[str(p) for p in artifacts],
        profile=profile,
        extra=dict(extra or {}),
    )


class RunLedger:
    """Append-only NDJSON ledger of :class:`RunRecord` lines.

    The file is plain NDJSON: one strict-JSON object per line, append
    semantics, no header -- trivially greppable, diffable and
    uploadable as a CI artifact.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else default_ledger_path()
        self._lock = make_lock("RunLedger._lock")

    def append(self, record: Union[RunRecord, dict]) -> dict:
        """Append one record; returns the dict actually written.

        Thread-safe: serialisation happens outside the lock, the
        open-append-close happens under it, so two in-process writers
        cannot interleave half-lines.  (Cross-process appends rely on
        O_APPEND line atomicity, which holds for these short lines on
        every platform we target.)
        """
        payload = (
            record.to_dict()
            if isinstance(record, RunRecord)
            else _json_safe(record)
        )
        line = json.dumps(payload, allow_nan=False)
        with self._lock:
            parent = self.path.parent
            if parent and not parent.exists():
                parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return payload

    def load(self) -> List[dict]:
        """Every record in the ledger, file order ([] when absent).

        Raises:
            ValueError: on a corrupt line (the ledger is strict JSON).
        """
        if not self.path.exists():
            return []
        records: List[dict] = []
        with self.path.open("r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{self.path}:{line_number}: corrupt ledger "
                        f"line: {exc}"
                    ) from exc
        return records

    def last(self, n: int = 1) -> List[dict]:
        """The most recent ``n`` records, oldest first."""
        records = self.load()
        return records[-n:] if n > 0 else []

    def resolve(self, ref: str) -> dict:
        """A record by ``run_id`` prefix or negative index (``-1``).

        Raises:
            ConfigurationError: unknown or ambiguous reference.
        """
        records = self.load()
        if not records:
            raise ConfigurationError(
                f"ledger {self.path} is empty or missing"
            )
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None:
            try:
                return records[index]
            except IndexError:
                raise ConfigurationError(
                    f"ledger index {ref} out of range "
                    f"({len(records)} record(s))"
                ) from None
        matches = [
            r
            for r in records
            if str(r.get("run_id", "")).startswith(ref)
        ]
        if not matches:
            raise ConfigurationError(
                f"no ledger record with run_id prefix {ref!r}"
            )
        if len(matches) > 1:
            ids = ", ".join(str(m.get("run_id")) for m in matches[:5])
            raise ConfigurationError(
                f"run_id prefix {ref!r} is ambiguous ({ids})"
            )
        return matches[0]


# ---------------------------------------------------------------------------
# Diffing and reporting
# ---------------------------------------------------------------------------

#: Histogram fields worth diffing run-to-run.
_HIST_FIELDS = ("count", "mean", "p50", "p95")

#: Span-quantile fields worth diffing run-to-run.
_SPAN_FIELDS = ("count", "p50_s", "p95_s", "p99_s")


#: Result-key suffixes that are recorded as explicit ``null`` when the
#: measurement is not meaningful (rather than being dropped), mapped to
#: the label the report renders for them.
_NULL_RESULT_LABELS = {
    "speedup_parallel_vs_serial": "n/a (1 cpu)",
    "speedup_process_vs_serial": "n/a (1 cpu)",
}


def null_result_keys(record: dict) -> Dict[str, str]:
    """Result keys explicitly recorded as ``null``, with render labels.

    A bench run on a single-core host records e.g.
    ``speedup_parallel_vs_serial: null`` instead of a misleading ~1.0x
    number; the report shows these as ``n/a (1 cpu)`` instead of
    silently dropping the row.
    """
    out: Dict[str, str] = {}
    for key, value in (record.get("results") or {}).items():
        if value is not None:
            continue
        for suffix, label in _NULL_RESULT_LABELS.items():
            if key.endswith(suffix):
                out[f"result:{key}"] = label
                break
        else:
            out[f"result:{key}"] = "n/a"
    return out


def scalar_view(record: dict) -> Dict[str, float]:
    """Flatten a ledger record to comparable scalar series.

    Keys are namespaced: ``metric:<name>[.<field>]`` for instruments,
    ``span:<name>.<field>`` for latency quantiles, ``result:<key>`` for
    headline numbers.  Non-numeric and missing values are dropped --
    the view feeds diffs and SLO lookups, both of which need numbers.
    """
    out: Dict[str, float] = {}

    def put(key: str, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(
            value, bool
        ):
            out[key] = float(value)

    for metric in record.get("metrics", []):
        kind = metric.get("type")
        name = metric.get("name")
        if not name:
            continue
        if kind in ("counter", "gauge"):
            put(f"metric:{name}", metric.get("value"))
        elif kind == "histogram":
            for fld in _HIST_FIELDS:
                put(f"metric:{name}.{fld}", metric.get(fld))
    for name, quantiles in (record.get("spans") or {}).items():
        for fld in _SPAN_FIELDS:
            put(f"span:{name}.{fld}", (quantiles or {}).get(fld))
    for key, value in (record.get("results") or {}).items():
        put(f"result:{key}", value)
    return out


def diff_records(a: dict, b: dict) -> List[dict]:
    """Metric-by-metric diff rows between two ledger records.

    Each row: ``{"key", "a", "b", "delta", "pct"}`` where ``delta`` is
    ``b - a`` and ``pct`` is the relative change (None when a side is
    missing or ``a`` is zero).  Keys present on only one side are kept
    -- a metric disappearing between runs is itself a finding.
    """
    view_a, view_b = scalar_view(a), scalar_view(b)
    rows: List[dict] = []
    for key in sorted(set(view_a) | set(view_b)):
        va, vb = view_a.get(key), view_b.get(key)
        delta = vb - va if va is not None and vb is not None else None
        pct = (
            delta / abs(va)
            if delta is not None and not math.isclose(va, 0.0)
            else None
        )
        rows.append(
            {"key": key, "a": va, "b": vb, "delta": delta, "pct": pct}
        )
    return rows


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def _describe(record: dict) -> str:
    return (
        f"{record.get('run_id', '?')} ({record.get('command', '?')}"
        f"{'/' + record['label'] if record.get('label') else ''}, "
        f"{record.get('timestamp', '?')})"
    )


def render_runs(records: Sequence[dict]) -> str:
    """One-line-per-run listing table (``repro obs runs``)."""
    from repro.obs.export import format_table

    if not records:
        return "(ledger is empty)"
    rows = []
    for record in records:
        view = scalar_view(record)
        fix_p95 = view.get("span:fix.p95_s")
        fixes = view.get("metric:eval.fixes_total")
        rows.append(
            [
                record.get("run_id", "?"),
                record.get("timestamp", "?"),
                record.get("command", "?"),
                record.get("label", "") or "-",
                str(record.get("git_sha", "?"))[:10],
                str((record.get("host") or {}).get("cpu_count", "?")),
                str(record.get("workers") or "-"),
                _fmt(fixes),
                _fmt(fix_p95),
            ]
        )
    return format_table(
        [
            "run_id",
            "timestamp",
            "command",
            "label",
            "git",
            "cpus",
            "workers",
            "fixes",
            "fix p95 s",
        ],
        rows,
    )


def render_diff(a: dict, b: dict, min_pct: float = 0.0) -> str:
    """Human-readable metric-by-metric diff (``repro obs diff``).

    Args:
        min_pct: hide rows whose relative change is below this
            fraction (rows missing on one side always show).
    """
    from repro.obs.export import format_table

    nulls_a, nulls_b = null_result_keys(a), null_result_keys(b)
    rows = []
    seen = set()
    for row in diff_records(a, b):
        pct = row["pct"]
        if (
            pct is not None
            and min_pct > 0
            and abs(pct) < min_pct
        ):
            continue
        key = row["key"]
        seen.add(key)
        rows.append(
            [
                key,
                nulls_a.get(key) or _fmt(row["a"]),
                nulls_b.get(key) or _fmt(row["b"]),
                _fmt(row["delta"]),
                f"{pct * 100:+.1f}%" if pct is not None else "-",
            ]
        )
    for key in sorted(set(nulls_a) | set(nulls_b)):
        # Null on both sides: diff_records never saw the key, but the
        # report should still say *why* there is no number.
        if key in seen:
            continue
        rows.append(
            [
                key,
                nulls_a.get(key, "-"),
                nulls_b.get(key, "-"),
                "-",
                "-",
            ]
        )
    rows.sort(key=lambda r: r[0])
    header = [
        f"A: {_describe(a)}",
        f"B: {_describe(b)}",
        "",
    ]
    if not rows:
        return "\n".join(header + ["(no comparable metrics)"])
    return "\n".join(
        header
        + [format_table(["metric", "A", "B", "delta", "change"], rows)]
    )


def render_report(records: Sequence[dict], min_pct: float = 0.0) -> str:
    """Regression report: run listing plus the latest-pair diff."""
    if len(records) < 2:
        return (
            "need >= 2 ledger records for a report; have "
            f"{len(records)}\n" + render_runs(records)
        )
    parts = [
        "== runs ==",
        render_runs(records),
        "",
        "== latest diff (previous -> latest) ==",
        render_diff(records[-2], records[-1], min_pct=min_pct),
    ]
    return "\n".join(parts)
