"""`repro obs top`: a live terminal dashboard over the access log.

Tails the service's NDJSON access log (rotation-aware: when
``access.ndjson`` is renamed to ``access.ndjson.1`` mid-tail, the
tailer reopens the fresh file without losing its place) and renders a
periodically refreshed frame of request-level health:

* RPS and error rate over a sliding window;
* per-provider share -- how often BLoc answered versus the AoA/RSSI
  fallbacks (the service's graceful-degradation signal);
* latency quantiles (p50/p95/p99) over the window, plus the slowest
  request's ``trace_id`` so the operator can jump straight to
  ``repro obs trace <id>``;
* optionally, live ``/v1/stats`` -- steering-cache hit ratio, pool
  warmth -- when given the service URL.

The frame builder and renderer are pure functions over parsed records,
so tests drive them without a terminal or a server; only
:func:`run_top` touches the clock, the filesystem and stdout.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, List, Optional, Union

import numpy as np

#: ANSI clear-screen + cursor-home, printed between live frames.
CLEAR = "\x1b[2J\x1b[H"


def read_access_records(path: Union[str, Path]) -> List[dict]:
    """Parse every well-formed NDJSON line of an access log.

    Malformed lines (a torn write at rotation time, a truncated tail)
    are skipped, not fatal -- a dashboard must keep rendering.
    """
    records: List[dict] = []
    log_path = Path(path)
    if not log_path.exists():
        return records
    with log_path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


class AccessLogTail:
    """Incremental reader of a size-rotated NDJSON access log.

    ``poll()`` returns the records appended since the previous poll.
    Rotation is detected by the file shrinking (the service renames the
    full file to ``<path>.1`` and starts a fresh one); on detection the
    reader finishes nothing from the old generation (its tail was read
    on earlier polls) and restarts at the top of the new file.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._offset = 0

    def poll(self) -> List[dict]:
        """Records appended since the last poll (rotation-aware)."""
        if not self.path.exists():
            return []
        size = self.path.stat().st_size
        if size < self._offset:
            self._offset = 0  # rotated: a fresh, smaller file
        records: List[dict] = []
        with self.path.open("r", encoding="utf-8") as fh:
            fh.seek(self._offset)
            for line in fh:
                if not line.endswith("\n"):
                    break  # torn tail: re-read on the next poll
                self._offset += len(line.encode("utf-8"))
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
        return records


@dataclass
class TopFrame:
    """One rendered dashboard tick, computed from windowed records.

    Attributes:
        window_s: sliding-window length the rates cover.
        requests: requests inside the window.
        rps: requests per second over the window.
        error_rate: non-2xx share of windowed requests (0..1).
        statuses / providers: windowed counts by status / provider.
        fallback_rate: non-``bloc`` share of windowed 200s (0..1).
        latency_ms: p50/p95/p99 over the window, in milliseconds.
        slowest_trace_id / slowest_latency_ms: the window's worst
            request, for ``repro obs trace``.
        stats: live ``/v1/stats`` payload when polled, else None.
    """

    window_s: float
    requests: int = 0
    rps: float = 0.0
    error_rate: float = 0.0
    statuses: Dict[str, int] = field(default_factory=dict)
    providers: Dict[str, int] = field(default_factory=dict)
    fallback_rate: float = 0.0
    latency_ms: Dict[str, float] = field(default_factory=dict)
    slowest_trace_id: str = ""
    slowest_latency_ms: float = 0.0
    stats: Optional[dict] = None


def build_frame(
    records: List[dict],
    window_s: float = 60.0,
    now: Optional[float] = None,
    stats: Optional[dict] = None,
) -> TopFrame:
    """Compute one dashboard frame from access-log records.

    ``now`` anchors the sliding window; omitted, it defaults to the
    newest record's timestamp (so rendering a historical log shows its
    final window rather than an empty one).
    """
    frame = TopFrame(window_s=window_s, stats=stats)
    stamped = [
        r for r in records if isinstance(r.get("ts"), (int, float))
    ]
    if not stamped:
        return frame
    if now is None:
        now = max(float(r["ts"]) for r in stamped)
    windowed = [
        r
        for r in stamped
        if now - window_s <= float(r["ts"]) <= now
    ]
    if not windowed:
        return frame
    frame.requests = len(windowed)
    span = min(window_s, max(now - min(float(r["ts"]) for r in windowed), 1e-9))
    frame.rps = frame.requests / max(span, 1.0)
    errors = 0
    latencies: List[float] = []
    slowest = (0.0, "")
    for record in windowed:
        status = str(record.get("status", "?"))
        frame.statuses[status] = frame.statuses.get(status, 0) + 1
        if not status.startswith("2"):
            errors += 1
        provider = record.get("provider")
        if provider:
            frame.providers[provider] = (
                frame.providers.get(provider, 0) + 1
            )
        latency = record.get("latency_s")
        if isinstance(latency, (int, float)):
            latencies.append(float(latency))
            if float(latency) > slowest[0]:
                slowest = (
                    float(latency),
                    str(record.get("trace_id") or ""),
                )
    frame.error_rate = errors / frame.requests
    served = sum(frame.providers.values())
    if served:
        frame.fallback_rate = (
            served - frame.providers.get("bloc", 0)
        ) / served
    if latencies:
        quantiles = np.percentile(np.array(latencies), [50, 95, 99])
        frame.latency_ms = {
            "p50": float(quantiles[0]) * 1e3,
            "p95": float(quantiles[1]) * 1e3,
            "p99": float(quantiles[2]) * 1e3,
        }
    frame.slowest_latency_ms = slowest[0] * 1e3
    frame.slowest_trace_id = slowest[1]
    return frame


def _share_bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_frame(frame: TopFrame) -> str:
    """Text rendering of one frame (pure; no ANSI control codes)."""
    lines = [
        f"repro obs top -- window {frame.window_s:.0f}s",
        (
            f"requests {frame.requests:6d}   rps {frame.rps:8.2f}   "
            f"errors {frame.error_rate * 100:5.1f}%   "
            f"fallback {frame.fallback_rate * 100:5.1f}%"
        ),
    ]
    if frame.latency_ms:
        lines.append(
            "latency ms  p50 {p50:8.2f}  p95 {p95:8.2f}  "
            "p99 {p99:8.2f}".format(**frame.latency_ms)
        )
    if frame.slowest_trace_id:
        lines.append(
            f"slowest  {frame.slowest_latency_ms:8.2f} ms  "
            f"trace {frame.slowest_trace_id}"
        )
    if frame.statuses:
        shown = "  ".join(
            f"{status}:{count}"
            for status, count in sorted(frame.statuses.items())
        )
        lines.append(f"statuses  {shown}")
    total_served = sum(frame.providers.values())
    for provider in sorted(frame.providers):
        share = frame.providers[provider] / total_served
        lines.append(
            f"  {provider:<6} {_share_bar(share)} "
            f"{share * 100:5.1f}% ({frame.providers[provider]})"
        )
    stats = frame.stats or {}
    cache = stats.get("cache")
    if cache:
        ratio = cache.get("hit_ratio")
        shown_ratio = (
            f"{ratio * 100:.1f}%" if ratio is not None else "n/a"
        )
        lines.append(
            f"cache  hit ratio {shown_ratio}  "
            f"({cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses, "
            f"{cache.get('entries', 0)} entries)"
        )
    warmth = (stats.get("pool") or {}).get("warmth")
    if warmth:
        shown = "  ".join(
            f"{name}:{'warm' if built else 'cold'}"
            for name, built in sorted(warmth.items())
        )
        lines.append(f"pool   {shown}")
    return "\n".join(lines)


def fetch_stats(url: str, timeout_s: float = 2.0) -> Optional[dict]:
    """Best-effort ``GET <url>/v1/stats``; None when unreachable."""
    try:
        with urllib.request.urlopen(
            url.rstrip("/") + "/v1/stats", timeout=timeout_s
        ) as response:
            payload = json.loads(response.read().decode("utf-8"))
            return payload if isinstance(payload, dict) else None
    except (OSError, ValueError):
        return None


def run_top(
    access_log: Union[str, Path],
    url: Optional[str] = None,
    window_s: float = 60.0,
    interval_s: float = 1.0,
    frames: Optional[int] = None,
    out: Optional[IO[str]] = None,
    clear: bool = True,
) -> int:
    """Render the dashboard until interrupted (or for ``frames`` ticks).

    Returns the number of frames rendered.  ``frames=1`` with
    ``clear=False`` is the scripting/CI mode (``repro obs top --once``).
    """
    stream = out if out is not None else sys.stdout
    tail = AccessLogTail(access_log)
    records: List[dict] = read_access_records(
        Path(str(access_log) + ".1")
    )
    rendered = 0
    try:
        while frames is None or rendered < frames:
            records.extend(tail.poll())
            live = frames is None or frames > 1
            if live:
                # Live mode anchors the window on the wall clock and
                # prunes aged-out records; one-shot mode keeps
                # everything and anchors on the newest record, so a
                # historical log renders its final window.
                horizon = time.time() - 2 * window_s
                records = [
                    r
                    for r in records
                    if isinstance(r.get("ts"), (int, float))
                    and float(r["ts"]) >= horizon
                ]
            stats = fetch_stats(url) if url else None
            now = time.time() if live else None
            frame = build_frame(
                records, window_s=window_s, now=now, stats=stats
            )
            if clear:
                stream.write(CLEAR)
            stream.write(render_frame(frame) + "\n")
            stream.flush()
            rendered += 1
            if frames is not None and rendered >= frames:
                break
            time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return rendered
