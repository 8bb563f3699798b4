"""Timing spans: nested, thread-aware wall-clock tracing.

A :class:`Span` covers one pipeline stage (``correct``,
``map_likelihood``, ...); spans nest via a per-thread active-span stack
kept by the :class:`Tracer`, so a ``locate`` span naturally becomes the
parent of the four stage spans it encloses.  Finished spans are collected
in completion order (children finish before their parents) and can be
exported as NDJSON by :mod:`repro.obs.export`.

One tracer serves every thread of the process.  Each thread keeps its
own active-span stack: the service's request threads open root spans
pinned to the request's trace id.

The tracer never touches the traced computation: entering a span reads a
clock and pushes a frame, exiting reads the clock again and pops.  When
observability is disabled the pipeline uses a shared no-op context
manager instead (see :mod:`repro.obs.context`) and this module is never
exercised at all.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.runtime_locks import guarded_by, make_lock

#: Version prefix emitted in ``traceparent`` headers (W3C trace-context).
TRACEPARENT_VERSION = "00"

_TRACE_ID_LEN = 32
_SPAN_ID_LEN = 16
_HEX_DIGITS = frozenset("0123456789abcdef")


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (random, W3C-trace-context shaped)."""
    return uuid.uuid4().hex


def _is_hex(text: str) -> bool:
    return bool(text) and all(ch in _HEX_DIGITS for ch in text.lower())


def format_traceparent(trace_id: str, span_id: int = 0) -> str:
    """Render a W3C ``traceparent`` header value for ``trace_id``.

    ``span_id`` (the tracer's integer span id) becomes the 16-hex-char
    parent-id field, truncated to 64 bits; 0 renders as all zeros, which
    consumers treat as "trace known, parent span unknown".
    """
    parent = format(span_id & ((1 << 64) - 1), "016x")
    return f"{TRACEPARENT_VERSION}-{trace_id}-{parent}-01"


def parse_traceparent(header: Optional[str]) -> Optional[str]:
    """Extract the trace id from a ``traceparent`` header, or None.

    Accepts any ``<ver>-<trace_id>-<parent_id>-<flags>`` value with a
    well-formed 32-hex trace id (not all zeros).  Malformed headers are
    rejected (None) rather than raised: an inbound request with a bad
    header simply starts a fresh trace.
    """
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, parent_id = parts[0], parts[1], parts[2]
    if len(version) != 2 or not _is_hex(version) or version.lower() == "ff":
        return None
    trace_id = trace_id.lower()
    if len(trace_id) != _TRACE_ID_LEN or not _is_hex(trace_id):
        return None
    if trace_id == "0" * _TRACE_ID_LEN:
        return None
    if len(parent_id) != _SPAN_ID_LEN or not _is_hex(parent_id):
        return None
    return trace_id


@dataclass
class Span:
    """One timed, possibly nested, unit of work.

    Attributes:
        name: stage name (``correct``, ``fix``, ...).
        span_id: unique id within the owning tracer.
        parent_id: id of the enclosing span, or None for roots.
        depth: nesting depth (0 for roots).
        start_s: clock reading at entry.
        end_s: clock reading at exit (NaN while still open).
        attributes: free-form key/value annotations.
        status: ``"ok"`` or ``"error:<ExceptionType>"`` when the body
            raised.
        thread: name of the thread that ran the span.
        trace_id: 32-hex request-trace id shared by every span in one
            logical request (``""`` on spans predating trace context).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    start_s: float
    end_s: float = float("nan")
    attributes: Dict[str, Any] = field(default_factory=dict)
    status: str = "open"
    thread: str = ""
    trace_id: str = ""

    @property
    def duration_s(self) -> float:
        """Wall-clock duration [s] (NaN while the span is open)."""
        return self.end_s - self.start_s

    def set(self, **attributes: Any) -> "Span":
        """Attach annotations; returns self for chaining."""
        self.attributes.update(attributes)
        return self


class _SpanContext:
    """Context manager guarding one span's enter/exit bookkeeping."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.status = "ok" if exc_type is None else f"error:{exc_type.__name__}"
        self._tracer._finish(span)
        return False


@guarded_by("_lock", "_finished", "_stacks")
class Tracer:
    """Collects spans with a thread-local active-span stack.

    Attributes:
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = make_lock("Tracer._lock")
        self._finished: List[Span] = []
        # Thread ident -> (thread name, that thread's live stack list).
        # Registered once per thread (on first _stack()) and never
        # removed: a registered list is aliased by the owning thread's
        # thread-local slot, so dropping the registry entry would
        # desynchronise the two.  Entries of finished threads hold empty
        # lists and cost a few bytes each.
        self._stacks: Dict[int, tuple] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
            with self._lock:
                self._stacks[threading.get_ident()] = (
                    threading.current_thread().name,
                    stack,
                )
        return stack

    def span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ) -> _SpanContext:
        """Open a span as a child of the current thread's active span.

        The span's ``trace_id`` resolves in priority order: the explicit
        ``trace_id`` keyword, the parent span's trace id, else -- for root
        spans only -- a freshly generated id, so every span always belongs
        to exactly one trace.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None:
            if parent is not None and parent.trace_id:
                trace_id = parent.trace_id
            else:
                trace_id = new_trace_id()
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            depth=parent.depth + 1 if parent else 0,
            start_s=self.clock(),
            attributes=dict(attributes),
            thread=threading.current_thread().name,
            trace_id=trace_id,
        )
        stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end_s = self.clock()
        stack = self._stack()
        # The finished span is the innermost open one unless the caller
        # misuses the context managers; popping by identity stays correct
        # even then.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self._finished.append(span)

    def active_stacks(self) -> Dict[str, List[Span]]:
        """Every thread's open-span stack, outermost first (thread-safe).

        Used by the sampling profiler to attribute wall-clock samples to
        whatever spans are open *right now* on *any* thread, without the
        sampled threads cooperating.  The registry is copied under the
        tracer lock; each stack list is then shallow-copied, which is
        atomic under the GIL with respect to the owning thread's
        append/pop, so a sample sees a consistent (if instantaneously
        stale) stack.  Threads with no open span are omitted.

        Returns:
            ``{"<thread name>#<ident>": [root span, ..., innermost]}``.
        """
        with self._lock:
            items = list(self._stacks.items())
        snapshot: Dict[str, List[Span]] = {}
        for ident, (name, stack) in items:
            copied = list(stack)
            if copied:
                snapshot[f"{name}#{ident}"] = copied
        return snapshot

    def finished(self) -> List[Span]:
        """Snapshot of all completed spans, completion order."""
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        """Drop every collected span (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)
