"""The observability switchboard: one process-wide active observer.

The instrumented pipeline code always goes through
:func:`get_observer`; by default that returns a *disabled*
:class:`Observability` whose :meth:`~Observability.span` hands back a
shared no-op context manager and whose ``enabled`` flag gates every
metrics call, so the instrumentation costs a few attribute reads per
``locate`` and nothing else.  Enabling observability (the CLI's
``--trace`` / ``--metrics``, the benchmark hook, or :func:`observed` in
tests) swaps in a live observer with a real tracer and registry.

Standard instrument names used by the built-in instrumentation are
collected in :data:`STANDARD_METRICS` and pre-registered by
:func:`Observability.preregister` so a run's metrics summary always
shows e.g. the CRC-failure count even when it stayed at zero.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer


class _NoopSpanContext:
    """Shared, stateless stand-in for a span when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpanContext":
        return self


_NOOP_SPAN = _NoopSpanContext()

#: Instruments the built-in instrumentation writes to, with the bucket
#: layout histograms are created with.  Pre-registered on enabled
#: observers so summaries are stable across runs that never hit a path.
STANDARD_METRICS = {
    "ble.packets_received": ("counter", None),
    "ble.crc_failures": ("counter", None),
    "ble.demod_snr_db": ("histogram", (0, 3, 6, 9, 12, 15, 20, 25, 30, 40, 60)),
    "correction.hops_total": ("counter", None),
    "correction.hops_missing": ("counter", None),
    "correction.hop_coverage": ("gauge", None),
    "correction.residual_phase_rad": (
        "histogram",
        (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.2),
    ),
    "peaks.candidates": ("histogram", COUNT_BUCKETS),
    "peaks.raw_candidates": ("histogram", COUNT_BUCKETS),
    "peaks.score_margin": (
        "histogram",
        (0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0),
    ),
    "eval.fixes_total": ("counter", None),
    "eval.subset_failures": ("counter", None),
    "eval.fix_latency_s": ("histogram", LATENCY_BUCKETS_S),
    "engine.cache_hits": ("counter", None),
    "engine.cache_misses": ("counter", None),
    "engine.cache_evictions": ("counter", None),
    "engine.build_s": ("histogram", LATENCY_BUCKETS_S),
    "diag.bundles_written": ("counter", None),
    "health.anomalies.band_outage": ("counter", None),
    "health.anomalies.phase_offset_drift": ("counter", None),
    "health.anomalies.low_snr": ("counter", None),
    "health.anomalies.stale_anchor": ("counter", None),
}


class Observability:
    """A tracer + metrics registry pair behind one enabled flag.

    Attributes:
        enabled: when False, :meth:`span` is a no-op and instrumented
            code skips its metrics blocks.
        tracer: span collector (only meaningful when enabled).
        metrics: instrument registry (only meaningful when enabled).
    """

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self, enabled: bool = True, clock=None):
        self.enabled = enabled
        self.tracer = Tracer(**({"clock": clock} if clock else {}))
        self.metrics = MetricsRegistry()

    def span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ):
        """A span context manager (no-op when disabled).

        ``trace_id`` pins the span to an existing request trace; omitted,
        the tracer inherits the parent's trace id.
        """
        if not self.enabled:
            return _NOOP_SPAN
        return self.tracer.span(name, trace_id=trace_id, **attributes)

    def preregister(self) -> "Observability":
        """Create every standard instrument up front; returns self."""
        for name, (kind, buckets) in STANDARD_METRICS.items():
            if kind == "counter":
                self.metrics.counter(name)
            elif kind == "gauge":
                self.metrics.gauge(name)
            else:
                self.metrics.histogram(name, buckets)
        return self

    def reset(self) -> None:
        """Drop collected spans and instruments."""
        self.tracer.reset()
        self.metrics.reset()


#: The permanently disabled default observer.
_DISABLED = Observability(enabled=False)

_current: Observability = _DISABLED


def get_observer() -> Observability:
    """The process-wide active observer (disabled by default)."""
    return _current


def install(observer: Optional[Observability]) -> Observability:
    """Make ``observer`` the active one; returns the previous observer.

    Passing None restores the disabled default.
    """
    # Atomic reference swap under the GIL; installs happen before any
    # traced thread starts (the CLI installs before `serve` listens),
    # so no lock is needed here.
    global _current  # repro: noqa[RPR003]
    previous = _current
    _current = observer if observer is not None else _DISABLED
    return previous


@contextmanager
def observed(
    observer: Optional[Observability] = None,
    preregister: bool = True,
) -> Iterator[Observability]:
    """Enable observability for a ``with`` block.

    Args:
        observer: the observer to install (a fresh enabled one when
            omitted).
        preregister: create the standard instruments up front.

    Yields:
        The installed observer; the previous observer is restored on
        exit no matter how the block ends.
    """
    obs = observer if observer is not None else Observability(enabled=True)
    if preregister and obs.enabled:
        obs.preregister()
    previous = install(obs)
    try:
        yield obs
    finally:
        install(previous)
