"""Process-wide metrics: counters, gauges and fixed-bucket histograms.

Prometheus-style instruments with no external dependencies: a
:class:`MetricsRegistry` owns named instruments, instrument creation is
idempotent (``registry.counter("x")`` returns the existing counter), and
histograms use fixed ``le`` (less-or-equal) bucket upper bounds so two
runs of the same pipeline produce structurally comparable output.

Percentiles are estimated from the bucket counts by linear interpolation
inside the bucket that holds the requested rank, clamped to the observed
min/max -- the standard fixed-bucket estimator.  For per-fix latencies at
the default bucket layout this resolves p50/p95 to well under a bucket
width, which is all a regression dashboard needs.
"""

from __future__ import annotations

import bisect
import math
import time
from typing import (
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.runtime_locks import guarded_by, make_lock
from repro.errors import ConfigurationError

Number = Union[int, float]


class Exemplar(NamedTuple):
    """One sampled observation kept alongside a histogram bucket.

    Prometheus-style exemplars: the most recent observation in a bucket
    that carried a ``trace_id``, so a latency bucket on a dashboard
    links straight to a concrete request trace.

    Attributes:
        value: the observed value.
        trace_id: the request trace the observation belongs to.
        ts: unix timestamp of the observation.
    """

    value: float
    trace_id: str
    ts: float

    def to_dict(self) -> dict:
        """Plain-data view for export."""
        return {"value": self.value, "trace_id": self.trace_id, "ts": self.ts}

#: Default histogram buckets for durations in seconds (1 ms .. 10 s).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for small non-negative counts (peaks, candidates...).
COUNT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


@guarded_by("_lock", "_value")
class Counter:
    """A monotonically increasing count.

    Attributes:
        name: registry key.
    """

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = make_lock("Counter._lock")

    @property
    def value(self) -> float:
        """Current total (read under the instrument lock)."""
        with self._lock:
            return self._value

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter (thread-safe)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name}: increment must be >= 0, got {amount}"
            )
        with self._lock:
            self._value += amount

    def snapshot(self) -> dict:
        """Plain-data view for export."""
        with self._lock:
            return {
                "type": "counter", "name": self.name, "value": self._value
            }


@guarded_by("_lock", "_value")
class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._value = float("nan")
        self._lock = make_lock("Gauge._lock")

    @property
    def value(self) -> float:
        """Last set value (NaN before the first set); read under the
        instrument lock."""
        with self._lock:
            return self._value

    def set(self, value: Number) -> None:
        """Record the current value (thread-safe)."""
        with self._lock:
            self._value = float(value)

    def add(self, amount: Number) -> None:
        """Adjust the gauge relative to its current value (NaN -> amount)."""
        with self._lock:
            if math.isnan(self._value):
                self._value = float(amount)
            else:
                self._value += float(amount)

    def snapshot(self) -> dict:
        """Plain-data view for export."""
        with self._lock:
            return {
                "type": "gauge", "name": self.name, "value": self._value
            }


@guarded_by(
    "_lock", "_counts", "_count", "_sum", "_min", "_max", "_exemplars"
)
class Histogram:
    """Fixed-bucket histogram with ``le`` (less-or-equal) upper bounds.

    A value lands in the first bucket whose upper bound is >= the value;
    values above the last bound land in the implicit ``+inf`` overflow
    bucket.  Bucket edges are part of the instrument's identity:
    re-requesting the same name with different edges is a configuration
    error, not a silent re-bucketing.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[Number]):
        edges = tuple(float(b) for b in buckets)
        if len(edges) < 1:
            raise ConfigurationError(f"histogram {name}: need >= 1 bucket")
        if any(not math.isfinite(e) for e in edges):
            raise ConfigurationError(
                f"histogram {name}: bucket edges must be finite"
            )
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram {name}: bucket edges must be strictly increasing"
            )
        self.name = name
        self.edges = edges
        self._counts = [0] * (len(edges) + 1)  # +1 for the +inf overflow
        self._exemplars: List[Optional[Exemplar]] = [None] * (len(edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = make_lock("Histogram._lock")

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    @property
    def min(self) -> float:
        """Smallest observation (inf before the first observe)."""
        with self._lock:
            return self._min

    @property
    def max(self) -> float:
        """Largest observation (-inf before the first observe)."""
        with self._lock:
            return self._max

    def observe(
        self, value: Number, trace_id: Optional[str] = None
    ) -> None:
        """Record one observation (thread-safe).

        When ``trace_id`` is given, the observation also becomes the
        bucket's :class:`Exemplar` (last writer wins), linking the
        bucket to a concrete request trace in the exposition.
        """
        v = float(value)
        if math.isnan(v):
            raise ConfigurationError(
                f"histogram {self.name}: cannot observe NaN"
            )
        idx = bisect.bisect_left(self.edges, v)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v
            if trace_id:
                self._exemplars[idx] = Exemplar(
                    value=v, trace_id=trace_id, ts=time.time()
                )

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts (last entry is the +inf overflow bucket)."""
        with self._lock:
            return list(self._counts)

    def exemplars(self) -> List[Optional[Exemplar]]:
        """Per-bucket exemplars, parallel to :meth:`bucket_counts`.

        Thread-safety: copied under the instrument lock.
        """
        with self._lock:
            return list(self._exemplars)

    def mean(self) -> float:
        """Mean of the observations (NaN when empty); sum and count are
        read under the lock so the ratio is internally consistent."""
        with self._lock:
            if not self._count:
                return float("nan")
            return self._sum / self._count

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (q in [0, 100]) from the buckets.

        Linear interpolation inside the bucket holding the requested
        rank, with bucket bounds clamped to the observed min/max so the
        open-ended first and overflow buckets stay finite.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
            lo, hi = self._min, self._max
        if total == 0:
            return float("nan")
        rank = q / 100.0 * total
        cumulative = 0
        for i, bucket_count in enumerate(counts):
            if cumulative + bucket_count >= rank and bucket_count > 0:
                lower = self.edges[i - 1] if i > 0 else lo
                upper = self.edges[i] if i < len(self.edges) else hi
                lower = max(lower, lo)
                upper = min(upper, hi)
                if upper <= lower:
                    return lower
                fraction = (rank - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return hi

    def snapshot(self) -> dict:
        """Plain-data view for export (includes p50/p95 estimates)."""
        with self._lock:
            counts = list(self._counts)
            exemplars = list(self._exemplars)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        buckets = []
        for i, edge in enumerate(list(self.edges) + ["inf"]):
            bucket: dict = {"le": edge, "count": counts[i]}
            if exemplars[i] is not None:
                bucket["exemplar"] = exemplars[i].to_dict()
            buckets.append(bucket)
        return {
            "type": "histogram",
            "name": self.name,
            "count": count,
            "sum": total,
            "min": lo if count else None,
            "max": hi if count else None,
            "mean": (total / count) if count else None,
            "p50": self.percentile(50.0) if count else None,
            "p95": self.percentile(95.0) if count else None,
            "buckets": buckets,
        }


Instrument = Union[Counter, Gauge, Histogram]


@guarded_by("_lock", "_instruments")
class MetricsRegistry:
    """Named instruments for one observability session.

    Instrument accessors create on first use and return the existing
    instrument afterwards; requesting an existing name as a different
    instrument kind (or a histogram with different buckets) raises
    :class:`~repro.errors.ConfigurationError`.  One registry serves every
    thread of the process (the service's request threads included):
    creation runs under the registry lock and each instrument
    locks its own updates.
    """

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}
        self._lock = make_lock("MetricsRegistry._lock")

    def _get_or_create(self, name: str, factory, kind: str) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {kind}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create a counter (thread-safe: creation runs under the
        registry lock, so racing first uses share one counter)."""
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, buckets: Optional[Sequence[Number]] = None
    ) -> Histogram:
        """Get or create a histogram (default buckets: latency seconds).

        Thread-safe: creation runs under the registry lock, so racing
        first uses share one histogram.
        """
        requested = tuple(
            float(b) for b in (buckets or LATENCY_BUCKETS_S)
        )
        instrument = self._get_or_create(
            name, lambda: Histogram(name, requested), "histogram"
        )
        if buckets is not None and instrument.edges != requested:
            raise ConfigurationError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.edges}, requested {requested}"
            )
        return instrument

    def get(self, name: str) -> Optional[Instrument]:
        """Look up an instrument without creating it."""
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> List[Instrument]:
        """All instruments, sorted by name."""
        with self._lock:
            return [
                self._instruments[k] for k in sorted(self._instruments)
            ]

    def snapshot(self) -> List[dict]:
        """Plain-data view of every instrument, sorted by name."""
        return [inst.snapshot() for inst in self.instruments()]

    def reset(self) -> None:
        """Forget every instrument."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments
