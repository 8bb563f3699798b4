"""Tests for repro.obs.metrics: instruments, bucket edges, registry."""

from __future__ import annotations

import math
import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)


class TestGauge:
    def test_nan_until_set(self):
        g = Gauge("g")
        assert math.isnan(g.value)
        g.set(0.75)
        assert g.value == 0.75

    def test_add(self):
        g = Gauge("g")
        g.add(2)  # NaN -> 2
        g.add(-0.5)
        assert g.value == 1.5


class TestHistogramBuckets:
    def test_le_semantics_value_on_edge_lands_in_that_bucket(self):
        h = Histogram("h", buckets=[1.0, 2.0, 4.0])
        h.observe(1.0)  # exactly on the first edge -> bucket le=1
        h.observe(2.0)  # exactly on the second edge -> bucket le=2
        h.observe(1.5)  # inside -> bucket le=2
        h.observe(9.0)  # above all edges -> overflow
        assert h.bucket_counts() == [1, 2, 0, 1]

    def test_below_first_edge_lands_in_first_bucket(self):
        h = Histogram("h", buckets=[0.0, 1.0])
        h.observe(-3.0)
        assert h.bucket_counts() == [1, 0, 0]

    def test_stats(self):
        h = Histogram("h", buckets=[10.0])
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean() == pytest.approx(2.0)

    def test_non_increasing_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=[2.0, 1.0])

    def test_nan_observation_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=[1.0]).observe(float("nan"))


class TestHistogramPercentiles:
    def test_empty_is_nan(self):
        assert math.isnan(Histogram("h", buckets=[1.0]).percentile(50))

    def test_single_value(self):
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(1.5)
        # Clamped to observed min == max.
        assert h.percentile(50) == pytest.approx(1.5)
        assert h.percentile(95) == pytest.approx(1.5)

    def test_uniform_fill_interpolates(self):
        h = Histogram("h", buckets=[1.0, 2.0, 3.0, 4.0])
        for i in range(400):
            h.observe(i / 100.0)  # uniform on [0, 4)
        assert h.percentile(50) == pytest.approx(2.0, abs=0.25)
        assert h.percentile(95) == pytest.approx(3.8, abs=0.3)

    def test_monotone_in_q(self):
        h = Histogram("h", buckets=[0.5, 1.0, 2.0, 5.0])
        for v in (0.1, 0.4, 0.9, 1.5, 1.7, 3.0, 4.9, 7.0):
            h.observe(v)
        qs = [h.percentile(q) for q in (5, 25, 50, 75, 95)]
        assert qs == sorted(qs)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=[1.0]).percentile(101)


class TestRegistry:
    def test_idempotent_creation(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", [1.0]) is reg.histogram("h", [1.0])

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            reg.histogram("h", [1.0, 3.0])

    def test_snapshot_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.gauge("a").set(1.0)
        reg.histogram("c", [1.0]).observe(0.5)
        snap = reg.snapshot()
        assert [s["name"] for s in snap] == ["a", "b", "c"]
        assert [s["type"] for s in snap] == ["gauge", "counter", "histogram"]
        hist = snap[2]
        assert hist["count"] == 1
        assert hist["buckets"][-1]["le"] == "inf"

    def test_contains_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("x")
        assert "x" in reg and len(reg) == 1
        reg.reset()
        assert "x" not in reg and len(reg) == 0


class TestSharedRegistryAcrossThreads:
    """The service's request threads all write one registry."""

    THREADS = 8
    OPS = 2_000
    HOT = 4  # counters every thread increments throughout
    PER_NAME = 8  # consecutive observations into one histogram
    EDGES = (1.0, 2.0, 3.0, 4.0)

    def _work(self, registry):
        # Every thread walks the same names in the same order: the few
        # counters are contended for the whole run, and each of the 250
        # histograms is first used by all threads at once, so creation
        # races with creation and with observations.
        for op in range(self.OPS):
            registry.counter(f"c{op % self.HOT}").inc()
            registry.histogram(f"h{op // self.PER_NAME}", self.EDGES).observe(
                (op % 10) * 0.5
            )

    def test_racing_first_use_keeps_exact_totals(self):
        shared = MetricsRegistry()
        start = threading.Barrier(self.THREADS)

        def worker():
            start.wait()
            self._work(shared)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker) for _ in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)

        # Every thread made the same calls, so the shared totals are
        # exactly THREADS times one serial pass's.
        one_pass = MetricsRegistry()
        self._work(one_pass)
        assert len(shared) == len(one_pass)
        for name in range(self.HOT):
            assert shared.counter(f"c{name}").value == (
                self.THREADS * self.OPS / self.HOT
            )
        for name in range(self.OPS // self.PER_NAME):
            got = shared.histogram(f"h{name}")
            want = one_pass.histogram(f"h{name}")
            assert got.count == self.THREADS * want.count
            assert got.bucket_counts() == [
                self.THREADS * count for count in want.bucket_counts()
            ]
            assert got.sum == self.THREADS * want.sum
