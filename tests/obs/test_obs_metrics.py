"""Tests for repro.obs.metrics: instruments, bucket edges, registry."""

from __future__ import annotations

import math

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


class TestMerge:
    def test_counter_merge_adds(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7

    def test_gauge_merge_last_write_wins(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(1.0)
        b.set(2.5)
        a.merge(b)
        assert a.value == 2.5

    def test_gauge_merge_skips_nan(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(1.0)
        a.merge(b)  # b never set: stays 1.0
        assert a.value == 1.0

    def test_histogram_merge_combines_everything(self):
        edges = (1, 2, 4)
        a, b = Histogram("h", edges), Histogram("h", edges)
        a.observe(0.5)
        a.observe(3.0)
        b.observe(1.5)
        b.observe(10.0)
        a.merge(b)
        assert a.count == 4
        assert a.sum == pytest.approx(15.0)
        assert a.min == 0.5
        assert a.max == 10.0
        assert a.bucket_counts() == [1, 1, 1, 1]

    def test_histogram_merge_rejects_mismatched_edges(self):
        a = Histogram("h", (1, 2))
        b = Histogram("h", (1, 3))
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_empty_histogram_merge_is_noop(self):
        a = Histogram("h", (1, 2))
        a.observe(0.5)
        a.merge(Histogram("h", (1, 2)))
        assert a.count == 1
        assert a.min == 0.5

    def test_registry_merge_creates_and_combines(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.counter("shared").inc(1)
        worker.counter("shared").inc(2)
        worker.counter("worker_only").inc(5)
        worker.gauge("g").set(3.0)
        worker.histogram("h", (1, 2)).observe(1.5)
        main.merge(worker)
        assert main.counter("shared").value == 3
        assert main.counter("worker_only").value == 5
        assert main.gauge("g").value == 3.0
        assert main.histogram("h", (1, 2)).count == 1

    def test_registry_merge_kind_conflict_raises(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.counter("x")
        worker.gauge("x").set(1.0)
        with pytest.raises(ConfigurationError):
            main.merge(worker)

    @pytest.mark.parametrize(
        "make_main, make_worker",
        [
            (lambda r: r.counter("x"), lambda r: r.histogram("x", (1.0,))),
            (lambda r: r.histogram("x", (1.0,)), lambda r: r.counter("x")),
            (lambda r: r.gauge("x"), lambda r: r.histogram("x", (1.0,))),
            (lambda r: r.histogram("x", (1.0,)), lambda r: r.gauge("x")),
            (lambda r: r.gauge("x"), lambda r: r.counter("x")),
        ],
    )
    def test_registry_merge_every_kind_conflict_raises(
        self, make_main, make_worker
    ):
        main, worker = MetricsRegistry(), MetricsRegistry()
        make_main(main)
        make_worker(worker)
        with pytest.raises(ConfigurationError):
            main.merge(worker)

    def test_merge_of_empty_registries_is_noop(self):
        main = MetricsRegistry()
        assert main.merge(MetricsRegistry()) is main
        assert len(main) == 0

    def test_merge_empty_into_populated_preserves_values(self):
        main = MetricsRegistry()
        main.counter("c").inc(2)
        main.histogram("h", (1, 2)).observe(0.5)
        main.merge(MetricsRegistry())
        assert main.counter("c").value == 2
        assert main.histogram("h", (1, 2)).count == 1

    def test_registry_merge_mismatched_histogram_edges_raises(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.histogram("h", (1.0, 2.0))
        worker.histogram("h", (1.0, 3.0)).observe(0.5)
        with pytest.raises(ConfigurationError):
            main.merge(worker)

    def test_merge_after_snapshot_reflects_new_observations(self):
        main, worker = MetricsRegistry(), MetricsRegistry()
        main.counter("c").inc(1)
        before = {s["name"]: s for s in main.snapshot()}
        assert before["c"]["value"] == 1
        worker.counter("c").inc(4)
        worker.histogram("late", (1,)).observe(0.5)
        main.merge(worker)
        after = {s["name"]: s for s in main.snapshot()}
        assert after["c"]["value"] == 5
        assert after["late"]["count"] == 1
        # The earlier snapshot is plain data: unaffected by the merge.
        assert before["c"]["value"] == 1

    def test_merge_same_worker_twice_double_counts(self):
        # Callers must merge each worker registry exactly once; the
        # registry itself does not dedupe.
        main, worker = MetricsRegistry(), MetricsRegistry()
        worker.counter("c").inc(3)
        main.merge(worker).merge(worker)
        assert main.counter("c").value == 6
