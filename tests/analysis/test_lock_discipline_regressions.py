"""Regression tests for the races the concurrency audit fixed.

Rolling out RPR013-015 over the tree surfaced a handful of real
violations, chiefly unlocked snapshot reads.  Each fix gets a
behavioural test here so the bug cannot quietly return, plus a
declaration-integrity sweep over every ``@guarded_by`` class in the
package.
"""

from __future__ import annotations

import inspect
import threading

import pytest

from repro.core import (
    SteeringCache,
    build_steering_entry,
    correct_phase_offsets,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.telemetry import AccuracyTelemetry
from repro.sim import ChannelMeasurementModel
from repro.sim.runner import DiagnosticsCapture
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D


@pytest.fixture(scope="module")
def observations():
    model = ChannelMeasurementModel(testbed=open_room_testbed(), seed=7)
    return model.measure(Point(0.4, -0.3))


@pytest.fixture(scope="module")
def corrected(observations):
    return correct_phase_offsets(observations)


@pytest.fixture(scope="module")
def entry(corrected):
    grid = Grid2D(-2.0, 2.0, -1.5, 1.5, 0.25)
    return build_steering_entry(
        grid,
        corrected.anchors,
        corrected.master_index,
        corrected.anchor_baselines_m,
        corrected.frequencies_hz,
    )


class TestSteeringCacheInfoSnapshot:
    def test_info_is_internally_consistent_under_churn(self, entry):
        """`info()` takes entries and counters in one locked snapshot.

        Before the fix the counters were read lock-free, so a reader
        racing an eviction could pair a post-eviction entry count with a
        pre-eviction byte total.  With every seeded entry the same size,
        a consistent snapshot always satisfies bytes == entries * size.
        """
        cache = SteeringCache(max_entries=4)
        stop = threading.Event()

        def churn():
            key = 0
            while not stop.is_set():
                cache.get_or_build(("k", key % 8), lambda: entry)
                key += 1
                if key % 16 == 0:
                    cache.clear()

        workers = [threading.Thread(target=churn) for _ in range(3)]
        for worker in workers:
            worker.start()
        try:
            for _ in range(300):
                info = cache.info()
                assert info["bytes"] == info["entries"] * entry.nbytes, info
        finally:
            stop.set()
            for worker in workers:
                worker.join()


class TestLockedCounterReads:
    def test_concurrent_increments_and_reads_stay_exact(self):
        """Counter/Gauge/Histogram snapshot reads go through the lock;
        hammering them from readers must not perturb the totals."""
        registry = MetricsRegistry()
        counter = registry.counter("reg.hits")
        histogram = registry.histogram("reg.latency", (0.1, 1.0))
        stop = threading.Event()

        def read_constantly():
            while not stop.is_set():
                counter.value
                histogram.mean() if histogram.count else None
                registry.snapshot()

        reader = threading.Thread(target=read_constantly)
        reader.start()

        def bump():
            for _ in range(1000):
                counter.inc()
                histogram.observe(0.5)

        try:
            workers = [threading.Thread(target=bump) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            stop.set()
            reader.join()
        assert counter.value == 4000
        assert histogram.count == 4000
        assert histogram.mean() == pytest.approx(0.5)

    def test_histogram_extrema_read_under_lock(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("reg.latency", (0.1, 1.0))
        histogram.observe(0.2)
        histogram.observe(0.8)
        assert histogram.min == pytest.approx(0.2)
        assert histogram.max == pytest.approx(0.8)
        assert histogram.sum == pytest.approx(1.0)


class TestTelemetryFixCounter:
    def test_fixes_recorded_is_exact_across_threads(self, observations):
        telemetry = AccuracyTelemetry(MetricsRegistry())

        def record(count):
            for _ in range(count):
                telemetry.record_fix(observations, Point(0.4, -0.3))

        workers = [
            threading.Thread(target=record, args=(5,)) for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert telemetry.fixes_recorded == 20


class TestDiagnosticsCaptureReads:
    def test_diagnostics_for_while_collectors_run(self, observations):
        capture = DiagnosticsCapture()
        stop = threading.Event()

        def collect():
            index = 0
            while not stop.is_set():
                capture.collect(index % 50, observations, None)
                index += 1

        worker = threading.Thread(target=collect)
        worker.start()
        try:
            for index in range(500):
                assert capture.diagnostics_for(index % 50) is None
        finally:
            stop.set()
            worker.join()


class TestGuardDeclarations:
    def test_every_guarded_class_names_a_real_lock_attribute(self):
        """``__guarded_fields__`` must point at lock attributes that the
        class actually creates -- a typo'd lock name would silently
        disable RPR013 for those fields."""
        import repro.core.engine
        import repro.obs.metrics
        import repro.obs.trace
        import repro.service.app
        import repro.service.pool
        import repro.service.ratelimit
        import repro.service.telemetry
        import repro.sim.runner

        classes = [
            repro.core.engine.LruCache,
            repro.obs.metrics.Counter,
            repro.obs.metrics.Gauge,
            repro.obs.metrics.Histogram,
            repro.obs.metrics.MetricsRegistry,
            repro.obs.trace.Tracer,
            repro.service.app.RotatingNdjsonLog,
            repro.service.app.LocalizationService,
            repro.service.pool.LocalizerPool,
            repro.service.ratelimit.RateLimiter,
            repro.service.telemetry.AccuracyTelemetry,
            repro.sim.runner.DiagnosticsCapture,
        ]
        for cls in classes:
            declared = getattr(cls, "__guarded_fields__", {})
            assert declared, f"{cls.__name__} lost its @guarded_by"
            source = inspect.getsource(cls)
            for field_name, lock_attr in declared.items():
                assert lock_attr in source, (
                    f"{cls.__name__}.{field_name} guarded by missing "
                    f"lock {lock_attr!r}"
                )
