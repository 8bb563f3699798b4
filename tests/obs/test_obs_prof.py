"""Tests for repro.obs.prof: sampling, report shape, exports."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import export_folded, folded_stacks
from repro.obs.prof import IDLE_STACK, ProfileReport, SamplingProfiler
from repro.obs.trace import Tracer


class FakeClock:
    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def sampled(tracer, samples):
    """Drive ``sample_once`` by hand ``samples`` times; return report."""
    profiler = SamplingProfiler(tracer, interval_s=0.01, clock=FakeClock())
    for _ in range(samples):
        profiler.sample_once()
    return profiler.report


class TestSampling:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            SamplingProfiler(Tracer(), interval_s=0.0)

    def test_idle_ticks_count_against_idle_stack(self):
        report = sampled(Tracer(), samples=3)
        assert report.ticks == 3
        assert report.samples_idle == 3
        assert report.samples_total == 0

    def test_samples_attribute_to_open_stack(self):
        tracer = Tracer(clock=FakeClock())
        profiler = SamplingProfiler(
            tracer, interval_s=0.01, clock=FakeClock()
        )
        with tracer.span("outer"):
            with tracer.span("inner"):
                profiler.sample_once()
                profiler.sample_once()
            profiler.sample_once()
        report = profiler.report
        assert report.stacks[("outer", "inner")] == 2
        assert report.stacks[("outer",)] == 1
        assert report.samples_total == 3
        assert report.samples_idle == 0

    def test_samples_cover_every_thread(self):
        tracer = Tracer()
        profiler = SamplingProfiler(
            tracer, interval_s=0.01, clock=FakeClock()
        )
        inside = threading.Event()
        release = threading.Event()

        def worker():
            with tracer.span("worker-span"):
                inside.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert inside.wait(timeout=5.0)
            with tracer.span("main-span"):
                profiler.sample_once()
        finally:
            release.set()
            thread.join(timeout=5.0)
        stacks = profiler.report.stacks
        assert stacks[("worker-span",)] == 1
        assert stacks[("main-span",)] == 1
        # One tick, two threads: two samples, both non-idle.
        assert profiler.report.ticks == 1
        assert profiler.report.samples_total == 2

    def test_background_thread_start_stop(self):
        tracer = Tracer()
        profiler = SamplingProfiler(tracer, interval_s=0.001)
        with tracer.span("busy"):
            with profiler:
                # Wait until the sampler demonstrably ran.
                for _ in range(1000):
                    if profiler.report.ticks >= 3:
                        break
                    threading.Event().wait(0.002)
        report = profiler.stop()  # idempotent second stop
        assert report.ticks >= 3
        assert ("busy",) in report.stacks
        assert report.duration_s >= 0.0

    def test_double_start_rejected(self):
        profiler = SamplingProfiler(Tracer(), interval_s=0.001)
        profiler.start()
        try:
            with pytest.raises(ConfigurationError):
                profiler.start()
        finally:
            profiler.stop()


class TestReport:
    def test_snapshot_shape_and_ranking(self):
        tracer = Tracer(clock=FakeClock())
        profiler = SamplingProfiler(
            tracer, interval_s=0.01, clock=FakeClock()
        )
        with tracer.span("a"):
            profiler.sample_once()
            with tracer.span("b"):
                profiler.sample_once()
                profiler.sample_once()
        snap = profiler.report.snapshot(top=1)
        assert snap["interval_s"] == pytest.approx(0.01)
        assert snap["ticks"] == 3
        assert snap["samples"] == 3
        assert snap["idle"] == 0
        assert snap["top_stacks"] == [{"stack": "a;b", "count": 2}]
        # The snapshot is ledger-bound: strict JSON must accept it.
        json.dumps(snap, allow_nan=False)

    def test_sample_cost_accumulates(self):
        report = sampled(Tracer(), samples=2)
        assert report.sample_cost_s > 0.0


class TestExports:
    def _report(self):
        tracer = Tracer(clock=FakeClock())
        profiler = SamplingProfiler(
            tracer, interval_s=0.01, clock=FakeClock()
        )
        with tracer.span("root"):
            with tracer.span("leaf"):
                profiler.sample_once()
                profiler.sample_once()
            profiler.sample_once()
        profiler.sample_once()  # idle tick after the spans closed
        return profiler.report

    def test_folded_stacks_format(self):
        lines = folded_stacks(self._report()).splitlines()
        assert lines[0] == "root;leaf 2"
        assert "root 1" in lines
        assert f"{IDLE_STACK[0]} 1" in lines

    def test_export_folded_roundtrip(self, tmp_path):
        path = tmp_path / "out.folded"
        export_folded(path, self._report())
        text = path.read_text(encoding="utf-8")
        counts = {}
        for line in text.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            counts[stack] = int(count)
        assert counts["root;leaf"] == 2
