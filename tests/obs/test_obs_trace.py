"""Tests for repro.obs.trace: span nesting, ordering, exceptions."""

from __future__ import annotations

import threading

import pytest

from repro.obs.trace import Tracer


class FakeClock:
    """Deterministic clock advancing a fixed step per reading."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestNesting:
    def test_parent_child_linkage(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == 1
            assert outer.depth == 0
        assert outer.parent_id is None

    def test_finished_in_completion_order(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        names = [s.name for s in tracer.finished()]
        assert names == ["c", "b", "a"]

    def test_siblings_share_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            with tracer.span("s1") as s1:
                pass
            with tracer.span("s2") as s2:
                pass
        assert s1.parent_id == root.span_id
        assert s2.parent_id == root.span_id
        assert s2.span_id > s1.span_id

    def test_active_tracks_innermost(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.active_stacks() == {}
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                (stack,) = tracer.active_stacks().values()
                assert stack == [outer, inner]
        assert tracer.active_stacks() == {}


class TestDurationsAndStatus:
    def test_durations_from_clock(self):
        tracer = Tracer(clock=FakeClock(step=0.5))
        with tracer.span("timed") as span:
            pass
        assert span.duration_s == pytest.approx(0.5)

    def test_exception_marks_status_and_unwinds_stack(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        spans = {s.name: s for s in tracer.finished()}
        assert spans["inner"].status == "error:ValueError"
        assert spans["outer"].status == "error:ValueError"
        assert tracer.active_stacks() == {}  # stack fully unwound

    def test_sibling_after_exception_reparents_correctly(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            with pytest.raises(RuntimeError):
                with tracer.span("failing"):
                    raise RuntimeError
            with tracer.span("recovered") as recovered:
                pass
        assert recovered.parent_id == root.span_id
        assert recovered.status == "ok"

    def test_attributes_recorded(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("fix", index=3) as span:
            span.set(label="bloc")
        finished = tracer.finished()[0]
        assert finished.attributes == {"index": 3, "label": "bloc"}


class TestThreads:
    def test_stacks_are_thread_local(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span(name) as span:
                seen[name] = span.parent_id

        with tracer.span("main-root"):
            threads = [
                threading.Thread(target=worker, args=(f"w{i}",))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Worker spans must be roots: the main thread's open span is not
        # their parent.
        assert all(parent is None for parent in seen.values())
        assert len(tracer.finished()) == 5

    def test_reset_clears_finished(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("x"):
            pass
        assert len(tracer) == 1
        tracer.reset()
        assert tracer.finished() == []


class TestActiveStacks:
    def test_empty_when_no_open_spans(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("done"):
            pass
        assert tracer.active_stacks() == {}

    def test_snapshot_is_outermost_first(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                (stack,) = tracer.active_stacks().values()
        assert [s.name for s in stack] == ["outer", "inner"]

    def test_keys_include_thread_name_and_ident(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("open"):
            (key,) = tracer.active_stacks().keys()
        name, _, ident = key.rpartition("#")
        assert name == threading.current_thread().name
        assert int(ident) == threading.get_ident()

    def test_covers_concurrent_threads(self):
        tracer = Tracer()
        inside = threading.Event()
        release = threading.Event()

        def worker():
            with tracer.span("worker-open"):
                inside.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=worker, name="stack-worker")
        thread.start()
        try:
            assert inside.wait(timeout=5.0)
            with tracer.span("main-open"):
                stacks = tracer.active_stacks()
        finally:
            release.set()
            thread.join(timeout=5.0)
        names = {
            tuple(s.name for s in stack) for stack in stacks.values()
        }
        assert ("worker-open",) in names
        assert ("main-open",) in names

    def test_snapshot_unaffected_by_later_pops(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                (stack,) = tracer.active_stacks().values()
        # The snapshot is a copy: closing the spans does not mutate it.
        assert [s.name for s in stack] == ["outer", "inner"]
