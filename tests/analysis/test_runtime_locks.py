"""tsan-lite runtime checker: make_lock gating, CheckedLock semantics,
lock-order inversion detection, and guarded-field enforcement.

``tests/conftest.py`` enables ``REPRO_LOCK_CHECKS`` for the whole suite,
so these tests exercise the enabled paths directly; the gating tests
flip the environment variable around individual ``make_lock`` calls
(which read it per call).
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.runtime_locks import (
    LOCK_CHECKS_ENV_VAR,
    CheckedLock,
    LockOrderRegistry,
    default_registry,
    guarded_by,
    holds_lock,
    lock_checks_enabled,
    make_lock,
)
from repro.errors import ConcurrencyViolation, ConfigurationError


@pytest.fixture
def registry() -> LockOrderRegistry:
    """A fresh, isolated registry (never the process-wide one)."""
    return LockOrderRegistry()


class TestMakeLockGating:
    def test_disabled_returns_plain_lock(self, monkeypatch):
        monkeypatch.delenv(LOCK_CHECKS_ENV_VAR, raising=False)
        assert not lock_checks_enabled()
        lock = make_lock("Gated._lock")
        assert not isinstance(lock, CheckedLock)
        with lock:
            pass

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", " TRUE "])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(LOCK_CHECKS_ENV_VAR, value)
        lock = make_lock("Gated._lock")
        assert isinstance(lock, CheckedLock)
        assert lock.name == "Gated._lock"

    @pytest.mark.parametrize("value", ["0", "off", "", "nope"])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(LOCK_CHECKS_ENV_VAR, value)
        assert not isinstance(make_lock("Gated._lock"), CheckedLock)

    def test_suite_runs_with_checks_enabled(self):
        # conftest.py sets this for the whole tier-1 run.
        assert lock_checks_enabled()

    def test_default_registry_is_shared(self):
        lock = make_lock("Shared._lock")
        assert isinstance(lock, CheckedLock)
        assert lock._registry is default_registry()


class TestCheckedLock:
    def test_requires_name(self, registry):
        with pytest.raises(ConfigurationError):
            CheckedLock("", registry)

    def test_context_manager_and_ownership(self, registry):
        lock = CheckedLock("T._lock", registry)
        assert not lock.locked()
        assert not lock.held_by_current_thread()
        with lock:
            assert lock.locked()
            assert lock.held_by_current_thread()
            assert registry.held_names() == ("T._lock",)
        assert not lock.locked()
        assert not lock.held_by_current_thread()
        assert registry.held_names() == ()

    def test_other_thread_does_not_own(self, registry):
        lock = CheckedLock("T._lock", registry)
        seen = {}

        def probe():
            seen["held"] = lock.held_by_current_thread()
            seen["locked"] = lock.locked()

        with lock:
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen == {"held": False, "locked": True}

    def test_condition_waits_and_wakes(self, registry):
        lock = CheckedLock("T._lock", registry)
        condition = threading.Condition(lock)
        ready = []

        def producer():
            with lock:
                ready.append(True)
                condition.notify()

        with lock:
            worker = threading.Thread(target=producer)
            worker.start()
            assert condition.wait_for(lambda: ready, timeout=5.0)
            assert lock.held_by_current_thread()
            assert registry.held_names() == ("T._lock",)
        worker.join()
        assert registry.held_names() == ()

    def test_condition_wait_requires_the_lock(self, registry):
        condition = threading.Condition(CheckedLock("T._lock", registry))
        with pytest.raises(RuntimeError):
            condition.wait(timeout=0.01)

    def test_repr_names_the_rank(self, registry):
        assert "T._lock" in repr(CheckedLock("T._lock", registry))


class TestLockOrderRegistry:
    def test_reacquire_raises_before_deadlock(self, registry):
        lock = CheckedLock("A._lock", registry)
        with lock:
            with pytest.raises(ConcurrencyViolation, match="re-acquired"):
                lock.acquire()

    def test_same_rank_nesting_raises(self, registry):
        first = CheckedLock("Instrument._lock", registry)
        second = CheckedLock("Instrument._lock", registry)
        with first:
            with pytest.raises(ConcurrencyViolation, match="same-rank"):
                second.acquire()

    def test_inversion_detected_single_threaded(self, registry):
        """The classic tsan-lite property: one run, no deadlock, the
        inversion still raises when the reverse edge is on record."""
        a = CheckedLock("A._lock", registry)
        b = CheckedLock("B._lock", registry)
        with a:
            with b:
                pass
        with b:
            with pytest.raises(
                ConcurrencyViolation, match="lock-order inversion"
            ):
                a.acquire()

    def test_consistent_order_is_silent(self, registry):
        a = CheckedLock("A._lock", registry)
        b = CheckedLock("B._lock", registry)
        for _ in range(3):
            with a:
                with b:
                    pass
        assert list(registry.observed_edges()) == [("A._lock", "B._lock")]

    def test_observed_edges_and_reset(self, registry):
        a = CheckedLock("A._lock", registry)
        b = CheckedLock("B._lock", registry)
        with a:
            with b:
                pass
        edges = registry.observed_edges()
        assert list(edges) == [("A._lock", "B._lock")]
        site = edges["A._lock", "B._lock"]
        # _call_site skips frames in *runtime_locks.py -- which matches
        # this test file's name too -- so just check the file:line shape.
        assert ":" in site and site.rsplit(":", 1)[1].isdigit()
        registry.reset()
        assert registry.observed_edges() == {}
        # After reset the reverse order establishes a fresh edge.
        with b:
            with a:
                pass
        assert list(registry.observed_edges()) == [("B._lock", "A._lock")]

    def test_transitive_chain_records_all_edges(self, registry):
        a = CheckedLock("A._lock", registry)
        b = CheckedLock("B._lock", registry)
        c = CheckedLock("C._lock", registry)
        with a:
            with b:
                with c:
                    pass
        assert set(registry.observed_edges()) == {
            ("A._lock", "B._lock"),
            ("A._lock", "C._lock"),
            ("B._lock", "C._lock"),
        }

    def test_suite_wide_dag_has_no_cycles(self):
        """Whatever the rest of the suite has exercised so far must form
        a DAG -- the acceptance criterion for the tsan-lite rollout."""
        edges = default_registry().observed_edges()
        graph: dict = {}
        for held, acquired in edges:
            graph.setdefault(held, set()).add(acquired)

        def reaches(start, goal, seen):
            for nxt in graph.get(start, ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    if reaches(nxt, goal, seen):
                        return True
            return False

        for held, acquired in edges:
            assert not reaches(acquired, held, {acquired}), (
                f"cycle through observed edge {held} -> {acquired}"
            )


class TestGuardedBy:
    def _tracker_cls(self, registry):
        @guarded_by("_lock", "_count")
        class Tracker:
            def __init__(self):
                self._lock = CheckedLock("TrackerFixture._lock", registry)
                self._count = 0

            def bump_unsafely(self):
                self._count += 1

            def bump(self):
                with self._lock:
                    self._count += 1

        return Tracker

    def test_requires_fields(self):
        with pytest.raises(ConfigurationError):
            guarded_by("_lock")

    def test_declaration_is_recorded(self, registry):
        cls = self._tracker_cls(registry)
        assert cls.__guarded_fields__ == {"_count": "_lock"}

    def test_stacked_decorators_merge(self):
        @guarded_by("_read_lock", "_pages")
        @guarded_by("_write_lock", "_dirty")
        class Cache:
            pass

        assert Cache.__guarded_fields__ == {
            "_pages": "_read_lock",
            "_dirty": "_write_lock",
        }

    def test_init_writes_are_exempt(self, registry):
        tracker = self._tracker_cls(registry)()
        assert tracker._count == 0

    def test_unguarded_rebind_raises(self, registry):
        tracker = self._tracker_cls(registry)()
        with pytest.raises(ConcurrencyViolation, match="_count"):
            tracker.bump_unsafely()

    def test_locked_rebind_is_fine(self, registry):
        tracker = self._tracker_cls(registry)()
        tracker.bump()
        tracker.bump()
        assert tracker._count == 2

    def test_unguarded_fields_unaffected(self, registry):
        tracker = self._tracker_cls(registry)()
        tracker.note = "free-form"
        assert tracker.note == "free-form"


class TestHoldsLock:
    def _holder_cls(self, registry):
        class Holder:
            def __init__(self):
                self._lock = CheckedLock("HolderFixture._lock", registry)
                self.items = []

            @holds_lock("_lock")
            def _drain_locked(self):
                drained = list(self.items)
                self.items.clear()
                return drained

            def drain(self):
                with self._lock:
                    return self._drain_locked()

        return Holder

    def test_tag_is_recorded(self, registry):
        cls = self._holder_cls(registry)
        assert cls._drain_locked.__repro_holds_lock__ == "_lock"

    def test_entered_with_lock_held(self, registry):
        holder = self._holder_cls(registry)()
        holder.items.append(1)
        assert holder.drain() == [1]
        assert holder.items == []

    def test_entered_without_lock_raises(self, registry):
        holder = self._holder_cls(registry)()
        with pytest.raises(ConcurrencyViolation, match="_drain_locked"):
            holder._drain_locked()
