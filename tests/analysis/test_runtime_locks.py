"""tsan-lite runtime checker: make_lock gating, CheckedLock semantics,
lock-order inversion detection, the package's observed lock graph, and
the declaration-only ``@guarded_by``.

``tests/conftest.py`` enables ``REPRO_LOCK_CHECKS`` for the whole suite,
so these tests exercise the enabled paths directly; the gating tests
flip the environment variable around individual ``make_lock`` calls
(which read it per call).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis import runtime_locks
from repro.analysis.runtime_locks import (
    LOCK_CHECKS_ENV_VAR,
    CheckedLock,
    LockOrderRegistry,
    default_registry,
    guarded_by,
    lock_checks_enabled,
    make_lock,
)
from repro.core import BlocConfig, BlocLocalizer
from repro.errors import ConcurrencyViolation, ConfigurationError
from repro.obs import observed
from repro.service import (
    LocalizationService,
    LocalizerPool,
    ServiceConfig,
    encode_observations,
)
from repro.sim import ChannelMeasurementModel, evaluate
from repro.sim.dataset import build_dataset
from repro.sim.interference import inject_band_outage
from repro.utils.geometry2d import Point

#: Every nested acquisition the package makes, as (held, acquired)
#: lock ranks.  Each one crosses classes: a pool, cache or telemetry
#: lock held while a cache, metric or span lock is taken.
KNOWN_EDGES = {
    ("LocalizerPool._lock", "SteeringCache._lock"),
    ("LocalizerPool._lock", "LruCache._lock"),
    ("LocalizerPool._lock", "Counter._lock"),
    ("LocalizerPool._lock", "Gauge._lock"),
    ("LocalizerPool._lock", "Histogram._lock"),
    ("LocalizerPool._lock", "MetricsRegistry._lock"),
    ("LocalizerPool._lock", "Tracer._lock"),
    ("SteeringCache._lock", "Counter._lock"),
    ("SteeringCache._lock", "Histogram._lock"),
    ("SteeringCache._lock", "MetricsRegistry._lock"),
    ("AccuracyTelemetry._lock", "Counter._lock"),
    ("AccuracyTelemetry._lock", "Gauge._lock"),
    ("AccuracyTelemetry._lock", "MetricsRegistry._lock"),
}

#: Metric and span instrument locks.  Nothing is acquired under them,
#: which is what makes an inversion through them impossible.
INSTRUMENT_LOCKS = {
    "Counter._lock",
    "Gauge._lock",
    "Histogram._lock",
    "MetricsRegistry._lock",
    "Tracer._lock",
}

#: Bands knocked out at anchor 1 so the health monitor fires an event.
OUTAGE_BANDS = [0, 3, 4, 5, 9, 10, 11, 12, 20, 21, 30, 31]


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


def _has_cycle(edges) -> bool:
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

    return any(reaches(acquired, held, {acquired}) for held, acquired in edges)


class TestObservedLockGraph:
    """The order check only sees acquisitions that run, so this drives
    every lock-nesting path of the package under a fresh registry:
    pool build, concurrent locate requests, telemetry with an anomaly,
    and an evaluation sweep."""

    @pytest.fixture
    def fresh_registry(self, monkeypatch) -> LockOrderRegistry:
        monkeypatch.setenv(LOCK_CHECKS_ENV_VAR, "1")
        registry = LockOrderRegistry()
        monkeypatch.setattr(runtime_locks, "_DEFAULT_REGISTRY", registry)
        return registry

    def test_acyclic_with_instrument_leaves(
        self, fresh_registry, testbed, observations
    ):
        body = json.dumps(
            {
                "scenario": "vicon",
                "observations": encode_observations(observations),
            }
        ).encode("utf-8")
        with observed():
            pool = LocalizerPool(grid_resolution_m=0.35)
            pool.prewarm()
            pool.get("vicon")
            service = LocalizationService(
                pool=pool,
                config=ServiceConfig(rate_per_s=10_000.0, burst=10_000),
            )
            statuses = []
            clients = [
                threading.Thread(
                    target=lambda: statuses.append(
                        service.handle_locate(body)[0]
                    )
                )
                for _ in range(2)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            model = ChannelMeasurementModel(testbed=testbed, seed=17)
            for k in range(6):
                tag = Point(0.2 * k - 1.0, 0.1 * k)
                fix = model.measure(tag)
                if k >= 3:
                    fix = inject_band_outage(fix, 1, OUTAGE_BANDS)
                service.telemetry.record_fix(fix, tag)
            evaluate(
                BlocLocalizer(config=BlocConfig(grid_resolution_m=0.35)),
                build_dataset(testbed, num_positions=4, seed=5),
            )
            service.close()
        assert statuses == [200, 200]
        assert service.telemetry.info()["anomalies_total"] >= 1

        edges = set(fresh_registry.observed_edges())
        assert KNOWN_EDGES <= edges, sorted(KNOWN_EDGES - edges)
        assert not _has_cycle(edges), sorted(edges)
        leaving = sorted(e for e in edges if e[0] in INSTRUMENT_LOCKS)
        assert leaving == [], f"lock taken under an instrument: {leaving}"


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

    def test_declaration_adds_no_runtime_check(self, registry):
        """Guarded access is RPR013's job: the decorated class is the
        class as written, so an unlocked rebind runs."""
        cls = self._tracker_cls(registry)
        assert "__setattr__" not in vars(cls)
        tracker = cls()
        tracker.bump_unsafely()
        assert tracker._count == 1

    def test_locked_rebind_is_fine(self, registry):
        tracker = self._tracker_cls(registry)()
        tracker.bump()
        tracker.bump()
        assert tracker._count == 2

    def test_unguarded_fields_unaffected(self, registry):
        tracker = self._tracker_cls(registry)()
        tracker.note = "free-form"
        assert tracker.note == "free-form"
