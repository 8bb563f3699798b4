"""RPR013 fixture: guarded fields accessed without their lock."""

import threading

from repro.analysis.runtime_locks import guarded_by


@guarded_by("_lock", "_count", "_items")
class Tracker:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0  # __init__ is exempt
        self._items = []

    def safe_add(self, item):
        with self._lock:
            self._items.append(item)
            self._count += 1

    def unsafe_read(self):
        return self._count

    def unsafe_write(self, item):
        self._items.append(item)

    def waived(self):
        return self._count  # repro: noqa[RPR013] -- fixture


@guarded_by("_stats_lock", "_stats")
@guarded_by("_lock", "_total")
class Split:
    def __init__(self):
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._total = 0
        self._stats = {}

    def wrong_lock(self, key):
        with self._lock:
            self._stats[key] = self._total

    def unsafe_rebind(self):
        self._total = 0
