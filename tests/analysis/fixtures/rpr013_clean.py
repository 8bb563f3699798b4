"""RPR013 clean fixture: every guarded access holds the lock."""

import threading

from repro.analysis.runtime_locks import guarded_by


@guarded_by("_lock", "_count", "_items")
class CleanTracker:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0
        self._items = []
        self.unguarded = "free"  # not declared: never checked

    def add(self, item):
        with self._lock:
            self._items.append(item)
            self._count += 1
            drained = list(self._items)
            self._items.clear()
            return drained

    def count(self):
        with self._lock:
            return self._count

    def free(self):
        return self.unguarded
