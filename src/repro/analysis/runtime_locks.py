"""tsan-lite: the runtime lock-order checker and guard declarations.

Each concurrency property has one checker.  Lock *order* is checked
here, at runtime, because every nested acquisition in the package
crosses classes (a pool lock held while a cache or metric lock is
taken), which a per-file static pass cannot resolve.  Guarded-field
*access* -- reads, rebinds and in-place mutation -- is checked
statically by lint rule RPR013, which reads the :func:`guarded_by`
declarations this module records.

* :func:`make_lock` -- the lock factory every lock-holding module in the
  repository routes through.  Disabled (the default) it returns a plain
  ``threading.Lock``; enabled it returns a :class:`CheckedLock` that
  reports every acquisition to the process-wide
  :class:`LockOrderRegistry`.
* :class:`LockOrderRegistry` -- records the acquisition DAG per lock
  *name* (the lock's rank, e.g. ``"SteeringCache._lock"``): an edge
  ``A -> B`` means some thread acquired B while holding A.  Acquiring in
  an order whose reverse edge is already on record raises
  :class:`~repro.errors.ConcurrencyViolation` *before* the acquisition
  can deadlock -- the classic single-run lock-order checker: the
  inversion is caught even when the interleaving that would deadlock
  never happens.
* :func:`guarded_by` -- the class decorator declaring which fields a
  lock guards.  It records the declaration and changes nothing else.

Like the ``@shaped`` contracts, the checker is **zero-cost when
disabled**: gating happens when the lock is created, driven by the
``REPRO_LOCK_CHECKS`` environment variable.  ``tests/conftest.py``
enables it for the whole suite, so every tier-1 run doubles as a
lock-order audit.

Ranking is by lock *name*, not instance -- two instruments of the same
class share a rank, so cross-instance nesting of same-ranked locks is
reported as an inversion (it is one: two threads nesting opposite
instances deadlock).
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ConcurrencyViolation, ConfigurationError

#: Environment variable gating the runtime lock checks ("1"/"true"/"on").
LOCK_CHECKS_ENV_VAR = "REPRO_LOCK_CHECKS"

_TRUTHY = {"1", "true", "on", "yes"}


def lock_checks_enabled() -> bool:
    """Whether tsan-lite is active (read at lock-creation time)."""
    return (
        os.environ.get(LOCK_CHECKS_ENV_VAR, "").strip().lower() in _TRUTHY
    )


def _call_site() -> str:
    """``file:line`` of the nearest caller outside this module."""
    for frame in reversed(traceback.extract_stack(limit=12)):
        if not frame.filename.endswith("runtime_locks.py"):
            return f"{frame.filename}:{frame.lineno}"
    return "<unknown>"


class LockOrderRegistry:
    """Process-wide observed lock-acquisition DAG, keyed by lock name.

    Thread-safety: the edge table is guarded by an internal plain
    ``threading.Lock`` (never a :class:`CheckedLock` -- the checker must
    not check itself); each thread's held-lock stack is thread-local.
    """

    def __init__(self) -> None:
        # (held name, acquired name) -> site string of first observation.
        self._edges: Dict[Tuple[str, str], str] = {}
        self._held = threading.local()
        self._guard = threading.Lock()

    def _stack(self) -> List[Tuple[str, "CheckedLock"]]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def held_names(self) -> Tuple[str, ...]:
        """Names of locks the calling thread currently holds, in
        acquisition order."""
        return tuple(name for name, _ in self._stack())

    def observed_edges(self) -> Dict[Tuple[str, str], str]:
        """Copy of the observed DAG: ``(held, acquired) -> first site``."""
        with self._guard:
            return dict(self._edges)

    def reset(self) -> None:
        """Forget every observed edge (held stacks are per-thread and
        drain naturally)."""
        with self._guard:
            self._edges.clear()

    # ------------------------------------------------------------ hooks

    def note_acquire(self, lock: "CheckedLock") -> None:
        """Pre-acquisition check: runs *before* blocking on the lock.

        Raises:
            ConcurrencyViolation: re-acquiring a held non-reentrant lock
                (certain deadlock), nesting two locks of the same rank,
                or acquiring against an order already observed reversed.
        """
        stack = self._stack()
        site = _call_site()
        for held_name, held_lock in stack:
            if held_lock is lock:
                raise ConcurrencyViolation(
                    f"lock {lock.name!r} re-acquired by the thread that "
                    f"already holds it at {site} -- threading.Lock is "
                    f"not reentrant; this deadlocks"
                )
            if held_name == lock.name:
                raise ConcurrencyViolation(
                    f"two locks of rank {lock.name!r} nested at {site} "
                    f"-- same-rank nesting deadlocks when two threads "
                    f"take the instances in opposite order"
                )
        with self._guard:
            for held_name, _ in stack:
                reverse = self._edges.get((lock.name, held_name))
                if reverse is not None:
                    chain = " -> ".join(
                        [*(n for n, _ in stack), lock.name]
                    )
                    raise ConcurrencyViolation(
                        f"lock-order inversion: acquiring {lock.name!r} "
                        f"while holding {held_name!r} at {site}, but the "
                        f"opposite order {lock.name!r} -> {held_name!r} "
                        f"was observed at {reverse} (held chain: {chain})"
                    )
            for held_name, _ in stack:
                self._edges.setdefault((held_name, lock.name), site)

    def note_acquired(self, lock: "CheckedLock") -> None:
        """Record a successful acquisition on the thread's held stack."""
        self._stack().append((lock.name, lock))

    def note_release(self, lock: "CheckedLock") -> None:
        """Drop the lock from the thread's held stack (by identity)."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][1] is lock:
                del stack[index]
                return


_DEFAULT_REGISTRY = LockOrderRegistry()


def default_registry() -> LockOrderRegistry:
    """The process-wide registry every :func:`make_lock` lock reports to."""
    return _DEFAULT_REGISTRY


class CheckedLock:
    """A named, order-checked, owner-tracking ``threading.Lock`` stand-in.

    Drop-in for the ``with self._lock:`` discipline used across the
    repository.  Every acquisition is checked against the registry's
    observed DAG first (see :meth:`LockOrderRegistry.note_acquire`), so
    an inversion raises instead of (maybe, someday) deadlocking.

    Attributes:
        name: the lock's rank in the acquisition DAG.
    """

    __slots__ = ("name", "_inner", "_registry", "_owner")

    def __init__(
        self, name: str, registry: Optional[LockOrderRegistry] = None
    ):
        if not name:
            raise ConfigurationError("a CheckedLock needs a non-empty name")
        self.name = name
        self._inner = threading.Lock()
        self._registry = registry if registry is not None else _DEFAULT_REGISTRY
        self._owner: Optional[int] = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire after the order check; mirrors ``Lock.acquire``."""
        self._registry.note_acquire(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            self._registry.note_acquired(self)
        return acquired

    def release(self) -> None:
        """Release and clear ownership; mirrors ``Lock.release``."""
        self._owner = None
        self._registry.note_release(self)
        self._inner.release()

    def locked(self) -> bool:
        """Whether any thread holds the lock."""
        return self._inner.locked()

    def held_by_current_thread(self) -> bool:
        """Whether the *calling* thread holds the lock."""
        return self._owner == threading.get_ident()

    def _is_owned(self) -> bool:
        """``threading.Condition`` hook: whether the caller holds the lock.

        Without it a ``Condition`` over a CheckedLock probes ownership
        with a non-blocking re-acquire, which the order check rejects.
        """
        return self.held_by_current_thread()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self.locked() else "unlocked"
        return f"<CheckedLock {self.name!r} {state}>"


#: What lock-holding modules annotate their lock attributes as.
LockLike = Union[threading.Lock, CheckedLock]


def make_lock(name: str) -> LockLike:
    """The repository's lock factory.

    Returns a plain ``threading.Lock`` when the checks are disabled (the
    production default: zero overhead, zero behaviour change) and a
    :class:`CheckedLock` ranked ``name`` when ``REPRO_LOCK_CHECKS`` is
    truthy.  The environment is read per call, so objects constructed
    inside an enabled test run are checked even though their module was
    imported earlier.
    """
    if lock_checks_enabled():
        return CheckedLock(name)
    return threading.Lock()


# ---------------------------------------------------------------------------
# Guard declarations
# ---------------------------------------------------------------------------


def guarded_by(lock_attr: str, *fields: str) -> Callable[[type], type]:
    """Class decorator declaring fields guarded by a lock attribute.

    ``@guarded_by("_lock", "_entries", "hits")`` declares that
    ``_entries`` and ``hits`` may only be accessed while ``self._lock`` is held.  The
    declaration is recorded on the class as ``__guarded_fields__``
    (``field -> lock attribute``) and checked statically by lint rule
    RPR013; the class itself is returned unchanged.  Decorators stack: a
    class may declare different fields under different locks.
    """
    if not fields:
        raise ConfigurationError(
            "@guarded_by needs at least one field name after the lock"
        )

    def decorate(cls: type) -> type:
        declared = dict(getattr(cls, "__guarded_fields__", {}))
        for field_name in fields:
            declared[field_name] = lock_attr
        cls.__guarded_fields__ = declared  # type: ignore[attr-defined]
        return cls

    return decorate
