"""A small in-memory span recorder and the wrappers that feed it.

The traced run measures each layer from outside: it replaces a layer's
public function (or method) with a wrapper that opens a span, calls the
original and closes the span.  Spans stay in memory and are written out
when the run ends.  Nothing here imports the program under test up
front, so a deleted or renamed target is reported as absent (and its
layer as 0 calls) instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    """One timed call into a layer.

    Attributes:
        id: unique within the recorder (1, 2, ...).
        name: the span name, e.g. ``"correction.correct"``.
        start / end: ``time.perf_counter()`` readings.
        parent: id of the enclosing span on the same thread (0: root).
        key: fix or request identity; children inherit it through
            :meth:`SpanIndex.key_of`.
        attrs: per-call facts recorded by the target's observer.
    """

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int = 0
    key: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


class Recorder:
    """Collects finished spans; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key: Optional[str] = None) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            id=span_id,
            name=name,
            start=time.perf_counter(),
            parent=stack[-1].id if stack else 0,
            key=key,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)


# ---------------------------------------------------------------- analysis


class SpanIndex:
    """Finished spans indexed by id, with self time and key lookup."""

    def __init__(self, spans: List[Span]):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, *names: str) -> List[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def child_time(self, span: Span) -> float:
        """Wall time of ``span`` covered by its direct children."""
        intervals = sorted(
            (c.start, c.end) for c in self.children.get(span.id, ())
        )
        covered, edge = 0.0, span.start
        for start, end in intervals:
            start, end = max(start, edge), min(end, span.end)
            if end > start:
                covered += end - start
                edge = end
        return covered

    def self_time(self, span: Span) -> float:
        """Span duration minus the part its children cover."""
        return span.duration - self.child_time(span)

    def key_of(self, span: Span) -> Optional[str]:
        """The span's key, or its nearest keyed ancestor's."""
        node: Optional[Span] = span
        while node is not None:
            if node.key is not None:
                return node.key
            node = self.by_id.get(node.parent)
        return None

    def ancestor(self, span: Span, *names: str) -> Optional[Span]:
        """Nearest enclosing span named one of ``names``."""
        node = self.by_id.get(span.parent)
        while node is not None:
            if node.name in names:
                return node
            node = self.by_id.get(node.parent)
        return None


# ---------------------------------------------------------------- wrapping

#: ``observe(span, args, kwargs, result, before)`` records per-call facts.
Observer = Callable[[Span, tuple, dict, Any, Any], None]


@dataclass(frozen=True)
class Target:
    """One public function or method to wrap.

    Attributes:
        module: dotted module that defines it.
        qualname: ``"function"`` or ``"Class.method"``.
        span: span name the wrapper records.
        before: optional ``before(args, kwargs)``, run ahead of the call;
            its value reaches ``observe`` (e.g. counters before a lookup).
        observe: optional observer run after a normal return.
        key: optional ``key(args, kwargs, result)`` naming the fix or
            request the span belongs to.
    """

    module: str
    qualname: str
    span: str
    before: Optional[Callable[[tuple, dict], Any]] = None
    observe: Optional[Observer] = None
    key: Optional[Callable[[tuple, dict, Any], Optional[str]]] = None


class Tracer:
    """Installs and removes wrappers around :class:`Target` objects.

    A function is patched in its defining module *and* in every loaded
    module of the package that imported it by name, because a caller
    resolves such a name in its own namespace.  A method is patched on
    its class.  ``status`` maps each target to ``"wrapped"`` or
    ``"absent"``.
    """

    def __init__(self, recorder: Recorder, package: str = "repro"):
        self.recorder = recorder
        self.package = package
        self.status: Dict[str, str] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self, targets: List[Target]) -> Dict[str, str]:
        for target in targets:
            label = f"{target.module}.{target.qualname}"
            wrapped = self._install_one(target)
            self.status[label] = "wrapped" if wrapped else "absent"
        return dict(self.status)

    def _install_one(self, target: Target) -> bool:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return False
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            if not callable(original):
                return False
            self._patch(owner, attr, self._wrap(original, target))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(original, target)
        prefix = self.package + "."
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                name == self.package or name.startswith(prefix)
            ):
                continue
            for alias, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, alias, wrapper)
        return True

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, original: Callable, target: Target) -> Callable:
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = target.before(args, kwargs) if target.before else None
            span = recorder.open(target.span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                recorder.close(span)
            if target.observe is not None:
                target.observe(span, args, kwargs, result, before)
            if target.key is not None:
                span.key = target.key(args, kwargs, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        """Restore every patched name, last patch first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
