"""Sampling wall-clock profiler attributing time to open obs spans.

Span timings say how long each stage took; they cannot say where the
wall time of a whole run *went* when stages interleave across
threads.  The :class:`SamplingProfiler` answers that: a background
daemon thread wakes every ``interval_s``, snapshots every thread's
open-span stack via :meth:`repro.obs.trace.Tracer.active_stacks`, and
counts one sample against each stack path (root ``;`` ... ``;``
innermost).  The result exports as folded stacks
(:func:`repro.obs.export.export_folded`), the one profile artifact:
``flamegraph.pl`` and web viewers that import collapsed stacks read it
directly.

Cost model: a tick copies one small list per thread with an open span
-- O(threads x depth) python-level work, a few microseconds -- so at
the default 5 ms interval the profiler's own budget is well under 1% of
wall time; the perf benchmark records the measured overhead in
``BENCH_localize.json`` (``profiler.overhead_frac``) and the SLO spec
bounds it at 5%.  When no profiler is constructed, nothing runs: the
tracer's registry upkeep is one dict write per thread lifetime, so the
feature is zero-cost off.  The CLI and benchmarks only construct one
when ``--profile`` / ``REPRO_BENCH_PROFILE`` ask for it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.analysis.runtime_locks import make_lock
from repro.errors import ConfigurationError
from repro.obs.trace import Tracer

#: Stack key used for ticks during which no thread had an open span.
IDLE_STACK: Tuple[str, ...] = ("(no active span)",)


@dataclass
class ProfileReport:
    """Aggregated samples of one profiling session.

    Attributes:
        interval_s: nominal seconds between samples.
        ticks: number of sampling passes taken.
        stacks: sample count per span-stack path (root first).  Ticks
            with no open span on any thread count against
            :data:`IDLE_STACK`.
        sample_cost_s: wall-clock the sampler spent inside its own
            sampling passes (the profiler's self-time; its overhead
            bound is this divided by the observed duration).
        started_s / stopped_s: clock readings bracketing the session
            (``stopped_s`` is NaN while still running).
    """

    interval_s: float
    ticks: int = 0
    stacks: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    sample_cost_s: float = 0.0
    started_s: float = float("nan")
    stopped_s: float = float("nan")

    @property
    def duration_s(self) -> float:
        """Observed session length [s] (NaN while running)."""
        return self.stopped_s - self.started_s

    @property
    def samples_total(self) -> int:
        """Samples attributed to real span stacks (idle excluded)."""
        return sum(
            count
            for stack, count in self.stacks.items()
            if stack != IDLE_STACK
        )

    @property
    def samples_idle(self) -> int:
        """Ticks that found no open span anywhere."""
        return self.stacks.get(IDLE_STACK, 0)

    def snapshot(self, top: int = 10) -> dict:
        """Plain-data view for the run ledger (top stacks only)."""
        ranked = sorted(
            self.stacks.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return {
            "interval_s": self.interval_s,
            "ticks": self.ticks,
            "samples": self.samples_total,
            "idle": self.samples_idle,
            "sample_cost_s": self.sample_cost_s,
            "top_stacks": [
                {"stack": ";".join(stack), "count": count}
                for stack, count in ranked[:top]
            ],
        }


class SamplingProfiler:
    """Background wall-clock sampler over a tracer's open spans.

    Usage::

        with observed() as obs, SamplingProfiler(obs.tracer) as profiler:
            run = evaluate(localizer, dataset)
        export_folded("run.folded", profiler.report)

    The sampling thread is a daemon: a crashed run never hangs on it.
    ``clock`` and ``sleep`` are injectable so tests can drive
    :meth:`sample_once` deterministically without a real thread.
    """

    def __init__(
        self,
        tracer: Tracer,
        interval_s: float = 0.005,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if interval_s <= 0:
            raise ConfigurationError(
                f"profiler interval must be > 0, got {interval_s}"
            )
        self.tracer = tracer
        self.report = ProfileReport(interval_s=float(interval_s))
        self.clock = clock
        self._sleep = sleep
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = make_lock("SamplingProfiler._lock")

    def sample_once(self) -> None:
        """Take one sampling pass over every thread's open spans.

        Thread-safe: the pass reads the tracer's stack registry through
        :meth:`Tracer.active_stacks` (lock-protected snapshot) and
        mutates only this profiler's report under the profiler lock, so
        it may run concurrently with traced threads opening/closing
        spans and with a caller polling :attr:`report`.
        """
        tick_start = self.clock()
        stacks = self.tracer.active_stacks()
        keys: List[Tuple[str, ...]] = [
            tuple(span.name for span in stack)
            for stack in stacks.values()
        ] or [IDLE_STACK]
        with self._lock:
            self.report.ticks += 1
            for key in keys:
                self.report.stacks[key] = (
                    self.report.stacks.get(key, 0) + 1
                )
            self.report.sample_cost_s += self.clock() - tick_start

    def _run(self) -> None:
        wait = self._sleep or self._stop.wait
        while not self._stop.is_set():
            self.sample_once()
            wait(self.report.interval_s)

    def start(self) -> "SamplingProfiler":
        """Start the sampling thread; returns self for chaining."""
        if self._thread is not None:
            raise ConfigurationError("profiler already started")
        self.report.started_s = self.clock()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> ProfileReport:
        """Stop sampling and return the report.

        Thread-safe and idempotent: signalling the stop event is atomic,
        the join waits out any in-flight :meth:`sample_once`, and a
        second stop() simply returns the already-final report.
        """
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            if math.isnan(self.report.stopped_s):
                self.report.stopped_s = self.clock()
        return self.report

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.stop()
        return False
