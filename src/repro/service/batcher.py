"""Micro-batching: coalesce concurrent locate requests into one batch.

The batched Eq. 17 kernel serves a whole batch of one scenario's fixes
in one call (a column per fix), amortising the per-call orchestration
of the pipeline.  Under concurrent load, requests that arrive within a
few milliseconds of each other can therefore share one
``locate_batch`` call.

Mechanics: callers submit observations and block on a per-request
future; a background worker takes every queued request (up to
``max_batch``), runs the provider chain's ``locate_batch`` once, and
resolves each future with its own entry.  The worker only waits for
requests it *knows* are coming: a caller that has passed admission
announces itself (:meth:`~MicroBatcher.announce`) before decoding its
body, then either submits -- which consumes the announcement in the
same locked step as the enqueue -- or withdraws
(:meth:`~MicroBatcher.withdraw`).  While announced requests are
outstanding the worker holds the batch open, for at most ``max_wait_s``
(default 5 ms) from taking its first request; with none outstanding it
runs at once.  ``max_wait_s`` is therefore an upper bound on the
coalescing delay, not a fixed sleep: a lone request under no load is
served without waiting.  Failures stay per-future because the chain
returns per-fix errors rather than raising.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple, Union

from repro.analysis.runtime_locks import guarded_by, make_lock
from repro.core.observations import ChannelObservations
from repro.errors import LocalizationError, ReproError
from repro.obs import get_observer
from repro.obs.trace import TraceContext
from repro.service.providers import LocateDecision

#: Batch callable: observations in, parallel decisions/errors out.
BatchFn = Callable[
    [Sequence[ChannelObservations]],
    List[Union[LocateDecision, LocalizationError]],
]

#: One queued request: observations, its future, its trace context.
_Item = Tuple[
    ChannelObservations, "Future[BatchedOutcome]", Optional[TraceContext]
]


@dataclass(frozen=True)
class BatchedOutcome:
    """What one caller gets back: its decision plus the batch context.

    Attributes:
        decision: the provider chain's per-fix outcome (decision or
            contained :class:`LocalizationError`).
        batch_size: how many requests shared the ``locate_batch`` call.
        batch_trace_id: trace id of the shared batch span (``""`` when
            tracing was disabled).  The batch runs on its *own* trace --
            it belongs to several requests at once -- and each member
            trace links to it through this id (and back, through the
            batch span's ``member_trace_ids`` attribute), which is how
            ``repro obs trace`` grafts the batch subtree into a
            member's tree.
        batch_span_id: span id of the shared batch span (0 when tracing
            was disabled).
    """

    decision: Union[LocateDecision, LocalizationError]
    batch_size: int
    batch_trace_id: str = ""
    batch_span_id: int = 0


@guarded_by("_lock", "_queue", "_announced", "_closed")
class MicroBatcher:
    """One scenario's request coalescer.

    Thread-safety: ``announce``/``withdraw``/``submit`` may be called
    from any number of server threads; the queue, the count of announced
    requests and the closed flag share one lock, whose condition wakes
    the single worker thread.  Batch statistics are written by the
    worker only.
    """

    def __init__(
        self,
        batch_fn: BatchFn,
        max_batch: int = 8,
        max_wait_s: float = 0.005,
        name: str = "batcher",
    ):
        if max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ReproError(
                f"max_wait_s must be >= 0, got {max_wait_s}"
            )
        self.batch_fn = batch_fn
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.batches_total = 0
        self.requests_total = 0
        self.largest_batch = 0
        self._lock = make_lock("MicroBatcher._lock")
        self._wakeup = threading.Condition(self._lock)
        self._queue: Deque[_Item] = deque()
        self._announced = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name=f"{name}-worker", daemon=True
        )
        self._worker.start()

    def announce(self) -> None:
        """Tell the worker one more request is on its way to ``submit``.

        A caller that announces must later either ``submit(...,
        announced=True)`` or :meth:`withdraw`; until then the worker
        may hold a batch open for it (at most ``max_wait_s``).
        """
        with self._lock:
            self._announced += 1

    def withdraw(self) -> None:
        """Cancel one announcement (the request failed before submit)."""
        with self._lock:
            self._announced = max(0, self._announced - 1)
            self._wakeup.notify()

    def submit(
        self,
        observations: ChannelObservations,
        context: Optional[TraceContext] = None,
        announced: bool = False,
    ) -> "Future[BatchedOutcome]":
        """Enqueue one request; the future resolves with its outcome.

        ``context`` carries the submitting request's trace identity: the
        shared batch span records every member's trace id
        (``member_trace_ids``), so the batch subtree is reachable from
        each member's trace reconstruction.  ``announced`` consumes the
        caller's earlier :meth:`announce` in the same locked step as the
        enqueue, so the worker never sees the request as neither
        announced nor queued.

        Raises:
            ReproError: when the batcher is already closed.
        """
        future: "Future[BatchedOutcome]" = Future()
        with self._lock:
            if announced:
                self._announced = max(0, self._announced - 1)
            if self._closed:
                raise ReproError("batcher is closed")
            self._queue.append((observations, future, context))
            self._wakeup.notify()
        return future

    def locate(
        self,
        observations: ChannelObservations,
        context: Optional[TraceContext] = None,
        announced: bool = False,
    ) -> BatchedOutcome:
        """Submit and block until the outcome is ready."""
        return self.submit(observations, context, announced).result()

    def _gather(self) -> Optional[List[_Item]]:
        """Collect one batch; None means closed with nothing queued.

        Blocks until a request is queued, then keeps the batch open --
        for at most ``max_wait_s`` from that moment -- only while it is
        short of ``max_batch`` and announced requests have yet to
        arrive.
        """
        with self._lock:
            while not self._queue:
                if self._closed:
                    return None
                self._wakeup.wait()
            deadline = time.perf_counter() + self.max_wait_s
            while (
                len(self._queue) < self.max_batch
                and self._announced > 0
                and not self._closed
            ):
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._wakeup.wait(remaining)
            size = min(len(self._queue), self.max_batch)
            return [self._queue.popleft() for _ in range(size)]

    def _run(self) -> None:
        """Worker loop: gather -> one locate_batch -> resolve futures.

        Each batch runs inside a ``service.batch`` span on a trace of
        its own (a batch belongs to every member at once, so it cannot
        live on any single member's trace); the span carries the member
        trace ids as a link, and every resolved outcome carries the
        batch's trace/span ids back to its caller.
        """
        while True:
            pending = self._gather()
            if pending is None:
                break
            # Resolved per batch: the observer may be installed after
            # this long-lived worker started (observed() in tests, the
            # CLI's --trace around a running serve loop).
            observer = get_observer()
            observations = [obs for obs, _, _ in pending]
            member_trace_ids = [
                ctx.trace_id for _, _, ctx in pending if ctx is not None
            ]
            batch_trace_id = ""
            batch_span_id = 0
            with observer.span(
                "service.batch",
                size=len(pending),
                member_trace_ids=member_trace_ids,
            ) as batch_span:
                try:
                    outcomes = self.batch_fn(observations)
                except ReproError as exc:
                    for _, future, _ in pending:
                        future.set_exception(exc)
                    continue
                if batch_span is not None:
                    batch_trace_id = batch_span.trace_id
                    batch_span_id = batch_span.span_id
            self.batches_total += 1
            self.requests_total += len(pending)
            self.largest_batch = max(self.largest_batch, len(pending))
            for (_, future, _), outcome in zip(pending, outcomes):
                future.set_result(
                    BatchedOutcome(
                        decision=outcome,
                        batch_size=len(pending),
                        batch_trace_id=batch_trace_id,
                        batch_span_id=batch_span_id,
                    )
                )

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop the worker once every queued request is served.

        Outstanding announcements no longer hold a batch open; a caller
        that submits after this raises :class:`ReproError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify()
        self._worker.join(timeout=timeout_s)

    def info(self) -> dict:
        """Plain-data batcher statistics for /v1/stats.

        ``mean_batch`` is the occupancy (requests per locate_batch
        call); ``queue_depth`` is the instantaneous backlog and
        ``announced`` the requests announced but not yet submitted.
        """
        with self._lock:
            queue_depth = len(self._queue)
            announced = self._announced
        return {
            "max_batch": self.max_batch,
            "max_wait_s": self.max_wait_s,
            "batches_total": self.batches_total,
            "requests_total": self.requests_total,
            "largest_batch": self.largest_batch,
            "mean_batch": (
                round(self.requests_total / self.batches_total, 4)
                if self.batches_total
                else None
            ),
            "queue_depth": queue_depth,
            "announced": announced,
        }
