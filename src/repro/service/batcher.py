"""Micro-batching: coalesce concurrent locate requests into one batch.

The batched Eq. 17 kernel serves a whole batch of one scenario's fixes
in one call (a column per fix), amortising the per-call orchestration
of the pipeline.  Under concurrent load, requests that arrive within a
few milliseconds of each other can therefore share one
``locate_batch`` call.

Mechanics: callers submit observations and block on a per-request
future; a background worker drains the queue, gathers until either
``max_batch`` requests are pending or ``max_wait_s`` has elapsed since
the first one, runs the provider chain's ``locate_batch`` once, and
resolves each future with its own entry.  A lone request under no load
waits at most ``max_wait_s`` (default 5 ms) -- the deliberate latency
price of batching -- and failures stay per-future because the chain
returns per-fix errors rather than raising.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

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

#: Queue sentinel that tells the worker to exit.
_CLOSE = object()


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


class MicroBatcher:
    """One scenario's request coalescer.

    Thread-safety: ``submit`` may be called from any number of server
    threads; the single worker thread owns batching state.
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
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._closed = threading.Event()
        self._worker = threading.Thread(
            target=self._run, name=f"{name}-worker", daemon=True
        )
        self._worker.start()

    def submit(
        self,
        observations: ChannelObservations,
        context: Optional[TraceContext] = None,
    ) -> "Future[BatchedOutcome]":
        """Enqueue one request; the future resolves with its outcome.

        ``context`` carries the submitting request's trace identity: the
        shared batch span records every member's trace id
        (``member_trace_ids``), so the batch subtree is reachable from
        each member's trace reconstruction.

        Raises:
            ReproError: when the batcher is already closed.
        """
        if self._closed.is_set():
            raise ReproError("batcher is closed")
        future: "Future[BatchedOutcome]" = Future()
        self._queue.put((observations, future, context))
        return future

    def locate(
        self,
        observations: ChannelObservations,
        context: Optional[TraceContext] = None,
    ) -> BatchedOutcome:
        """Submit and block until the outcome is ready."""
        return self.submit(observations, context).result()

    def _gather(
        self,
    ) -> Optional[
        List[Tuple[ChannelObservations, Future, Optional[TraceContext]]]
    ]:
        """Collect one batch; None means the close sentinel arrived."""
        first = self._queue.get()
        if first is _CLOSE:
            return None
        pending: List[
            Tuple[ChannelObservations, Future, Optional[TraceContext]]
        ] = [first]  # type: ignore[list-item]
        remaining = self.max_wait_s
        while len(pending) < self.max_batch and remaining > 0:
            started = time.perf_counter()
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _CLOSE:
                # Re-enqueue so the next loop iteration exits cleanly
                # after this batch is served.
                self._queue.put(_CLOSE)
                break
            pending.append(item)  # type: ignore[arg-type]
            remaining -= time.perf_counter() - started
        return pending

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
        """Stop the worker after the in-flight batch completes."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._queue.put(_CLOSE)
        self._worker.join(timeout=timeout_s)

    def info(self) -> dict:
        """Plain-data batcher statistics for /v1/stats.

        ``mean_batch`` is the occupancy (requests per locate_batch
        call); ``queue_depth`` is the instantaneous backlog.
        """
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
            "queue_depth": self._queue.qsize(),
        }
