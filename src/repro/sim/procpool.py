"""Process-pool evaluation backend: true multi-core sweeps.

Thread workers share one interpreter, so a sweep's pure-Python overhead
(span bookkeeping, peak selection loops, record assembly) serializes on
the GIL even though the Eq. 17 matmuls release it.  This backend fans
fixes out over worker *processes* instead, with two tricks keeping the
fan-out cheap:

* the steering entry (6.7 MB at the 0.06 m sweep grid) is built once in
  the parent and handed to every worker through the pool initializer,
  which seeds it into the worker's own cache.  Under ``fork`` (the
  start method picked wherever it exists) initializer arguments are
  inherited rather than pickled, so the workers read the parent's array
  pages copy-on-write -- N workers cost one cache, not N; under
  ``spawn`` the plain-numpy entry pickles to each worker once;
* observability crosses the process boundary as plain data -- each
  worker runs its own :class:`~repro.obs.trace.Tracer` at a disjoint
  span-id offset (``pid * 2**32``) and ships finished spans plus a
  metrics snapshot back per task; the parent folds them in with
  :meth:`~repro.obs.trace.Tracer.absorb` and
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`, so one
  export covers the whole cross-process sweep and metric totals match a
  serial run.  The shipped :class:`~repro.obs.trace.SpanHandle` carries
  the sweep's ``trace_id``, and ``attached()`` seeds it into every span
  the worker opens -- the whole cross-process sweep shares one trace
  with no extra plumbing here, and ``absorb`` rejects any span-id
  collision that would corrupt the reassembled tree.

A worker crash (OOM kill, segfault) breaks the pool.  The sweep then
records every unfinished fix as a failure with a clean
``failure_reason`` -- a dead worker is data, not a crash of the sweep.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.engine import SteeringCache, SteeringEntry, steering_cache_key
from repro.core.observations import ChannelObservations
from repro.errors import LocalizationError
from repro.obs import MetricsRegistry, Observability, get_observer, install
from repro.obs.trace import Span, SpanHandle, Tracer
from repro.sim import runner

#: Span-id block size per worker: each worker's tracer starts at
#: ``pid * WORKER_ID_STRIDE``, giving every process 2**32 ids with no
#: overlap against the parent (offset 0) or any sibling.
WORKER_ID_STRIDE = 1 << 32

#: What a lost fix reports; tests assert on this staying human-readable.
WORKER_DIED_REASON = (
    "worker process died before completing this fix (process backend)"
)


@dataclass(frozen=True)
class _SweepSpec:
    """Everything a worker needs, shipped once at pool initialisation.

    Attributes:
        localizer: the scheme under test, with any steering cache
            stripped (caches hold locks and are not picklable; workers
            get a fresh one when ``had_engine`` is set).
        steering: ``(steering_cache_key, entry)`` built in the parent,
            seeded into each worker's cache; None leaves that cache
            empty (subset sweeps, an un-correctable probe fix).
        had_engine: the localizer carried a
            :class:`~repro.core.engine.SteeringCache`.
        parent: span handle the worker parents its spans under.
        observe: whether the parent sweep runs observed.
        label: report label, forwarded into per-fix spans.
        mode: ``"fix"``, ``"batch"`` or ``"subsets"``.
        subset_size: anchor-subset size for ``mode="subsets"``.
    """

    localizer: runner.Localizer
    steering: Optional[Tuple[tuple, SteeringEntry]]
    had_engine: bool
    parent: Optional[SpanHandle]
    observe: bool
    label: str
    mode: str
    subset_size: int = 0


class _WorkerState:
    """Per-process state assembled by :func:`_init_worker`."""

    __slots__ = ("spec", "localizer", "observer")

    def __init__(
        self,
        spec: _SweepSpec,
        localizer: runner.Localizer,
        observer: Observability,
    ):
        self.spec = spec
        self.localizer = localizer
        self.observer = observer


#: This worker process's state (None in the parent).  Written exactly
#: once per process, by the pool initializer, before any task runs.
_WORKER: Optional[_WorkerState] = None


def _init_worker(spec: _SweepSpec) -> None:
    """Pool initializer: seed the steering cache, install observability.

    Runs once per worker process.  The worker tracer's id offset is
    derived from the pid, so merged spans can never collide with the
    parent's or a sibling's (see :data:`WORKER_ID_STRIDE`).
    """
    global _WORKER
    observer = Observability(enabled=spec.observe)
    if spec.observe:
        observer.tracer = Tracer(id_offset=os.getpid() * WORKER_ID_STRIDE)
    install(observer)
    localizer = spec.localizer
    if spec.had_engine:
        localizer = copy.copy(localizer)
        localizer.engine = SteeringCache()
        if spec.steering is not None:
            localizer.engine.seed(*spec.steering)
    _WORKER = _WorkerState(spec, localizer, observer)


def _run_task(
    task: Tuple[int, List[ChannelObservations]],
) -> Tuple[int, List[runner.EvaluationRecord], List[Span], List[dict]]:
    """Run one task (a contiguous chunk of fixes) in a pool worker.

    Returns ``(start_index, records, spans, metrics_snapshot)``.  Each
    task gets a fresh registry (swapped into the worker observer) and a
    span watermark, so repeated tasks on one worker never re-ship data
    the parent already folded in.
    """
    state = _WORKER
    start, entries = task
    spec = state.spec
    observer = state.observer
    metrics = None
    mark = 0
    if observer.enabled:
        metrics = MetricsRegistry()
        observer.metrics = metrics
        mark = len(observer.tracer)

    def run() -> List[runner.EvaluationRecord]:
        if spec.mode == "subsets":
            return [
                runner._execute_subset_fix(
                    state.localizer,
                    observations,
                    start + offset,
                    spec.label,
                    spec.subset_size,
                    metrics,
                )
                for offset, observations in enumerate(entries)
            ]
        if spec.mode == "batch":
            return runner._execute_batch(
                state.localizer, entries, start, spec.label, metrics=metrics
            )
        return [
            runner._execute_fix(
                state.localizer,
                observations,
                start + offset,
                spec.label,
                metrics=metrics,
            )
            for offset, observations in enumerate(entries)
        ]

    if observer.enabled and spec.parent is not None:
        with observer.tracer.attached(spec.parent):
            records = run()
    else:
        records = run()
    spans = observer.tracer.finished()[mark:] if observer.enabled else []
    snapshot = metrics.snapshot() if metrics is not None else []
    return start, records, spans, snapshot


def _prepare_localizer(
    localizer: runner.Localizer,
    entries: Sequence[ChannelObservations],
    mode: str,
) -> Tuple[runner.Localizer, Optional[Tuple[tuple, SteeringEntry]], bool]:
    """Strip the localizer's steering cache for shipment.

    Returns ``(shipped, steering, had_engine)``.  A localizer carrying a
    :class:`~repro.core.engine.SteeringCache` is shipped engine-less
    (caches hold locks); for a plain fix sweep the shared geometry's
    entry is built here once and returned with its cache key, otherwise
    (anchor subsets, an un-correctable probe fix) workers build into
    private caches.
    """
    engine = getattr(localizer, "engine", None)
    if not isinstance(engine, SteeringCache):
        return localizer, None, False
    shipped = copy.copy(localizer)
    shipped.engine = None
    if mode != "fix" or not entries or not hasattr(localizer, "correct"):
        return shipped, None, True
    try:
        probe = entries[0]
        corrected = localizer.correct(probe)
        grid = localizer.grid_for(probe)
        key = steering_cache_key(
            grid,
            corrected.anchors,
            corrected.master_index,
            corrected.anchor_baselines_m,
            corrected.frequencies_hz,
        )
        entry = engine.entry_for(corrected, grid)
    except LocalizationError:
        # The probe fix is un-correctable; its record will say so when
        # the sweep reaches it.  Workers build their own caches.
        return shipped, None, True
    return shipped, (key, entry), True


def process_sweep(
    localizer: runner.Localizer,
    entries: Sequence[ChannelObservations],
    label: str,
    transform: Optional[
        Callable[[ChannelObservations], ChannelObservations]
    ],
    workers: int,
    batch_size: Optional[int],
    mode: str = "fix",
    subset_size: int = 0,
) -> List[runner.EvaluationRecord]:
    """Sweep ``entries`` over a process pool; records in dataset order.

    The transform runs in the parent (transforms are routinely closures
    and need not be picklable), so workers receive ready-to-locate
    observations and the transform executes exactly once per fix, as in
    the serial path.  Fork is preferred when the platform offers it
    (cheap start, inherited imports); the code is spawn-safe otherwise.

    Fixes lost to a worker crash come back as failure records carrying
    :data:`WORKER_DIED_REASON`.
    """
    observer = get_observer()
    if transform is not None:
        entries = [transform(observations) for observations in entries]
    else:
        entries = list(entries)
    shipped, steering, had_engine = _prepare_localizer(
        localizer, entries, mode
    )
    parent = observer.tracer.active() if observer.enabled else None
    spec = _SweepSpec(
        localizer=shipped,
        steering=steering,
        had_engine=had_engine,
        parent=parent.handle() if parent is not None else None,
        observe=observer.enabled,
        label=label,
        mode="batch" if (batch_size or 0) > 1 and mode == "fix" else mode,
        subset_size=subset_size,
    )
    chunk = batch_size if batch_size else 1
    tasks = [
        (start, entries[start:start + chunk])
        for start in range(0, len(entries), chunk)
    ]
    records: List[Optional[runner.EvaluationRecord]] = [None] * len(entries)
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(spec,),
    ) as pool:
        futures = []
        try:
            for task in tasks:
                futures.append(pool.submit(_run_task, task))
        except BrokenProcessPool:
            pass  # submitted futures still drain below
        for future in futures:
            try:
                start, task_records, spans, snapshot = future.result()
            except BrokenProcessPool:
                continue  # lost fixes become failure records below
            for offset, record in enumerate(task_records):
                records[start + offset] = record
            if observer.enabled:
                if spans:
                    observer.tracer.absorb(spans)
                if snapshot:
                    observer.metrics.merge_snapshot(snapshot)
    for index, observations in enumerate(entries):
        if records[index] is None:
            records[index] = runner.EvaluationRecord(
                truth=observations.ground_truth,
                estimate=None,
                error_m=float("inf"),
                failure_reason=WORKER_DIED_REASON,
            )
    return records
