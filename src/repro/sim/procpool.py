"""Process-pool evaluation backend: true multi-core sweeps.

Thread workers share one interpreter, so a sweep's pure-Python overhead
(span bookkeeping, peak selection loops, record assembly) serializes on
the GIL even though the Eq. 17 matmuls release it.  This backend fans
fixes out over worker *processes* instead, with two tricks keeping the
fan-out cheap:

* the steering entry (6.7 MB at the 0.06 m sweep grid) is built once in
  the parent and **published into POSIX shared memory**
  (:mod:`repro.core.parallel`); every worker attaches read-only numpy
  views onto the same physical pages instead of rebuilding or copying,
  so N workers cost one cache, not N;
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
``failure_reason`` -- a dead worker is data, not a crash of the sweep --
and the ``finally`` block closes the owning shared-memory segment, so
nothing leaks into ``/dev/shm``.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.engine import SteeringCache, steering_cache_key
from repro.core.observations import ChannelObservations
from repro.core.parallel import (
    AttachedSteering,
    SharedSteeringHandle,
    SharedSteeringSegment,
    attach_steering,
    publish_steering_entry,
)
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
            get theirs via ``steering`` or ``rebuild_engine``).
        steering: handle of the published steering segment, or None
            when nothing was published.
        rebuild_engine: give the worker a private empty
            :class:`~repro.core.engine.SteeringCache` (subset sweeps,
            unpublishable geometries).
        parent: span handle the worker parents its spans under.
        observe: whether the parent sweep runs observed.
        label: report label, forwarded into per-fix spans.
        mode: ``"fix"``, ``"batch"`` or ``"subsets"``.
        subset_size: anchor-subset size for ``mode="subsets"``.
    """

    localizer: runner.Localizer
    steering: Optional[SharedSteeringHandle]
    rebuild_engine: bool
    parent: Optional[SpanHandle]
    observe: bool
    label: str
    mode: str
    subset_size: int = 0


class _WorkerState:
    """Per-process state assembled by :func:`_init_worker`.

    Holds the steering attachment for the worker's whole lifetime: the
    seeded cache entry's numpy views are only valid while the mapping
    is (see :mod:`repro.core.parallel`); the views die with the process.
    """

    __slots__ = ("spec", "localizer", "observer", "attached")

    def __init__(
        self,
        spec: _SweepSpec,
        localizer: runner.Localizer,
        observer: Observability,
        attached: Optional[AttachedSteering] = None,
    ):
        self.spec = spec
        self.localizer = localizer
        self.observer = observer
        self.attached = attached


#: This worker process's state (None in the parent).  Written exactly
#: once per process, by the pool initializer, before any task runs.
_WORKER: Optional[_WorkerState] = None


def _init_worker(spec: _SweepSpec) -> None:
    """Pool initializer: attach steering, install worker observability.

    Runs once per worker process.  The worker tracer's id offset is
    derived from the pid, so merged spans can never collide with the
    parent's or a sibling's (see :data:`WORKER_ID_STRIDE`).  The
    steering attachment is deliberately never closed here: it lives as
    long as the worker, and a worker exit unmaps without unlinking
    (ownership rules in :mod:`repro.core.parallel`).
    """
    global _WORKER
    observer = Observability(enabled=spec.observe)
    if spec.observe:
        observer.tracer = Tracer(id_offset=os.getpid() * WORKER_ID_STRIDE)
    install(observer)
    localizer = spec.localizer
    attached = None
    if spec.steering is not None:
        attached = attach_steering(spec.steering)
        cache = SteeringCache()
        cache.seed(spec.steering.cache_key, attached.entry)
        localizer = copy.copy(localizer)
        localizer.engine = cache
    elif spec.rebuild_engine:
        localizer = copy.copy(localizer)
        localizer.engine = SteeringCache()
    _WORKER = _WorkerState(spec, localizer, observer, attached)


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
) -> Tuple[
    runner.Localizer,
    Optional[SharedSteeringHandle],
    bool,
    Optional[SharedSteeringSegment],
]:
    """Strip/publish the localizer's steering cache for shipment.

    Returns ``(shipped, steering_handle, rebuild_engine, owner)``.  A
    localizer carrying a :class:`~repro.core.engine.SteeringCache` is
    shipped engine-less (caches hold locks); for a plain fix sweep the
    shared geometry's entry is built here once and published to shared
    memory, otherwise (anchor subsets, an un-correctable probe fix)
    workers rebuild into private caches.  The caller must ``close()``
    the returned owner segment -- in a ``finally`` -- once the sweep is
    done.
    """
    engine = getattr(localizer, "engine", None)
    if not isinstance(engine, SteeringCache):
        return localizer, None, False, None
    shipped = copy.copy(localizer)
    shipped.engine = None
    if mode != "fix" or not entries or not hasattr(localizer, "correct"):
        return shipped, None, True, None
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
        # the sweep reaches it.  Workers rebuild their own caches.
        return shipped, None, True, None
    owner = publish_steering_entry(entry, key)
    return shipped, owner.handle, False, owner


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
    :data:`WORKER_DIED_REASON`, and the published steering segment is
    closed in a ``finally``, so even a crashed sweep leaks nothing into
    ``/dev/shm``.
    """
    observer = get_observer()
    if transform is not None:
        entries = [transform(observations) for observations in entries]
    else:
        entries = list(entries)
    shipped, steering, rebuild, owner = _prepare_localizer(
        localizer, entries, mode
    )
    parent = observer.tracer.active() if observer.enabled else None
    spec = _SweepSpec(
        localizer=shipped,
        steering=steering,
        rebuild_engine=rebuild,
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
    try:
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
    finally:
        if owner is not None:
            owner.close()
    for index, observations in enumerate(entries):
        if records[index] is None:
            records[index] = runner.EvaluationRecord(
                truth=observations.ground_truth,
                estimate=None,
                error_m=float("inf"),
                failure_reason=WORKER_DIED_REASON,
            )
    return records
