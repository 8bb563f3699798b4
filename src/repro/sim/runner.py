"""Evaluation runner: sweep a localizer over a dataset, collect errors.

Any object with a ``locate(observations) -> result`` method where the
result exposes ``.position`` qualifies as a localizer -- BLoc, the AoA
baseline and the RSSI baseline all satisfy this protocol, so every
Section 8 experiment is one :func:`evaluate` call per configuration.

Sweeps parallelize across fixes with ``workers=N``: entries are fanned
out over a thread pool (the hot path is numpy, which releases the GIL),
records come back in dataset order regardless of completion order, and
with observability enabled each worker thread accumulates its per-fix
metrics in a private registry that is merged into the session observer
once the sweep finishes -- so parallel runs report the same totals as
serial ones without contending on one registry per fix.

``backend="process"`` trades layout for speed without changing results
(see DESIGN.md's backend matrix): it fans fixes out over worker
*processes* (module :mod:`repro.sim.procpool`), each seeded with the
parent's steering entry -- the escape hatch from the GIL for the
pure-Python part of a sweep.  It keeps dataset order, per-fix failure
containment and merged observability.
"""

from __future__ import annotations

import inspect
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis.runtime_locks import LockLike, guarded_by, make_lock
from repro.core.observations import ChannelObservations
from repro.errors import ConfigurationError, LocalizationError
from repro.obs import LATENCY_BUCKETS_S, MetricsRegistry, get_observer
from repro.obs.diag import (
    FixDiagnostics,
    bundle_filename,
    bundle_from_fix,
    save_fix_bundle,
)
from repro.obs.health import AnchorHealthMonitor
from repro.sim.dataset import EvaluationDataset
from repro.sim.metrics import ErrorStats
from repro.utils.geometry2d import Point


class Localizer(Protocol):
    """Structural interface every evaluated scheme implements."""

    def locate(self, observations: ChannelObservations, keep_map: bool = True):
        """Produce a result with a ``.position`` attribute."""
        ...


@dataclass
class EvaluationRecord:
    """One fix of an evaluation run.

    Attributes:
        truth: ground-truth tag position.
        estimate: the localizer's estimate (None when it failed).
        error_m: Euclidean error (infinite when the fix failed).
        failure_reason: the localizer's error message when the fix
            failed, None otherwise.
    """

    truth: Point
    estimate: Optional[Point]
    error_m: float
    failure_reason: Optional[str] = None


@dataclass
class EvaluationRun:
    """Outcome of sweeping one localizer over one dataset.

    Attributes:
        label: configuration name for reports.
        records: per-fix outcomes.
        backend: execution backend the sweep ran on (``"serial"``,
            ``"thread"`` or ``"process"``).
        effective_workers: worker count actually used after clamping to
            the entry count (what capacity planning should read, not the
            requested ``workers``).
    """

    label: str
    records: List[EvaluationRecord] = field(default_factory=list)
    backend: str = "serial"
    effective_workers: int = 1

    @property
    def num_failed(self) -> int:
        """Count of fixes that produced no error (the localizer raised).

        Keyed on the error being non-finite rather than the estimate
        being absent: anchor-subset records aggregate several sub-fixes
        and may carry a finite mean error without any single estimate.
        """
        return sum(1 for r in self.records if not np.isfinite(r.error_m))

    def failure_reasons(self) -> List[Optional[str]]:
        """Per-record failure reasons (None for successful fixes)."""
        return [r.failure_reason for r in self.records]

    def stats(self, failure_error_m: float = 10.0) -> ErrorStats:
        """Error statistics; failed fixes count as ``failure_error_m``."""
        errors = [
            r.error_m if np.isfinite(r.error_m) else failure_error_m
            for r in self.records
        ]
        return ErrorStats(np.array(errors))

    def truths(self) -> List[Point]:
        """Ground-truth positions, record order."""
        return [r.truth for r in self.records]

    def errors(self, failure_error_m: float = 10.0) -> List[float]:
        """Per-fix errors, record order (failures as ``failure_error_m``)."""
        return [
            r.error_m if np.isfinite(r.error_m) else failure_error_m
            for r in self.records
        ]


@guarded_by("_lock", "_collected")
@dataclass
class DiagnosticsCapture:
    """Opt-in per-fix diagnostics collection for :func:`evaluate`.

    When passed to :func:`evaluate` (and the localizer supports
    ``locate(..., diagnostics=True)``, which BLoc does), every fix's
    :class:`~repro.obs.diag.FixDiagnostics` is collected; after the
    sweep they are fed -- in dataset order -- to the optional
    :class:`~repro.obs.health.AnchorHealthMonitor`, and the interesting
    fixes (every failure, plus the ``worst_n`` largest finite errors)
    are frozen to replayable fix bundles under ``directory``.

    Attributes:
        directory: where to write ``<label>-<index>.npz`` bundles; None
            collects diagnostics (for the health monitor) without
            writing any files.
        worst_n: bundle the N worst successful fixes (0: none).
        capture_failures: bundle every failed fix.
        health: optional anchor health monitor to feed.
        written: paths of the bundles written, filled by the sweep.
    """

    directory: Optional[Union[str, Path]] = None
    worst_n: int = 0
    capture_failures: bool = True
    health: Optional[AnchorHealthMonitor] = None
    written: List[Path] = field(default_factory=list)
    _collected: Dict[
        int, Tuple[ChannelObservations, Optional[FixDiagnostics]]
    ] = field(default_factory=dict, repr=False)
    _lock: LockLike = field(
        default_factory=lambda: make_lock("DiagnosticsCapture._lock"),
        repr=False,
    )

    def collect(
        self,
        fix_index: int,
        observations: ChannelObservations,
        diagnostics: Optional[FixDiagnostics],
    ) -> None:
        """Record one fix's material (thread-safe; workers call this)."""
        with self._lock:
            self._collected[fix_index] = (observations, diagnostics)

    def diagnostics_for(self, fix_index: int) -> Optional[FixDiagnostics]:
        """The captured diagnostics of one fix (None if not captured).

        Read under the lock: the sweep's worker threads may still be
        collecting when a health monitor asks mid-run.
        """
        with self._lock:
            entry = self._collected.get(fix_index)
        return entry[1] if entry is not None else None


def _accepts_diagnostics(localizer: Localizer) -> bool:
    """Whether ``localizer.locate`` takes a ``diagnostics`` keyword."""
    try:
        return "diagnostics" in inspect.signature(localizer.locate).parameters
    except (TypeError, ValueError):
        return False


def _finalize_capture(
    capture: DiagnosticsCapture,
    localizer: Localizer,
    label: str,
    records: List["EvaluationRecord"],
) -> None:
    """Post-sweep: feed the health monitor, write the chosen bundles."""
    observer = get_observer()
    if capture.health is not None:
        for index in sorted(capture._collected):
            diag = capture._collected[index][1]
            if diag is not None:
                capture.health.observe(diag, index)
    if capture.directory is None:
        return
    # Bundles replay through the bundled config, so only a localizer
    # exposing one (BLoc) can be frozen; stubs just skip this step.
    if not (hasattr(localizer, "config") and hasattr(localizer, "engine")):
        return
    chosen = set()
    if capture.capture_failures:
        chosen |= {
            i
            for i, r in enumerate(records)
            if not np.isfinite(r.error_m)
        }
    if capture.worst_n > 0:
        finite = sorted(
            (
                (r.error_m, i)
                for i, r in enumerate(records)
                if np.isfinite(r.error_m)
            ),
            reverse=True,
        )
        chosen |= {i for _, i in finite[: capture.worst_n]}
    chosen &= set(capture._collected)
    if not chosen:
        return
    directory = Path(capture.directory)
    directory.mkdir(parents=True, exist_ok=True)
    for index in sorted(chosen):
        observations, diag = capture._collected[index]
        record = records[index]
        bundle = bundle_from_fix(
            observations,
            localizer,
            label=label,
            fix_index=index,
            estimate=record.estimate,
            error_m=(
                record.error_m if np.isfinite(record.error_m) else None
            ),
            failure_reason=record.failure_reason,
            diagnostics=diag,
        )
        path = directory / bundle_filename(label, index)
        save_fix_bundle(path, bundle)
        capture.written.append(path)
        if observer.enabled:
            observer.metrics.counter("diag.bundles_written").inc()


#: Recognised evaluation backends (see the module docstring).
BACKENDS = ("serial", "thread", "process")


def _resolve_workers(
    workers: Optional[int], num_entries: Optional[int] = None
) -> int:
    """Validate, default and clamp the worker count (None means serial).

    When the entry count is known the request is clamped to it: workers
    beyond one-per-fix only sit idle (or, for the process backend, pay
    a fork for nothing).  The clamped value is what sweeps record as
    ``EvaluationRun.effective_workers``.
    """
    if workers is None:
        return 1
    count = int(workers)
    if count < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if num_entries is not None:
        count = min(count, max(1, int(num_entries)))
    return count


def _resolve_limit(
    limit: Optional[int], observations: Sequence[ChannelObservations]
) -> Sequence[ChannelObservations]:
    """Apply the documented ``limit`` contract to a dataset's entries.

    ``None`` evaluates everything, ``0`` evaluates nothing and positive
    values take the first ``limit`` entries.  Negative values raise: the
    Python slice they used to fall into (``observations[:-1]``) silently
    evaluated all-but-the-last entries, which no caller ever means.
    """
    if limit is None:
        return observations
    count = int(limit)
    if count < 0:
        raise ConfigurationError(
            f"limit must be >= 0 (0 means none, None means all), "
            f"got {limit}"
        )
    return observations[:count]


def _resolve_backend(
    backend: Optional[str],
    workers: int,
    capture: Optional["DiagnosticsCapture"] = None,
) -> str:
    """Validate and default the backend choice.

    ``None`` picks ``"thread"`` when ``workers > 1`` and ``"serial"``
    otherwise, so existing call sites keep their behaviour.  An explicit
    ``"serial"`` with ``workers > 1`` is a contradiction and raises.
    Diagnostics capture pins the sweep to an in-process backend:
    process workers would have to ship every fix's observations and
    diagnostics back over IPC.
    """
    if backend is None:
        backend = "thread" if workers > 1 else "serial"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "serial" and workers > 1:
        raise ConfigurationError(
            f"backend='serial' cannot run with workers={workers}; "
            f"use backend='thread' or 'process'"
        )
    if capture is not None and backend == "process":
        raise ConfigurationError(
            "diagnostics capture requires an in-process backend "
            "(serial or thread)"
        )
    return backend


def _execute_fix(
    localizer: Localizer,
    observations: ChannelObservations,
    fix_index: int,
    label: str,
    transform: Optional[
        Callable[[ChannelObservations], ChannelObservations]
    ] = None,
    with_diagnostics: bool = False,
    capture: Optional["DiagnosticsCapture"] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> EvaluationRecord:
    """One fix of an :func:`evaluate` sweep.

    Module-level rather than a closure so the process backend
    (:mod:`repro.sim.procpool`) can run the exact same body in pool
    workers; ``metrics`` is the calling worker's private registry (None
    when observability is off, in which case the span is a no-op too).
    """
    observer = get_observer()
    if transform is not None:
        observations = transform(observations)
    truth = observations.ground_truth
    failure_reason = None
    diagnostics = None
    with observer.span("fix", index=fix_index, label=label) as span:
        try:
            if with_diagnostics:
                result = localizer.locate(
                    observations, keep_map=False, diagnostics=True
                )
                diagnostics = result.diagnostics
            else:
                result = localizer.locate(observations, keep_map=False)
            estimate = result.position
            error = (estimate - truth).norm()
        except LocalizationError as exc:
            estimate = None
            error = float("inf")
            failure_reason = str(exc)
            # A failing locate() attaches the stages it completed.
            diagnostics = getattr(exc, "diagnostics", None)
            if metrics is not None:
                metrics.counter(
                    f"eval.failures.{type(exc).__name__}"
                ).inc()
    if capture is not None:
        capture.collect(fix_index, observations, diagnostics)
    if metrics is not None:
        metrics.counter("eval.fixes_total").inc()
        metrics.histogram(
            "eval.fix_latency_s", LATENCY_BUCKETS_S
        ).observe(span.duration_s)
    return EvaluationRecord(
        truth=truth,
        estimate=estimate,
        error_m=error,
        failure_reason=failure_reason,
    )


def _execute_subset_fix(
    localizer: Localizer,
    observations: ChannelObservations,
    fix_index: int,
    label: str,
    subset_size: int,
    metrics: Optional[MetricsRegistry] = None,
) -> EvaluationRecord:
    """One entry of an :func:`evaluate_anchor_subsets` sweep.

    Module-level for the same reason as :func:`_execute_fix`: the
    process backend runs it in pool workers.
    """
    from itertools import combinations

    observer = get_observer()
    truth = observations.ground_truth
    master = observations.master_index
    others = [
        i for i in range(observations.num_anchors) if i != master
    ]
    outcomes = []  # (estimate or None, error) per subset
    failure_reason = None
    with observer.span(
        "fix", index=fix_index, label=label, subset_size=subset_size
    ):
        for chosen in combinations(others, subset_size - 1):
            subset = observations.select_anchors([master, *chosen])
            try:
                result = localizer.locate(subset, keep_map=False)
                outcomes.append(
                    (result.position, (result.position - truth).norm())
                )
            except LocalizationError as exc:
                outcomes.append((None, float("inf")))
                failure_reason = str(exc)
                if metrics is not None:
                    metrics.counter("eval.subset_failures").inc()
                    metrics.counter(
                        f"eval.failures.{type(exc).__name__}"
                    ).inc()
    finite = [e for _, e in outcomes if np.isfinite(e)]
    mean_error = float(np.mean(finite)) if finite else float("inf")
    # The record's error is an aggregate over subsets, so a single
    # "the" estimate usually does not exist; report one only when a
    # subset's own error equals the aggregate (e.g. exactly one
    # subset succeeded), instead of leaking whichever subset ran last.
    estimate = next(
        (est for est, err in outcomes if err == mean_error), None
    )
    return EvaluationRecord(
        truth=truth,
        estimate=estimate,
        error_m=mean_error,
        failure_reason=None if finite else failure_reason,
    )


@guarded_by("_lock", "_registries")
class _WorkerRegistries:
    """One private :class:`MetricsRegistry` per worker thread.

    Workers write their per-fix counters and latency histograms into a
    thread-local registry; :meth:`merge_into` folds every worker registry
    into the session observer after the sweep, so totals match a serial
    run exactly while the hot loop never contends on shared instruments.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = make_lock("_WorkerRegistries._lock")
        self._registries: List[MetricsRegistry] = []

    def current(self) -> MetricsRegistry:
        """The calling thread's registry (thread-safe; created on
        first use and tracked for the final merge)."""
        registry = getattr(self._local, "registry", None)
        if registry is None:
            registry = MetricsRegistry()
            with self._lock:
                self._registries.append(registry)
            self._local.registry = registry
        return registry

    def merge_into(self, target: MetricsRegistry) -> None:
        """Fold every worker registry into ``target``."""
        with self._lock:
            registries = list(self._registries)
        for registry in registries:
            target.merge(registry)


def _sweep(entries: Sequence, run_fix, workers: int) -> List[EvaluationRecord]:
    """Run ``run_fix(index, entry, metrics)`` over all entries.

    Serial when ``workers == 1``; otherwise entries fan out over a thread
    pool.  ``pool.map`` preserves submission order, so the returned
    records are in dataset order either way.
    """
    observer = get_observer()
    if workers == 1 or len(entries) <= 1:
        metrics = observer.metrics if observer.enabled else None
        return [
            run_fix(index, entry, metrics)
            for index, entry in enumerate(entries)
        ]
    worker_metrics = _WorkerRegistries() if observer.enabled else None
    # The active-span stack is thread-local: without re-attaching the
    # caller's span in each worker, every per-fix span under workers=N
    # would be an orphaned root instead of a child of the evaluation
    # span.  The parent crosses the worker boundary as a picklable
    # SpanHandle (span id + depth), not as the Span object -- the same
    # propagation contract a process-pool backend will use -- and
    # tracer.attached() materialises it as a borrowed placeholder.
    parent = observer.tracer.active() if observer.enabled else None
    handle = parent.handle() if parent is not None else None

    def job(item):
        index, entry = item
        metrics = worker_metrics.current() if worker_metrics else None
        if handle is not None:
            with observer.tracer.attached(handle):
                return run_fix(index, entry, metrics)
        return run_fix(index, entry, metrics)

    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="eval-worker"
    ) as pool:
        records = list(pool.map(job, enumerate(entries)))
    if worker_metrics is not None:
        worker_metrics.merge_into(observer.metrics)
    return records


def evaluate(
    localizer: Localizer,
    dataset: EvaluationDataset,
    label: str = "",
    transform: Optional[
        Callable[[ChannelObservations], ChannelObservations]
    ] = None,
    limit: Optional[int] = None,
    workers: Optional[int] = None,
    capture: Optional[DiagnosticsCapture] = None,
    backend: Optional[str] = None,
) -> EvaluationRun:
    """Run a localizer over every dataset entry.

    Args:
        localizer: the scheme under test.
        dataset: ground-truth-tagged observations.
        label: report name.
        transform: optional per-entry observation transform (antenna /
            anchor / bandwidth subsetting).
        limit: evaluate only the first ``limit`` entries (0 means none,
            None means all; negative values raise
            :class:`~repro.errors.ConfigurationError`).
        workers: worker count for parallel evaluation (None or 1 runs
            serially), clamped to the entry count.  Records keep dataset
            order and per-worker metrics are merged into the active
            observer (see module docstring); the localizer must tolerate
            concurrent ``locate`` calls, which BLoc and the baselines do.
        capture: opt-in per-fix diagnostics collection; see
            :class:`DiagnosticsCapture`.  Fix bundles for failures and
            the worst-N fixes are written after the sweep, and the
            capture's health monitor (when set) sees every fix's
            diagnostics in dataset order.  Requires an in-process
            ``backend`` (serial or thread).
        backend: ``"serial"``, ``"thread"`` or ``"process"`` (None picks
            thread when ``workers > 1``, serial otherwise).  The process
            backend runs fixes in worker processes seeded with the
            parent's steering entry; see :mod:`repro.sim.procpool`.

    A fix that raises :class:`~repro.errors.LocalizationError` is recorded
    as failed rather than aborting the run -- a localizer that cannot
    produce a fix is a (bad) data point, not a crash.  Under the process
    backend a fix lost to a *worker crash* is likewise a failure record,
    with the worker death named in ``failure_reason``.
    """
    observer = get_observer()
    entries = _resolve_limit(limit, dataset.observations)
    workers = _resolve_workers(workers, len(entries))
    backend = _resolve_backend(backend, workers, capture)
    with_diagnostics = capture is not None and _accepts_diagnostics(
        localizer
    )

    def run_fix(
        fix_index: int,
        observations: ChannelObservations,
        metrics: Optional[MetricsRegistry],
    ) -> EvaluationRecord:
        return _execute_fix(
            localizer,
            observations,
            fix_index,
            label,
            transform=transform,
            with_diagnostics=with_diagnostics,
            capture=capture,
            metrics=metrics,
        )

    # The evaluate root span is what per-fix spans merge back under when
    # workers fan out (thread pools via _sweep's handle propagation,
    # process pools via procpool's span absorption); it also gives the
    # sampling profiler a stable outermost frame for sweep time.  As a
    # root span it mints the sweep's trace_id, which the propagated
    # handles carry into every worker -- one sweep, one trace, so
    # `repro obs trace` reconstructs the whole fan-out from the export.
    with observer.span(
        "evaluate",
        label=label,
        workers=workers,
        fixes=len(entries),
        backend=backend,
    ):
        if backend == "process":
            from repro.sim.procpool import process_sweep

            records = process_sweep(
                localizer,
                entries,
                label=label,
                transform=transform,
                workers=workers,
            )
        else:
            records = _sweep(entries, run_fix, workers)
    if capture is not None:
        _finalize_capture(capture, localizer, label, records)
    return EvaluationRun(
        label=label,
        records=records,
        backend=backend,
        effective_workers=workers,
    )


def evaluate_anchor_subsets(
    localizer: Localizer,
    dataset: EvaluationDataset,
    subset_size: int,
    label: str = "",
    limit: Optional[int] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> EvaluationRun:
    """Average over all anchor subsets of a given size (Section 8.3).

    The paper reports, for 3 of 4 anchors, "all possible subsets of the 4
    deployed anchors and ... the average of those errors for each data
    point"; this reproduces that protocol.  Subsets must contain the
    master (its packets anchor the Eq. 10 correction).

    ``workers`` parallelizes across dataset entries (each entry's subset
    loop stays serial inside its worker), with the same ordering and
    metric-merging guarantees as :func:`evaluate`; ``backend`` picks the
    thread or process pool as there.  Subset geometries differ per
    sub-fix, so the process backend hands workers no steering entry
    and lets each one build its own cache.
    """
    observer = get_observer()
    entries = _resolve_limit(limit, dataset.observations)
    workers = _resolve_workers(workers, len(entries))
    backend = _resolve_backend(backend, workers)

    def run_fix(
        fix_index: int,
        observations: ChannelObservations,
        metrics: Optional[MetricsRegistry],
    ) -> EvaluationRecord:
        return _execute_subset_fix(
            localizer, observations, fix_index, label, subset_size, metrics
        )

    with observer.span(
        "evaluate",
        label=label,
        workers=workers,
        fixes=len(entries),
        subset_size=subset_size,
        backend=backend,
    ):
        if backend == "process":
            from repro.sim.procpool import process_sweep

            records = process_sweep(
                localizer,
                entries,
                label=label,
                transform=None,
                workers=workers,
                mode="subsets",
                subset_size=subset_size,
            )
        else:
            records = _sweep(entries, run_fix, workers)
    return EvaluationRun(
        label=label,
        records=records,
        backend=backend,
        effective_workers=workers,
    )
