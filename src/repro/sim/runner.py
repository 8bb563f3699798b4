"""Evaluation runner: sweep a localizer over a dataset, collect errors.

Any object with a ``locate(observations) -> result`` method where the
result exposes ``.position`` qualifies as a localizer -- BLoc, the AoA
baseline and the RSSI baseline all satisfy this protocol, so every
Section 8 experiment is one :func:`evaluate` call per configuration.

Sweeps run serially, one ``locate`` per fix in dataset order (DESIGN.md
§9 has the measurements that retired the thread pool).
"""

from __future__ import annotations

import inspect
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
from repro.obs.health import AnchorHealthMonitor, AnomalyEvent
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
    """

    label: str
    records: List[EvaluationRecord] = field(default_factory=list)

    @property
    def num_failed(self) -> int:
        """Count of fixes that produced no error (the localizer raised).

        Keyed on the error being non-finite rather than the estimate
        being absent: anchor-subset records aggregate several sub-fixes
        and may carry a finite mean error without any single estimate.
        """
        return sum(1 for r in self.records if not np.isfinite(r.error_m))

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
        events: the anomalies ``health`` fired over the sweep, in fix
            order, filled by the sweep.
    """

    directory: Optional[Union[str, Path]] = None
    worst_n: int = 0
    capture_failures: bool = True
    health: Optional[AnchorHealthMonitor] = None
    written: List[Path] = field(default_factory=list)
    events: List[AnomalyEvent] = field(default_factory=list, init=False)
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
        """Record one fix's material (thread-safe: lock-protected)."""
        with self._lock:
            self._collected[fix_index] = (observations, diagnostics)

    def diagnostics_for(self, fix_index: int) -> Optional[FixDiagnostics]:
        """The captured diagnostics of one fix (None if not captured).

        Read under the lock, like every access to the collected fixes.
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
                capture.events.extend(capture.health.observe(diag, index))
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


def _execute_fix(
    localizer: Localizer,
    fix_index: int,
    observations: ChannelObservations,
    metrics: Optional[MetricsRegistry],
    *,
    label: str,
    transform: Optional[
        Callable[[ChannelObservations], ChannelObservations]
    ],
    with_diagnostics: bool,
    capture: Optional["DiagnosticsCapture"],
) -> EvaluationRecord:
    """One fix of an :func:`evaluate` sweep.

    ``metrics`` is the session registry (None when observability is
    off, in which case the span is a no-op too).
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
    fix_index: int,
    observations: ChannelObservations,
    metrics: Optional[MetricsRegistry],
    *,
    label: str,
    subset_size: int,
) -> EvaluationRecord:
    """One entry of an :func:`evaluate_anchor_subsets` sweep."""
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


def evaluate(
    localizer: Localizer,
    dataset: EvaluationDataset,
    label: str = "",
    transform: Optional[
        Callable[[ChannelObservations], ChannelObservations]
    ] = None,
    limit: Optional[int] = None,
    capture: Optional[DiagnosticsCapture] = None,
) -> EvaluationRun:
    """Run a localizer over every dataset entry, serially.

    Args:
        localizer: the scheme under test.
        dataset: ground-truth-tagged observations.
        label: report name.
        transform: optional per-entry observation transform (antenna /
            anchor / bandwidth subsetting).
        limit: evaluate only the first ``limit`` entries (0 means none,
            None means all; negative values raise
            :class:`~repro.errors.ConfigurationError`).
        capture: opt-in per-fix diagnostics collection; see
            :class:`DiagnosticsCapture`.  Fix bundles for failures and
            the worst-N fixes are written after the sweep, and the
            capture's health monitor (when set) sees every fix's
            diagnostics in dataset order.

    A fix that raises :class:`~repro.errors.LocalizationError` is recorded
    as failed rather than aborting the run -- a localizer that cannot
    produce a fix is a (bad) data point, not a crash.
    """
    observer = get_observer()
    metrics = observer.metrics if observer.enabled else None
    entries = _resolve_limit(limit, dataset.observations)
    with_diagnostics = capture is not None and _accepts_diagnostics(
        localizer
    )

    # Per-fix spans nest under the evaluate root span, which also gives
    # the sampling profiler a stable outermost frame for sweep time.  As
    # a root span it mints the sweep's trace_id, which every fix span
    # inherits -- one sweep, one trace.
    with observer.span("evaluate", label=label, fixes=len(entries)):
        records = [
            _execute_fix(
                localizer,
                index,
                observations,
                metrics,
                label=label,
                transform=transform,
                with_diagnostics=with_diagnostics,
                capture=capture,
            )
            for index, observations in enumerate(entries)
        ]
    if capture is not None:
        _finalize_capture(capture, localizer, label, records)
    return EvaluationRun(label=label, records=records)


def evaluate_anchor_subsets(
    localizer: Localizer,
    dataset: EvaluationDataset,
    subset_size: int,
    label: str = "",
    limit: Optional[int] = None,
) -> EvaluationRun:
    """Average over all anchor subsets of a given size (Section 8.3).

    The paper reports, for 3 of 4 anchors, "all possible subsets of the 4
    deployed anchors and ... the average of those errors for each data
    point"; this reproduces that protocol.  Subsets must contain the
    master (its packets anchor the Eq. 10 correction).
    """
    observer = get_observer()
    metrics = observer.metrics if observer.enabled else None
    entries = _resolve_limit(limit, dataset.observations)
    with observer.span(
        "evaluate",
        label=label,
        fixes=len(entries),
        subset_size=subset_size,
    ):
        records = [
            _execute_subset_fix(
                localizer,
                index,
                observations,
                metrics,
                label=label,
                subset_size=subset_size,
            )
            for index, observations in enumerate(entries)
        ]
    return EvaluationRun(label=label, records=records)
