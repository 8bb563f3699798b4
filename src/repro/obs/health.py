"""Anchor health: rolling per-anchor gauges + structured anomaly events.

An evaluation sweep produces one :class:`~repro.obs.diag.FixDiagnostics`
per fix; the :class:`AnchorHealthMonitor` folds them, in fix order, into
rolling per-anchor state and fires **edge-triggered** anomaly events
through the metrics registry when an anchor's signal chain degrades:

* ``band_outage`` -- too many of the anchor's bands unusable in a fix;
* ``phase_offset_drift`` -- Eq. 10's residual cross-band phase exceeds
  the linearity budget (oscillator drift / broken correction);
* ``low_snr`` -- demod SNR below threshold for N consecutive fixes;
* ``stale_anchor`` -- nothing usable heard from the anchor for N
  consecutive fixes.

Events are edge-triggered: one event when the condition starts, nothing
while it persists, re-armed once the condition clears -- so a dead
anchor produces one actionable event, not one per fix.  Each event also
bumps the matching ``health.anomalies.<kind>`` counter, and every
``observe()`` refreshes the ``health.anchor.<name>.*`` gauges with
rolling-window means, so the run summary shows per-anchor health even
when nothing anomalous happened.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.context import Observability, get_observer
from repro.obs.diag import FixDiagnostics

#: Anomaly kinds, matching the ``health.anomalies.*`` counters in
#: :data:`repro.obs.context.STANDARD_METRICS`.
ANOMALY_KINDS = (
    "band_outage",
    "phase_offset_drift",
    "low_snr",
    "stale_anchor",
)


@dataclass(frozen=True)
class HealthThresholds:
    """Trip points of the anomaly detectors.

    Attributes:
        outage_missing_fraction: a fix with at least this fraction of an
            anchor's bands unusable is a band outage.
        drift_residual_rad: per-anchor RMS residual phase above this is
            a phase-offset-drift anomaly (the calibrated simulator sits
            around 0.2-0.4 rad; a broken correction is >~ 1 rad).
        low_snr_db: per-fix median demod SNR below this counts towards a
            low-SNR streak.
        low_snr_fixes: consecutive low-SNR fixes before the anomaly
            fires.
        stale_fixes: consecutive fixes with *zero* usable bands before
            the anchor is declared stale.
        window: rolling-window length [fixes] for the health gauges.
    """

    outage_missing_fraction: float = 0.25
    drift_residual_rad: float = 0.8
    low_snr_db: float = 6.0
    low_snr_fixes: int = 3
    stale_fixes: int = 5
    window: int = 20

    def __post_init__(self):
        if not 0.0 < self.outage_missing_fraction <= 1.0:
            raise ConfigurationError(
                "outage_missing_fraction must be in (0, 1]"
            )
        if self.drift_residual_rad <= 0:
            raise ConfigurationError("drift_residual_rad must be > 0")
        if self.low_snr_fixes < 1 or self.stale_fixes < 1:
            raise ConfigurationError("streak lengths must be >= 1")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")


@dataclass(frozen=True)
class AnomalyEvent:
    """One structured anomaly.

    Attributes:
        kind: one of :data:`ANOMALY_KINDS`.
        anchor: name of the affected anchor.
        fix_index: fix at which the condition was detected.
        value: the measured quantity that tripped the detector.
        threshold: the trip point it crossed.
        message: human-readable one-liner.
    """

    kind: str
    anchor: str
    fix_index: int
    value: float
    threshold: float
    message: str


def _outage_message(name: str, missing: np.ndarray, num_bands: int) -> str:
    """Band-outage event text: which of the anchor's bands are dead."""
    bands = np.flatnonzero(missing)
    return (
        f"{name}: {bands.size}/{num_bands} bands unusable "
        f"(bands {bands.tolist()})"
    )


@dataclass
class _AnchorState:
    """Rolling per-anchor accumulators (internal)."""

    snr_db: Deque[float]
    coverage: Deque[float]
    residual_rad: Deque[float]
    low_snr_streak: int = 0
    stale_streak: int = 0
    active: Dict[str, bool] = field(
        default_factory=lambda: {kind: False for kind in ANOMALY_KINDS}
    )


class AnchorHealthMonitor:
    """Folds per-fix diagnostics into per-anchor health state.

    Args:
        thresholds: detector trip points.
        observer: where gauges/counters go; resolved from
            :func:`~repro.obs.context.get_observer` at each ``observe()``
            when omitted, so the monitor works under ``observed()``
            blocks without being rebuilt.

    Attributes:
        events: every anomaly fired so far, detection order.
    """

    def __init__(
        self,
        thresholds: HealthThresholds = HealthThresholds(),
        observer: Optional[Observability] = None,
    ):
        self.thresholds = thresholds
        self.events: List[AnomalyEvent] = []
        self._observer = observer
        self._anchors: Dict[str, _AnchorState] = {}
        self._fixes_seen = 0

    # -- internals --------------------------------------------------------

    def _state(self, name: str) -> _AnchorState:
        state = self._anchors.get(name)
        if state is None:
            window = self.thresholds.window
            state = _AnchorState(
                snr_db=deque(maxlen=window),
                coverage=deque(maxlen=window),
                residual_rad=deque(maxlen=window),
            )
            self._anchors[name] = state
        return state

    def _resolve_observer(self) -> Optional[Observability]:
        observer = (
            self._observer if self._observer is not None else get_observer()
        )
        return observer if observer.enabled else None

    def _transition(
        self,
        state: _AnchorState,
        kind: str,
        condition: bool,
        anchor: str,
        fix_index: int,
        value: float,
        threshold: float,
        message: Callable[[], str],
        observer: Optional[Observability],
    ) -> Optional[AnomalyEvent]:
        """Edge-trigger one detector; returns the event when it fires.

        ``message`` is formatted only for a fired event: most fixes
        fire nothing, and the service folds every request in.
        """
        was_active = state.active[kind]
        state.active[kind] = condition
        if not condition or was_active:
            return None
        event = AnomalyEvent(
            kind=kind,
            anchor=anchor,
            fix_index=fix_index,
            value=float(value),
            threshold=float(threshold),
            message=message(),
        )
        self.events.append(event)
        if observer is not None:
            observer.metrics.counter(f"health.anomalies.{kind}").inc()
        return event

    # -- public API -------------------------------------------------------

    def observe(
        self, diag: FixDiagnostics, fix_index: int
    ) -> List[AnomalyEvent]:
        """Fold one fix's diagnostics in; returns newly fired events.

        Call in fix order -- the streak detectors (low SNR, staleness)
        count *consecutive* fixes.
        """
        thresholds = self.thresholds
        observer = self._resolve_observer()
        fired: List[AnomalyEvent] = []
        self._fixes_seen += 1
        bq = diag.band_quality
        corr = diag.correction
        anchor_snr = bq.anchor_snr_db() if bq is not None else None
        anchor_cov = bq.coverage() if bq is not None else None
        for i, name in enumerate(diag.anchor_names):
            state = self._state(name)
            # -- band outage / staleness (need band quality) --------------
            if bq is not None:
                coverage = float(anchor_cov[i])
                missing_fraction = 1.0 - coverage
                state.coverage.append(coverage)
                event = self._transition(
                    state,
                    "band_outage",
                    missing_fraction >= thresholds.outage_missing_fraction,
                    name,
                    fix_index,
                    missing_fraction,
                    thresholds.outage_missing_fraction,
                    lambda: _outage_message(
                        name, bq.missing[i], diag.num_bands
                    ),
                    observer,
                )
                if event:
                    fired.append(event)
                state.stale_streak = (
                    state.stale_streak + 1 if coverage <= 0.0 else 0
                )
                event = self._transition(
                    state,
                    "stale_anchor",
                    state.stale_streak >= thresholds.stale_fixes,
                    name,
                    fix_index,
                    float(state.stale_streak),
                    float(thresholds.stale_fixes),
                    lambda: f"{name}: no usable bands for "
                    f"{state.stale_streak} consecutive fixes",
                    observer,
                )
                if event:
                    fired.append(event)
                # -- sustained low SNR --------------------------------
                snr = float(anchor_snr[i])
                if np.isfinite(snr):
                    state.snr_db.append(snr)
                low = np.isfinite(snr) and snr < thresholds.low_snr_db
                state.low_snr_streak = (
                    state.low_snr_streak + 1 if low else 0
                )
                event = self._transition(
                    state,
                    "low_snr",
                    state.low_snr_streak >= thresholds.low_snr_fixes,
                    name,
                    fix_index,
                    snr,
                    thresholds.low_snr_db,
                    lambda: f"{name}: median demod SNR {snr:.1f} dB below "
                    f"{thresholds.low_snr_db:.1f} dB for "
                    f"{state.low_snr_streak} consecutive fixes",
                    observer,
                )
                if event:
                    fired.append(event)
            # -- phase-offset drift (needs correction diagnostics) --------
            if corr is not None:
                residual = float(corr.residual_rms_rad[i])
                state.residual_rad.append(residual)
                event = self._transition(
                    state,
                    "phase_offset_drift",
                    residual > thresholds.drift_residual_rad,
                    name,
                    fix_index,
                    residual,
                    thresholds.drift_residual_rad,
                    lambda: f"{name}: Eq. 10 residual phase "
                    f"{residual:.2f} rad exceeds "
                    f"{thresholds.drift_residual_rad:.2f} rad",
                    observer,
                )
                if event:
                    fired.append(event)
            if observer is not None:
                self._export_gauges(observer, name, state)
        return fired

    def _export_gauges(
        self, observer: Observability, name: str, state: _AnchorState
    ) -> None:
        """Refresh the rolling-mean gauges for one anchor."""
        metrics = observer.metrics
        if state.snr_db:
            metrics.gauge(f"health.anchor.{name}.snr_db").set(
                float(np.mean(state.snr_db))
            )
        if state.coverage:
            metrics.gauge(f"health.anchor.{name}.band_coverage").set(
                float(np.mean(state.coverage))
            )
        if state.residual_rad:
            metrics.gauge(f"health.anchor.{name}.residual_phase_rad").set(
                float(np.mean(state.residual_rad))
            )

    def events_for(
        self, kind: Optional[str] = None, anchor: Optional[str] = None
    ) -> List[AnomalyEvent]:
        """Filter fired events by kind and/or anchor name."""
        return [
            e
            for e in self.events
            if (kind is None or e.kind == kind)
            and (anchor is None or e.anchor == anchor)
        ]

    def summary_rows(self) -> List[List[str]]:
        """Per-anchor table rows (anchor, fixes, snr, coverage, residual,
        anomalies) for reports."""
        rows = []
        for name, state in self._anchors.items():
            anomalies = len([e for e in self.events if e.anchor == name])
            rows.append(
                [
                    name,
                    str(max(len(state.coverage), len(state.residual_rad))),
                    f"{np.mean(state.snr_db):.1f}" if state.snr_db else "-",
                    (
                        f"{np.mean(state.coverage):.2f}"
                        if state.coverage
                        else "-"
                    ),
                    (
                        f"{np.mean(state.residual_rad):.3f}"
                        if state.residual_rad
                        else "-"
                    ),
                    str(anomalies),
                ]
            )
        return rows
