"""Accuracy telemetry: per-anchor / per-band contributions per fix.

The service's latency metrics say how *fast* a fix was; this module
says how *good* its signal chain was, on every live request rather than
only on replayed bundles.  For each BLoc decision it records into the
service's always-on registry:

* ``telemetry.anchor.<name>.coverage`` -- usable band fraction at the
  anchor (from :func:`repro.obs.diag.band_quality`, the cheap standalone
  per-(anchor, band) assessment);
* ``telemetry.anchor.<name>.snr_db`` -- median usable-band SNR;
* ``telemetry.anchor.<name>.score_weight`` -- the anchor's Eq. 18 path
  term ``exp(-a * d_i)`` at the decided position: how much that anchor's
  proximity argued for the chosen peak (``a`` is the paper's
  distance-weight 0.1, Section 7);
* ``telemetry.band.usable_fraction`` -- usable fraction per band index,
  histogrammed so interference bursts concentrated on a few channels
  show up as a left tail;

and feeds the same :class:`~repro.obs.health.AnchorHealthMonitor`
anomaly detectors the offline ``repro diag`` replay path uses, so a
desensed anchor trips ``band_outage`` / ``low_snr`` events from
production traffic directly.

Cardinality is bounded by construction: one gauge triple per anchor
(<= 4 in every shipped scenario) and one histogram per instance.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.analysis.runtime_locks import guarded_by, make_lock
from repro.constants import BLOC_SCORE_DISTANCE_WEIGHT
from repro.core.observations import ChannelObservations
from repro.obs.context import Observability
from repro.obs.diag import FixDiagnostics, band_quality
from repro.obs.health import (
    ANOMALY_KINDS,
    AnchorHealthMonitor,
    AnomalyEvent,
)
from repro.utils.geometry2d import Point

#: Bucket edges for per-band usable fractions (a share in [0, 1]).
FRACTION_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


@guarded_by("_lock", "_fixes")
class AccuracyTelemetry:
    """Folds one locate decision at a time into accuracy instruments.

    Args:
        observer: the enabled observability whose registry the gauges,
            histograms and the health monitor's ``health.anomalies.*``
            counters are written to (the service's always-on one).

    Thread-safety: ``record_fix`` may be called from server handler
    threads concurrently; the monitor's streak detectors assume fix
    order, so the fold is serialised under an instance lock (the
    instruments guard themselves).
    """

    def __init__(self, observer: Observability):
        self.metrics = observer.metrics
        self.monitor = AnchorHealthMonitor(observer=observer)
        self._lock = make_lock("AccuracyTelemetry._lock")
        self._fixes = 0

    @property
    def fixes_recorded(self) -> int:
        """How many decisions have been folded in (read under the
        lock; handler threads increment concurrently)."""
        with self._lock:
            return self._fixes

    def record_fix(
        self,
        observations: ChannelObservations,
        position: Optional[Point],
    ) -> List[AnomalyEvent]:
        """Fold one fix's observations (and decided position) in.

        Returns the anomaly events this fix newly fired, so callers can
        surface them (the service attaches the count to its request
        span).  Never raises on degraded input -- telemetry must not be
        able to fail a request that the provider chain answered.
        """
        quality = band_quality(observations)
        anchor_names = [
            anchor.name or f"anchor{i}"
            for i, anchor in enumerate(observations.anchors)
        ]
        diag = FixDiagnostics(
            anchor_names=anchor_names,
            frequencies_hz=np.asarray(
                observations.frequencies_hz, dtype=float
            ),
            stage_reached="observations",
            band_quality=quality,
        )
        coverage = quality.coverage()
        snr_db = quality.anchor_snr_db()
        for i, name in enumerate(anchor_names):
            self.metrics.gauge(
                f"telemetry.anchor.{name}.coverage"
            ).set(float(coverage[i]))
            if math.isfinite(float(snr_db[i])):
                self.metrics.gauge(
                    f"telemetry.anchor.{name}.snr_db"
                ).set(float(snr_db[i]))
            if position is not None:
                anchor_xy = observations.anchors[i].position
                distance = math.hypot(
                    position.x - anchor_xy.x, position.y - anchor_xy.y
                )
                self.metrics.gauge(
                    f"telemetry.anchor.{name}.score_weight"
                ).set(
                    math.exp(-BLOC_SCORE_DISTANCE_WEIGHT * distance)
                )
        usable_per_band = 1.0 - quality.missing.mean(axis=0)
        band_histogram = self.metrics.histogram(
            "telemetry.band.usable_fraction", FRACTION_BUCKETS
        )
        for fraction in usable_per_band:
            band_histogram.observe(float(fraction))
        self.metrics.gauge("telemetry.band.usable_overall").set(
            float(usable_per_band.mean())
        )
        with self._lock:
            fix_index = self._fixes
            self._fixes += 1
            events = self.monitor.observe(diag, fix_index)
        if events:
            self.metrics.counter("telemetry.anomalies_total").inc(
                len(events)
            )
        return events

    def info(self) -> dict:
        """Plain-data telemetry state for ``/v1/stats``.

        Anomaly counts are read from the ``health.anomalies.<kind>``
        counters the monitor increments, so no event history is kept.
        """
        with self._lock:
            fixes = self._fixes
        by_kind = {}
        for kind in ANOMALY_KINDS:
            counter = self.metrics.get(f"health.anomalies.{kind}")
            if counter is not None and counter.value:
                by_kind[kind] = int(counter.value)
        return {
            "fixes_recorded": fixes,
            "anomalies_total": sum(by_kind.values()),
            "anomalies_by_kind": dict(sorted(by_kind.items())),
        }
