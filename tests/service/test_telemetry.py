"""Accuracy telemetry: gauges and anomaly events over a fix stream."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs import Observability
from repro.obs.diag import FixDiagnostics, band_quality
from repro.obs.health import AnchorHealthMonitor
from repro.service.telemetry import AccuracyTelemetry
from repro.sim import ChannelMeasurementModel
from repro.sim.interference import inject_band_outage
from repro.sim.testbed import vicon_testbed
from repro.utils.geometry2d import Point

#: Bands knocked out at anchor 1 during the injected outage.
OUTAGE_BANDS = [0, 3, 4, 5, 9, 10, 11, 12, 20, 21, 30, 31]


@pytest.fixture(scope="module")
def stream():
    """Clean fixes, then an outage at anchor 1, then recovery."""
    model = ChannelMeasurementModel(testbed=vicon_testbed(), seed=17)
    tags = [Point(0.2 * k - 1.0, 0.1 * k) for k in range(9)]
    fixes = [model.measure(tag) for tag in tags]
    for k in (3, 4, 5):
        fixes[k] = inject_band_outage(fixes[k], 1, OUTAGE_BANDS)
    return fixes, tags


def _replayed_events(fixes):
    """The offline replay path: a fresh diagnostics object per fix."""
    monitor = AnchorHealthMonitor(observer=Observability(enabled=True))
    events = []
    for index, observations in enumerate(fixes):
        diag = FixDiagnostics(
            anchor_names=[
                a.name or f"anchor{i}"
                for i, a in enumerate(observations.anchors)
            ],
            frequencies_hz=np.asarray(observations.frequencies_hz),
            stage_reached="observations",
            band_quality=band_quality(observations),
        )
        events.extend(monitor.observe(diag, index))
    return events


def _median_snr(observations, anchor_index):
    snr = band_quality(observations).snr_db[anchor_index]
    usable = snr[np.isfinite(snr)]
    return float(np.median(usable)) if usable.size else math.nan


def test_gauges_and_events_match_the_replayed_stream(stream):
    fixes, tags = stream
    service_obs = Observability(enabled=True)
    telemetry = AccuracyTelemetry(
        metrics=service_obs.metrics,
        monitor=AnchorHealthMonitor(observer=service_obs),
    )
    fired = []
    for observations, tag in zip(fixes, tags):
        fired.extend(telemetry.record_fix(observations, tag))
        for i, anchor in enumerate(observations.anchors):
            name = anchor.name or f"anchor{i}"
            gauge = service_obs.metrics.get(f"telemetry.anchor.{name}.snr_db")
            assert gauge.value == _median_snr(observations, i)
            coverage = service_obs.metrics.get(
                f"telemetry.anchor.{name}.coverage"
            )
            expected = 1.0 - band_quality(observations).missing[i].mean()
            assert coverage.value == expected
    assert fired == _replayed_events(fixes)
    outages = [e for e in fired if e.kind == "band_outage"]
    assert len(outages) == 1  # edge-triggered: once per outage
    (outage,) = outages
    name = fixes[3].anchors[1].name or "anchor1"
    assert outage.anchor == name and outage.fix_index == 3
    assert outage.message == (
        f"{name}: {len(OUTAGE_BANDS)}/{fixes[3].num_bands} bands "
        f"unusable (bands {OUTAGE_BANDS})"
    )
    assert telemetry.info()["anomalies_by_kind"] == {"band_outage": 1}


def test_anchor_snr_is_computed_once_per_fix(stream):
    fixes, _ = stream
    quality = band_quality(fixes[0])
    first = quality.anchor_snr_db()
    assert quality.anchor_snr_db() is first
    np.testing.assert_array_equal(
        first, [_median_snr(fixes[0], i) for i in range(len(first))]
    )
    with pytest.raises(ValueError):
        first[0] = 0.0
