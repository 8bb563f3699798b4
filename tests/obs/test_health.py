"""Tests for repro.obs.health: anchor health monitor and anomalies."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BlocConfig,
    BlocLocalizer,
    ChannelMeasurementModel,
    Point,
    vicon_testbed,
)
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.obs.diag import BandQuality, CorrectionDiagnostics, FixDiagnostics
from repro.obs.health import (
    ANOMALY_KINDS,
    AnchorHealthMonitor,
    HealthThresholds,
)
from repro.sim import inject_band_outage

ANCHORS = ["AP0", "AP1"]
NUM_BANDS = 8


def make_diag(
    missing_bands=(),
    snr_db=20.0,
    residual_rad=0.2,
    anchor=0,
):
    """Synthetic two-anchor diagnostics; faults applied to one anchor."""
    num = len(ANCHORS)
    missing = np.zeros((num, NUM_BANDS), dtype=bool)
    missing[anchor, list(missing_bands)] = True
    snr = np.full((num, NUM_BANDS), 20.0)
    snr[anchor] = snr_db
    snr[missing] = np.nan
    residual = np.full(num, 0.2)
    residual[anchor] = residual_rad
    quality = BandQuality(
        source="demod",
        snr_db=snr,
        amplitude_db=np.zeros((num, NUM_BANDS)),
        flatness_db=np.zeros(num),
        missing=missing,
    )
    correction = CorrectionDiagnostics(
        residual_rms_rad=residual,
        residual_per_band_rad=np.zeros((num, NUM_BANDS)),
        seam_jump_rad=np.zeros((num, NUM_BANDS - 1)),
        worst_seam_rad=0.0,
        hop_coverage=float(1.0 - missing.mean()),
    )
    return FixDiagnostics(
        anchor_names=list(ANCHORS),
        frequencies_hz=np.linspace(2.402e9, 2.48e9, NUM_BANDS),
        stage_reached="located",
        band_quality=quality,
        correction=correction,
    )


class TestThresholds:
    def test_defaults_valid(self):
        HealthThresholds()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"outage_missing_fraction": 1.5},
            {"outage_missing_fraction": -0.1},
            {"drift_residual_rad": 0.0},
            {"low_snr_fixes": 0},
            {"stale_fixes": 0},
            {"window": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            HealthThresholds(**kwargs)


class TestBandOutage:
    def test_fires_on_affected_anchor_only(self):
        monitor = AnchorHealthMonitor()
        events = monitor.observe(make_diag(missing_bands=range(4)), 0)
        assert [e.kind for e in events] == ["band_outage"]
        assert events[0].anchor == "AP0"
        assert "4/8 bands unusable" in events[0].message

    def test_below_fraction_does_not_fire(self):
        monitor = AnchorHealthMonitor()
        assert monitor.observe(make_diag(missing_bands=[0]), 0) == []

    def test_edge_triggered_and_rearms(self):
        monitor = AnchorHealthMonitor()
        broken = make_diag(missing_bands=range(4))
        assert len(monitor.observe(broken, 0)) == 1
        # Still broken: no duplicate event while the condition holds.
        assert monitor.observe(broken, 1) == []
        # Recovery clears the latch ...
        assert monitor.observe(make_diag(), 2) == []
        # ... so a relapse fires again.
        relapse = monitor.observe(broken, 3)
        assert [e.kind for e in relapse] == ["band_outage"]


class TestDriftAndStreaks:
    def test_phase_offset_drift(self):
        monitor = AnchorHealthMonitor()
        events = monitor.observe(make_diag(residual_rad=1.4, anchor=1), 0)
        assert [(e.kind, e.anchor) for e in events] == [
            ("phase_offset_drift", "AP1")
        ]
        assert events[0].value == pytest.approx(1.4)

    def test_low_snr_needs_consecutive_fixes(self):
        monitor = AnchorHealthMonitor(
            thresholds=HealthThresholds(low_snr_fixes=3)
        )
        quiet = make_diag(snr_db=2.0)
        assert monitor.observe(quiet, 0) == []
        assert monitor.observe(quiet, 1) == []
        events = monitor.observe(quiet, 2)
        assert [e.kind for e in events] == ["low_snr"]
        assert events[0].fix_index == 2

    def test_low_snr_streak_broken_by_good_fix(self):
        monitor = AnchorHealthMonitor(
            thresholds=HealthThresholds(low_snr_fixes=2)
        )
        quiet = make_diag(snr_db=2.0)
        assert monitor.observe(quiet, 0) == []
        assert monitor.observe(make_diag(), 1) == []
        assert monitor.observe(quiet, 2) == []

    def test_stale_anchor(self):
        monitor = AnchorHealthMonitor(
            thresholds=HealthThresholds(stale_fixes=2)
        )
        dead = make_diag(missing_bands=range(NUM_BANDS))
        first = monitor.observe(dead, 0)
        assert [e.kind for e in first] == ["band_outage"]
        second = monitor.observe(dead, 1)
        assert [e.kind for e in second] == ["stale_anchor"]
        assert second[0].anchor == "AP0"


class TestMetricsExport:
    def test_gauges_and_counters_under_observer(self):
        observer = Observability(enabled=True)
        monitor = AnchorHealthMonitor(observer=observer)
        monitor.observe(make_diag(missing_bands=range(4)), 0)
        snapshot = {
            m["name"]: m for m in observer.metrics.snapshot()
        }
        assert snapshot["health.anomalies.band_outage"]["value"] == 1
        gauge = snapshot["health.anchor.AP0.band_coverage"]
        assert gauge["value"] == pytest.approx(0.5)
        assert np.isfinite(snapshot["health.anchor.AP1.snr_db"]["value"])

    def test_disabled_observer_records_nothing(self):
        observer = Observability(enabled=False)
        monitor = AnchorHealthMonitor(observer=observer)
        events = monitor.observe(make_diag(missing_bands=range(4)), 0)
        assert len(events) == 1  # detection still works
        names = {m["name"] for m in observer.metrics.snapshot()}
        assert not any(n.startswith("health.anchor.") for n in names)


class TestAcceptanceInjectedOutage:
    """ISSUE acceptance: an injected single-anchor band outage raises
    ``band_outage`` on the correct anchor."""

    def test_injected_outage_flags_correct_anchor(self):
        model = ChannelMeasurementModel(testbed=vicon_testbed(), seed=11)
        observations = model.measure(Point(0.4, -0.2))
        victim = 2
        bands = list(range(observations.num_bands // 2))
        broken = inject_band_outage(observations, victim, bands)
        localizer = BlocLocalizer(
            config=BlocConfig(grid_resolution_m=0.15)
        )
        diag = localizer.locate(broken, diagnostics=True).diagnostics
        monitor = AnchorHealthMonitor()
        events = monitor.observe(diag, 0)
        outages = [e for e in events if e.kind == "band_outage"]
        assert len(outages) == 1
        assert outages[0].anchor == broken.anchors[victim].name
        assert all(kind in ANOMALY_KINDS for kind in (e.kind for e in events))
