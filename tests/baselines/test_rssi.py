"""Tests for repro.baselines.rssi: RSSI trilateration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rssi import (
    RssiTrilateration,
    observation_rssi_dbm,
)
from repro.errors import ConfigurationError
from repro.sim import ChannelMeasurementModel
from repro.sim.scenario import sample_tag_positions
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point


@pytest.fixture(scope="module")
def los_model():
    testbed = open_room_testbed()
    return ChannelMeasurementModel(
        testbed=testbed,
        seed=91,
        snr_db=35.0,
        calibration_error_m=0.0,
        element_phase_error_deg=0.0,
        element_gain_error_db=0.0,
    )


class TestRssiExtraction:
    def test_closer_anchor_stronger(self, los_model):
        obs = los_model.measure(Point(0.0, -1.2))  # near AP1 (south)
        rssi = observation_rssi_dbm(obs)
        assert rssi[0] > rssi[2]  # south anchor beats north anchor


class TestTrilateration:
    def test_path_loss_inversion(self):
        baseline = RssiTrilateration(
            rssi_at_1m_dbm=-40.0, path_loss_exponent=2.0
        )
        distances = baseline.distances_from_rssi(np.array([-40.0, -60.0]))
        assert distances[0] == pytest.approx(1.0)
        assert distances[1] == pytest.approx(10.0)

    def test_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            RssiTrilateration(path_loss_exponent=0)

    def test_calibration_recovers_free_space(self, los_model):
        testbed = los_model.testbed
        positions = sample_tag_positions(testbed, 25, seed=5)
        observations = [
            los_model.measure(p, round_index=k)
            for k, p in enumerate(positions)
        ]
        baseline = RssiTrilateration()
        baseline.calibrate(observations)
        # Our channel gain is A/d with A = 1: exponent 2 in power.
        assert baseline.path_loss_exponent == pytest.approx(2.0, abs=0.6)

    def test_locates_roughly_in_los(self, los_model):
        positions = sample_tag_positions(los_model.testbed, 25, seed=5)
        observations = [
            los_model.measure(p, round_index=k)
            for k, p in enumerate(positions)
        ]
        baseline = RssiTrilateration()
        baseline.calibrate(observations)
        errors = []
        for obs in observations[:10]:
            result = baseline.locate(obs)
            errors.append((result.position - obs.ground_truth).norm())
        # RSSI is coarse; LOS free-ish space should still bound it.
        assert np.median(errors) < 1.5

    def test_calibration_needs_ground_truth(self, los_model):
        obs = los_model.measure(Point(0, 0))
        obs.ground_truth = None
        with pytest.raises(ConfigurationError):
            RssiTrilateration().calibrate([obs])
