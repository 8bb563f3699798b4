"""End-to-end integration tests across all subsystems.

These are the "does the whole paper pipeline hang together" checks:
IQ-level measurement through the real CSI extractor feeding the real
localizer; the two measurement fidelities agreeing; schemes keeping their
expected ordering on a shared miniature dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AoaLocalizer,
    BlocConfig,
    BlocLocalizer,
    build_dataset,
    evaluate,
)
from repro.ble.channels import ChannelMap
from repro.core import correct_phase_offsets
from repro.sim import ChannelMeasurementModel, IqMeasurementModel
from repro.sim.testbed import open_room_testbed, vicon_testbed
from repro.utils.geometry2d import Point


class TestIqPipeline:
    @pytest.fixture(scope="class")
    def iq_observations(self):
        testbed = open_room_testbed()
        model = IqMeasurementModel(
            testbed=testbed,
            seed=21,
            snr_db=40.0,
            channel_map=ChannelMap(tuple(range(0, 37, 4))),
        )
        return model.measure(Point(0.7, -0.5))

    def test_iq_measurement_localizes(self, iq_observations):
        result = BlocLocalizer().locate(iq_observations)
        error = result.error_m(iq_observations.ground_truth)
        assert error < 0.5

    def test_fidelities_agree_after_correction(self, iq_observations):
        """Channel-fidelity and IQ-fidelity measurements of the same
        scene must produce compatible *corrected* channels: their phase
        difference should be a smooth function, not noise."""
        testbed = open_room_testbed()
        channel_model = ChannelMeasurementModel(
            testbed=testbed,
            seed=22,
            snr_db=60.0,
            oscillator_drift_std=0.0,
            calibration_error_m=0.0,
            element_phase_error_deg=0.0,
            element_gain_error_db=0.0,
            channel_map=ChannelMap(tuple(range(0, 37, 4))),
        )
        channel_obs = channel_model.measure(Point(0.7, -0.5))
        alpha_iq = correct_phase_offsets(iq_observations).alpha
        alpha_ch = correct_phase_offsets(channel_obs).alpha
        # Compare phases of corrected channels for one slave anchor; the
        # IQ chain has an overall scale, so compare phase differences.
        phase_iq = np.angle(alpha_iq[1, 0, :] * np.conj(alpha_iq[1, 0, 0]))
        phase_ch = np.angle(alpha_ch[1, 0, :] * np.conj(alpha_ch[1, 0, 0]))
        mismatch = np.angle(np.exp(1j * (phase_iq - phase_ch)))
        assert np.max(np.abs(mismatch)) < 0.35


class TestSchemeOrdering:
    @pytest.fixture(scope="class")
    def mini_dataset(self):
        testbed = vicon_testbed()
        return build_dataset(testbed, num_positions=15, seed=23)

    @pytest.fixture(scope="class")
    def runs(self, mini_dataset):
        config = BlocConfig(grid_resolution_m=0.08)
        return {
            "bloc": evaluate(BlocLocalizer(config=config), mini_dataset),
            "aoa": evaluate(AoaLocalizer(), mini_dataset),
            "shortest": evaluate(
                BlocLocalizer(
                    config=BlocConfig(
                        grid_resolution_m=0.08, selection="shortest"
                    )
                ),
                mini_dataset,
            ),
        }

    def test_bloc_beats_aoa(self, runs):
        assert (
            runs["bloc"].stats().median_m()
            < runs["aoa"].stats().median_m()
        )

    def test_bloc_beats_shortest(self, runs):
        assert (
            runs["bloc"].stats().median_m()
            < runs["shortest"].stats().median_m()
        )

    def test_no_failures(self, runs):
        for run in runs.values():
            assert run.num_failed == 0

    def test_bandwidth_helps(self, mini_dataset):
        config = BlocConfig(grid_resolution_m=0.08)
        bloc = BlocLocalizer(config=config)
        full = evaluate(bloc, mini_dataset)
        narrow = evaluate(
            bloc,
            mini_dataset,
            transform=lambda o: o.select_bandwidth(2e6),
        )
        assert (
            full.stats().median_m() < narrow.stats().median_m() * 1.05
        )


class TestRepeatability:
    def test_same_seed_same_fix(self):
        testbed = vicon_testbed()
        model = ChannelMeasurementModel(testbed=testbed, seed=29)
        localizer = BlocLocalizer(config=BlocConfig(grid_resolution_m=0.08))
        tag = Point(0.4, 1.1)
        first = localizer.locate(model.measure(tag), keep_map=False)
        second = localizer.locate(model.measure(tag), keep_map=False)
        assert (first.position - second.position).norm() < 1e-12
