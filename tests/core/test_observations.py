"""Tests for repro.core.observations: the measurement data interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.observations import ChannelObservations
from repro.errors import ConfigurationError, MeasurementError
from repro.rf.antenna import Anchor
from repro.utils.geometry2d import Point


def make_observations(num_anchors=4, num_antennas=4, num_bands=8):
    anchors = [
        Anchor(position=Point(float(i), 0.0), num_antennas=num_antennas,
               name=f"A{i}")
        for i in range(num_anchors)
    ]
    rng = np.random.default_rng(0)
    shape = (num_anchors, num_antennas, num_bands)
    return ChannelObservations(
        anchors=anchors,
        master_index=0,
        frequencies_hz=2.404e9 + 2e6 * np.arange(num_bands),
        tag_to_anchor=rng.normal(size=shape) + 1j * rng.normal(size=shape),
        master_to_anchor=rng.normal(size=shape) + 1j * rng.normal(size=shape),
        ground_truth=Point(0.5, 0.5),
    )


class TestConstruction:
    def test_shapes(self):
        obs = make_observations()
        assert obs.num_anchors == 4
        assert obs.num_antennas == 4
        assert obs.num_bands == 8

    def test_bandwidth(self):
        obs = make_observations(num_bands=8)
        assert obs.bandwidth_hz() == pytest.approx(14e6)

    def test_single_band_bandwidth_zero(self):
        obs = make_observations().select_bands([3])
        assert obs.bandwidth_hz() == 0.0

    def test_shape_mismatch_rejected(self):
        obs = make_observations()
        with pytest.raises(MeasurementError):
            ChannelObservations(
                anchors=obs.anchors,
                master_index=0,
                frequencies_hz=obs.frequencies_hz,
                tag_to_anchor=obs.tag_to_anchor[:, :, :4],
                master_to_anchor=obs.master_to_anchor,
            )

    def test_zero_bands_rejected(self):
        obs = make_observations()
        with pytest.raises(MeasurementError, match="at least one"):
            ChannelObservations(
                anchors=obs.anchors,
                master_index=0,
                frequencies_hz=obs.frequencies_hz[:0],
                tag_to_anchor=obs.tag_to_anchor[:, :, :0],
                master_to_anchor=obs.master_to_anchor[:, :, :0],
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -2.404e9])
    def test_non_finite_or_non_positive_frequency_rejected(self, bad):
        obs = make_observations()
        frequencies = obs.frequencies_hz.copy()
        frequencies[2] = bad
        with pytest.raises(MeasurementError, match="finite and positive"):
            ChannelObservations(
                anchors=obs.anchors,
                master_index=0,
                frequencies_hz=frequencies,
                tag_to_anchor=obs.tag_to_anchor,
                master_to_anchor=obs.master_to_anchor,
            )

    def test_bad_master_index(self):
        obs = make_observations()
        with pytest.raises(ConfigurationError):
            ChannelObservations(
                anchors=obs.anchors,
                master_index=9,
                frequencies_hz=obs.frequencies_hz,
                tag_to_anchor=obs.tag_to_anchor,
                master_to_anchor=obs.master_to_anchor,
            )

    def test_master_property(self):
        obs = make_observations()
        assert obs.master is obs.anchors[0]


class TestBandSelection:
    def test_select_bands(self):
        obs = make_observations()
        sub = obs.select_bands([0, 2, 4])
        assert sub.num_bands == 3
        assert np.array_equal(
            sub.tag_to_anchor, obs.tag_to_anchor[:, :, [0, 2, 4]]
        )

    def test_select_bands_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            make_observations().select_bands([])

    def test_select_bands_out_of_range(self):
        with pytest.raises(ConfigurationError):
            make_observations().select_bands([99])

    def test_select_bandwidth_window(self):
        obs = make_observations()  # bands every 2 MHz from f0
        sub = obs.select_bandwidth(4e6)
        assert sub.num_bands == 3  # f0, f0+2M, f0+4M

    def test_select_bandwidth_single_channel(self):
        obs = make_observations()
        sub = obs.select_bandwidth(1e6)
        assert sub.num_bands == 1

    def test_subsample(self):
        obs = make_observations()
        sub = obs.subsample_bands(2)
        assert sub.num_bands == 4
        # Full span retained: first and last band survive subsampling of
        # an even count only approximately; check the span is > half.
        assert sub.bandwidth_hz() >= obs.bandwidth_hz() / 2

    def test_subsample_factor_one_identity(self):
        obs = make_observations()
        sub = obs.subsample_bands(1)
        assert np.array_equal(sub.frequencies_hz, obs.frequencies_hz)

    def test_original_unmodified(self):
        obs = make_observations()
        obs.select_bands([0])
        assert obs.num_bands == 8


class TestAntennaSelection:
    def test_select_antennas_trims_data(self):
        obs = make_observations()
        sub = obs.select_antennas(3)
        assert sub.num_antennas == 3
        assert np.array_equal(
            sub.tag_to_anchor, obs.tag_to_anchor[:, :3, :]
        )

    def test_selected_anchor_geometry_preserved(self):
        obs = make_observations()
        sub = obs.select_antennas(2)
        for original, truncated in zip(obs.anchors, sub.anchors):
            for j in range(2):
                a = original.antenna_position(j)
                b = truncated.antenna_position(j)
                assert (a - b).norm() < 1e-12

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            make_observations().select_antennas(0)
        with pytest.raises(ConfigurationError):
            make_observations().select_antennas(5)


class TestAnchorSelection:
    def test_select_anchors_subset(self):
        obs = make_observations()
        sub = obs.select_anchors([0, 2])
        assert sub.num_anchors == 2
        assert sub.anchors[1].name == "A2"
        assert np.array_equal(sub.tag_to_anchor[1], obs.tag_to_anchor[2])

    def test_master_reindexed(self):
        obs = make_observations()
        sub = obs.select_anchors([3, 0, 1])
        assert sub.master_index == sub.anchors.index(obs.anchors[0])

    def test_subset_must_contain_master(self):
        with pytest.raises(ConfigurationError):
            make_observations().select_anchors([1, 2])

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            make_observations().select_anchors([0, 7])

    def test_ground_truth_propagates(self):
        obs = make_observations()
        assert obs.select_anchors([0, 1]).ground_truth == obs.ground_truth
