"""Tests for repro.rf.channel_model: the geometry -> channel bridge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.rf.antenna import Anchor
from repro.rf.channel_model import ChannelSimulator
from repro.rf.environment import Environment
from repro.rf.imaging import ImagingConfig
from repro.rf.materials import METAL
from repro.utils.geometry2d import Point


@pytest.fixture()
def simulator():
    env = Environment(width=6.0, height=5.0, origin=Point(-3.0, -2.0))
    return ChannelSimulator(env)


class TestChannel:
    def test_free_space_phase(self):
        """In an anechoic setting the phase matches Eq. 1 exactly."""
        env = Environment(width=6.0, height=5.0, origin=Point(-3.0, -2.0))
        # min_gain=0.3 prunes every wall reflection for this pair but
        # keeps the direct path (gain 0.5), emulating free space.
        sim = ChannelSimulator(
            env, imaging=ImagingConfig(include_scatter=False, min_gain=0.3)
        )
        tx, rx = Point(-1, 0), Point(1, 0)
        f = 2.44e9
        h = sim.channel(tx, rx, f)
        expected = (1.0 / 2.0) * np.exp(
            -2j * np.pi * f * 2.0 / SPEED_OF_LIGHT
        )
        assert complex(h) == pytest.approx(expected, rel=1e-9)

    def test_reciprocity(self, simulator):
        tx, rx = Point(-1.2, 0.3), Point(1.7, 1.1)
        f = np.array([2.41e9, 2.45e9])
        forward = simulator.channel(tx, rx, f)
        backward = simulator.channel(rx, tx, f)
        assert np.allclose(forward, backward)

    def test_path_cache_hit(self, simulator):
        tx, rx = Point(0, 0), Point(1, 1)
        first = simulator.paths(tx, rx)
        second = simulator.paths(tx, rx)
        assert first is second

    def test_frequency_selectivity_with_multipath(self, simulator):
        simulator.environment.add_reflector(
            Point(-1, 1.5), Point(1, 1.5), METAL
        )
        freqs = np.linspace(2.40e9, 2.48e9, 41)
        h = simulator.channel(Point(-1, 0), Point(1, 0), freqs)
        magnitudes = np.abs(h)
        assert magnitudes.max() / magnitudes.min() > 1.05


class TestAnchorChannels:
    def test_channels_to_anchor_shape(self, simulator):
        anchor = Anchor(position=Point(2.9, 0.5), num_antennas=4)
        freqs = [2.41e9, 2.43e9, 2.47e9]
        h = simulator.channels_to_anchor(Point(0, 0), anchor, freqs)
        assert h.shape == (4, 3)

    def test_phase_gradient_encodes_angle(self, simulator):
        """Across a ULA the inter-element phase follows -2 pi l sin(theta)
        / lambda (Section 2.2, 'Measuring Angles')."""
        env = Environment(width=20.0, height=20.0, origin=Point(-10, -10))
        # min_gain above every wall-reflection gain: direct path only.
        sim = ChannelSimulator(
            env, imaging=ImagingConfig(include_scatter=False, min_gain=0.05)
        )
        anchor = Anchor(
            position=Point(0, 0), boresight_rad=0.0, num_antennas=4
        )
        f = 2.44e9
        wavelength = SPEED_OF_LIGHT / f
        theta = np.radians(25.0)
        # Far-field source at that angle (angle measured from boresight
        # towards the +array axis).  Elements with larger index sit
        # towards the +axis, hence closer to the source: the
        # inter-element phase step is *positive* (see
        # repro.core.steering.angle_steering for the convention note).
        direction = Point(np.cos(theta), np.sin(theta))
        source = Point(direction.x * 9.0, direction.y * 9.0)
        h = sim.channels_to_anchor(source, anchor, [f])[:, 0]
        steps = np.angle(h[1:] * np.conj(h[:-1]))
        expected = 2 * np.pi * anchor.spacing_m * np.sin(theta) / wavelength
        assert np.allclose(steps, expected, atol=0.05)


class TestRssi:
    def test_rssi_decreases_with_distance(self, simulator):
        near = simulator.rssi_dbm(Point(0, 0), Point(0.5, 0), 2.44e9)
        far = simulator.rssi_dbm(Point(0, 0), Point(2.5, 0), 2.44e9)
        assert near > far

    def test_tx_power_offset(self, simulator):
        base = simulator.rssi_dbm(Point(0, 0), Point(1, 0), 2.44e9)
        boosted = simulator.rssi_dbm(
            Point(0, 0), Point(1, 0), 2.44e9, tx_power_dbm=10.0
        )
        assert boosted == pytest.approx(base + 10.0)
