"""Tests for repro.rf.antenna: ULAs and anchor geometry."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rf.antenna import (
    HALF_WAVELENGTH_M,
    Anchor,
    default_anchor_ring,
)
from repro.utils.geometry2d import Point


class TestAnchor:
    def test_defaults(self):
        anchor = Anchor(position=Point(0, 0))
        assert anchor.num_antennas == 4
        assert anchor.spacing_m == pytest.approx(HALF_WAVELENGTH_M)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            Anchor(position=Point(0, 0), num_antennas=0)
        with pytest.raises(ConfigurationError):
            Anchor(position=Point(0, 0), spacing_m=0)

    def test_elements_centred(self):
        anchor = Anchor(position=Point(1, 2), num_antennas=4, spacing_m=0.1)
        positions = np.array([tuple(p) for p in anchor.antenna_positions()])
        centroid = positions.mean(axis=0)
        assert centroid[0] == pytest.approx(1.0)
        assert centroid[1] == pytest.approx(2.0)

    def test_element_spacing(self):
        anchor = Anchor(position=Point(0, 0), num_antennas=4, spacing_m=0.1)
        positions = np.array([tuple(p) for p in anchor.antenna_positions()])
        gaps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        assert np.allclose(gaps, 0.1)

    def test_array_axis_perpendicular_to_boresight(self):
        anchor = Anchor(position=Point(0, 0), boresight_rad=0.7)
        axis = anchor.array_axis()
        boresight = Point(math.cos(0.7), math.sin(0.7))
        assert axis.dot(boresight) == pytest.approx(0.0, abs=1e-12)

    def test_antenna_index_bounds(self):
        anchor = Anchor(position=Point(0, 0), num_antennas=2)
        with pytest.raises(ConfigurationError):
            anchor.antenna_position(2)

    def test_angle_to_boresight_zero(self):
        anchor = Anchor(position=Point(0, 0), boresight_rad=0.0)
        assert anchor.angle_to(Point(5, 0)) == pytest.approx(0.0)

    def test_angle_to_side(self):
        anchor = Anchor(position=Point(0, 0), boresight_rad=0.0)
        # Target along +array axis (which is +y for boresight 0).
        assert anchor.angle_to(Point(0, 3)) == pytest.approx(math.pi / 2)

    def test_angle_wraps(self):
        anchor = Anchor(position=Point(0, 0), boresight_rad=math.pi)
        angle = anchor.angle_to(Point(5, 0.1))
        assert -math.pi <= angle <= math.pi


class TestTruncated:
    def test_keeps_physical_positions(self):
        anchor = Anchor(position=Point(0, 0), num_antennas=4, spacing_m=0.1)
        truncated = anchor.truncated(3)
        for j in range(3):
            original = anchor.antenna_position(j)
            kept = truncated.antenna_position(j)
            assert kept.x == pytest.approx(original.x, abs=1e-12)
            assert kept.y == pytest.approx(original.y, abs=1e-12)

    def test_invalid_truncation(self):
        anchor = Anchor(position=Point(0, 0), num_antennas=4)
        with pytest.raises(ConfigurationError):
            anchor.truncated(5)
        with pytest.raises(ConfigurationError):
            anchor.truncated(0)

    def test_with_antennas_keeps_centre(self):
        anchor = Anchor(position=Point(2, 3), num_antennas=4)
        redesigned = anchor.with_antennas(3)
        assert redesigned.position == Point(2, 3)
        assert redesigned.num_antennas == 3


class TestAnchorRing:
    def test_four_anchors_on_edges(self):
        ring = default_anchor_ring(6.0, 5.0, origin=Point(-3, -2))
        assert len(ring) == 4
        assert [a.name for a in ring] == ["AP1", "AP2", "AP3", "AP4"]
        south, east, north, west = ring
        assert south.position.y == pytest.approx(-1.9)
        assert east.position.x == pytest.approx(2.9)
        assert north.position.y == pytest.approx(2.9)
        assert west.position.x == pytest.approx(-2.9)

    def test_anchors_face_inward(self):
        ring = default_anchor_ring(6.0, 5.0, origin=Point(-3, -2))
        centre = Point(0.0, 0.5)
        for anchor in ring:
            assert abs(anchor.angle_to(centre)) < math.pi / 2

    def test_invalid_room(self):
        with pytest.raises(ConfigurationError):
            default_anchor_ring(0, 5)

    def test_antenna_count_propagates(self):
        ring = default_anchor_ring(6.0, 5.0, num_antennas=3)
        assert all(a.num_antennas == 3 for a in ring)
