"""Tests for repro.rf.environment: rooms, reflectors, obstructions."""

from __future__ import annotations

import pytest

from repro.errors import GeometryError
from repro.rf.environment import Environment
from repro.rf.materials import DRYWALL, GLASS, METAL
from repro.utils.geometry2d import Point


@pytest.fixture()
def room():
    return Environment(width=6.0, height=5.0, origin=Point(-3.0, -2.0))


class TestRoom:
    def test_invalid_dimensions(self):
        with pytest.raises(GeometryError):
            Environment(width=0, height=5)

    def test_four_walls(self, room):
        walls = room.walls
        assert len(walls) == 4
        names = {w.name for w in walls}
        assert names == {"wall-south", "wall-east", "wall-north", "wall-west"}

    def test_wall_lengths(self, room):
        lengths = sorted(w.segment.length() for w in room.walls)
        assert lengths == pytest.approx([5.0, 5.0, 6.0, 6.0])

    def test_bounds(self, room):
        assert room.bounds() == (-3.0, 3.0, -2.0, 3.0)

    def test_contains_with_margin(self, room):
        assert room.contains(Point(0, 0))
        assert room.contains(Point(-2.9, 2.9))
        assert not room.contains(Point(-2.9, 2.9), margin=0.2)
        assert not room.contains(Point(4, 0))


class TestReflectors:
    def test_add_reflector(self, room):
        r = room.add_reflector(Point(0, 0), Point(1, 0), METAL, name="r")
        assert r in room.reflectors
        assert r in room.all_faces()

    def test_add_outside_raises(self, room):
        with pytest.raises(GeometryError):
            room.add_reflector(Point(0, 0), Point(10, 0), METAL)

    def test_blocks(self, room):
        metal = room.add_reflector(Point(0, 0), Point(1, 0), METAL)
        glass = room.add_reflector(Point(0, 1), Point(1, 1), GLASS)
        assert metal.blocks()
        assert glass.blocks()  # partially


class TestTransmission:
    def test_clear_path(self, room):
        assert room.transmission_along(Point(-2, -1), Point(2, 2)) == 1.0

    def test_opaque_obstruction(self, room):
        room.add_reflector(Point(0, -1.5), Point(0, 1.5), METAL)
        factor = room.transmission_along(Point(-1, 0), Point(1, 0))
        assert factor == 0.0

    def test_partial_obstruction(self, room):
        room.add_reflector(Point(0, -1.5), Point(0, 1.5), DRYWALL)
        factor = room.transmission_along(Point(-1, 0), Point(1, 0))
        assert factor == pytest.approx(DRYWALL.transmission)

    def test_two_obstructions_multiply(self, room):
        room.add_reflector(Point(-0.5, -1.5), Point(-0.5, 1.5), DRYWALL)
        room.add_reflector(Point(0.5, -1.5), Point(0.5, 1.5), DRYWALL)
        factor = room.transmission_along(Point(-1, 0), Point(1, 0))
        assert factor == pytest.approx(DRYWALL.transmission**2)

    def test_ignore_list(self, room):
        blocker = room.add_reflector(Point(0, -1.5), Point(0, 1.5), METAL)
        factor = room.transmission_along(
            Point(-1, 0), Point(1, 0), ignore=[blocker]
        )
        assert factor == 1.0

    def test_endpoint_on_face_not_a_crossing(self, room):
        blocker = room.add_reflector(Point(0, -1.5), Point(0, 1.5), METAL)
        # Path starting exactly on the face is not attenuated by it.
        factor = room.transmission_along(Point(0, 0), Point(1, 0))
        assert factor == 1.0

    def test_zero_length_path(self, room):
        assert room.transmission_along(Point(0, 0), Point(0, 0)) == 1.0
