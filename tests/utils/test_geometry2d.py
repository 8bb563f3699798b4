"""Tests for repro.utils.geometry2d: points, segments, reflections."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.utils.geometry2d import (
    Point,
    Segment,
    distance,
    mirror_point,
    segment_intersection,
)

finite_coord = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, finite_coord, finite_coord)


class TestPoint:
    def test_add_subtract(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_scalar_multiplication_both_sides(self):
        assert Point(1, -2) * 3 == Point(3, -6)
        assert 3 * Point(1, -2) == Point(3, -6)

    def test_division(self):
        assert Point(2, 4) / 2 == Point(1, 2)

    def test_iteration_unpacks(self):
        x, y = Point(5, 7)
        assert (x, y) == (5, 7)

    def test_dot_and_cross(self):
        assert Point(1, 0).dot(Point(0, 1)) == 0
        assert Point(1, 0).cross(Point(0, 1)) == 1
        assert Point(0, 1).cross(Point(1, 0)) == -1

    def test_norm(self):
        assert Point(3, 4).norm() == pytest.approx(5.0)

    def test_normalized_unit_length(self):
        n = Point(3, 4).normalized()
        assert n.norm() == pytest.approx(1.0)
        assert n.x == pytest.approx(0.6)

    def test_normalized_zero_raises(self):
        with pytest.raises(GeometryError):
            Point(0, 0).normalized()

    def test_perpendicular_is_ccw(self):
        assert Point(1, 0).perpendicular() == Point(0, 1)

    def test_rotated_quarter_turn(self):
        r = Point(1, 0).rotated(math.pi / 2)
        assert r.x == pytest.approx(0.0, abs=1e-12)
        assert r.y == pytest.approx(1.0)

    def test_angle_to(self):
        assert Point(0, 0).angle_to(Point(1, 1)) == pytest.approx(math.pi / 4)

    def test_array_roundtrip(self):
        p = Point(1.5, -2.5)
        assert Point(*p.as_array()) == p

    def test_frozen(self):
        with pytest.raises(Exception):
            Point(1, 2).x = 3

    @given(points, points)
    def test_distance_symmetry(self, p, q):
        assert distance(p, q) == pytest.approx(distance(q, p))

    @given(points, points, points)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestSegment:
    def test_degenerate_raises(self):
        with pytest.raises(GeometryError):
            Segment(Point(1, 1), Point(1, 1))

    def test_length(self):
        s = Segment(Point(0, 0), Point(4, 0))
        assert s.length() == pytest.approx(4)

    def test_direction_and_normal_orthogonal(self):
        s = Segment(Point(0, 0), Point(2, 2))
        assert s.direction().dot(s.normal()) == pytest.approx(0.0)
        assert s.normal().norm() == pytest.approx(1.0)

    def test_project_parameter(self):
        s = Segment(Point(0, 0), Point(10, 0))
        assert s.project_parameter(Point(3, 5)) == pytest.approx(0.3)

    def test_point_at(self):
        s = Segment(Point(0, 0), Point(10, 0))
        assert s.point_at(0.25) == Point(2.5, 0)


class TestMirrorPoint:
    def test_mirror_across_x_axis(self):
        wall = Segment(Point(-1, 0), Point(1, 0))
        assert mirror_point(Point(0.5, 2), wall) == Point(0.5, -2)

    def test_mirror_across_diagonal(self):
        wall = Segment(Point(0, 0), Point(1, 1))
        m = mirror_point(Point(1, 0), wall)
        assert m.x == pytest.approx(0.0, abs=1e-12)
        assert m.y == pytest.approx(1.0)

    def test_point_on_line_is_fixed(self):
        wall = Segment(Point(0, 0), Point(5, 0))
        m = mirror_point(Point(2, 0), wall)
        assert m.x == pytest.approx(2.0)
        assert m.y == pytest.approx(0.0, abs=1e-12)

    @given(points)
    @settings(max_examples=50)
    def test_mirror_is_involution(self, p):
        wall = Segment(Point(-3, -1), Point(4, 2))
        twice = mirror_point(mirror_point(p, wall), wall)
        assert twice.x == pytest.approx(p.x, abs=1e-6)
        assert twice.y == pytest.approx(p.y, abs=1e-6)

    @given(points)
    @settings(max_examples=50)
    def test_mirror_preserves_distance_to_line(self, p):
        wall = Segment(Point(0, 0), Point(1, 0))
        m = mirror_point(p, wall)
        assert abs(m.y) == pytest.approx(abs(p.y), abs=1e-9)


class TestIntersection:
    def test_crossing_segments(self):
        s1 = Segment(Point(0, -1), Point(0, 1))
        s2 = Segment(Point(-1, 0), Point(1, 0))
        hit = segment_intersection(s1, s2)
        assert hit == Point(0, 0)

    def test_non_crossing(self):
        s1 = Segment(Point(0, 1), Point(1, 1))
        s2 = Segment(Point(0, 0), Point(1, 0))
        assert segment_intersection(s1, s2) is None

    def test_parallel_returns_none(self):
        s1 = Segment(Point(0, 0), Point(1, 0))
        s2 = Segment(Point(0, 1), Point(1, 1))
        assert segment_intersection(s1, s2) is None

    def test_collinear_returns_none(self):
        s1 = Segment(Point(0, 0), Point(1, 0))
        s2 = Segment(Point(0.5, 0), Point(2, 0))
        assert segment_intersection(s1, s2) is None

    def test_touching_at_endpoint(self):
        s1 = Segment(Point(0, 0), Point(1, 0))
        s2 = Segment(Point(1, 0), Point(1, 1))
        hit = segment_intersection(s1, s2)
        assert hit is not None
        assert hit.x == pytest.approx(1.0)


def reflect_across_segment(source, target, segment):
    """Specular bounce point of ``source -> segment -> target`` (image
    method: the mirrored source's line of sight to ``target``)."""
    image = mirror_point(source, segment)
    return segment_intersection(Segment(image, target), segment)


class TestReflectAcrossSegment:
    def test_symmetric_bounce(self):
        wall = Segment(Point(-5, 0), Point(5, 0))
        bounce = reflect_across_segment(Point(-1, 1), Point(1, 1), wall)
        assert bounce is not None
        assert bounce.x == pytest.approx(0.0, abs=1e-9)
        assert bounce.y == pytest.approx(0.0, abs=1e-12)

    def test_bounce_misses_finite_wall(self):
        wall = Segment(Point(10, 0), Point(11, 0))
        assert reflect_across_segment(Point(-1, 1), Point(1, 1), wall) is None

    def test_equal_angles(self):
        wall = Segment(Point(-5, 0), Point(5, 0))
        src, dst = Point(-2, 1), Point(3, 2)
        bounce = reflect_across_segment(src, dst, wall)
        incidence = math.atan2(src.y - bounce.y, src.x - bounce.x)
        departure = math.atan2(dst.y - bounce.y, dst.x - bounce.x)
        # Both measured from the wall plane: angles above the wall match.
        assert math.sin(incidence) == pytest.approx(
            math.sin(math.pi - departure), rel=1e-6
        )

    def test_path_length_equals_image_distance(self):
        wall = Segment(Point(-5, 0), Point(5, 0))
        src, dst = Point(-2, 1.5), Point(3, 2.5)
        bounce = reflect_across_segment(src, dst, wall)
        via = distance(src, bounce) + distance(bounce, dst)
        image = mirror_point(src, wall)
        assert via == pytest.approx(distance(image, dst), rel=1e-9)
