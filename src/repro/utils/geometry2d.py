"""2-D geometry primitives used by the RF ray tracer and the localizer.

The whole evaluation lives in a 2-D plane (the paper localizes in X-Y,
Fig. 6 / Fig. 7c), so points are plain ``(x, y)`` pairs.  :class:`Point` is
an immutable value type with vector arithmetic; heavy lifting over many
points is done with numpy arrays of shape ``(n, 2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import GeometryError


@dataclass(frozen=True)
class Point:
    """An immutable 2-D point / vector with basic arithmetic."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point":
        return Point(self.x / scalar, self.y / scalar)

    def __iter__(self):
        yield self.x
        yield self.y

    def dot(self, other: "Point") -> float:
        """Dot product with ``other``."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z component of the 3-D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length of the vector."""
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Point":
        """Unit vector in the same direction.

        Raises:
            GeometryError: if the vector is (numerically) zero.
        """
        n = self.norm()
        if n < 1e-12:
            raise GeometryError("cannot normalize a zero-length vector")
        return Point(self.x / n, self.y / n)

    def perpendicular(self) -> "Point":
        """Vector rotated 90 degrees counter-clockwise."""
        return Point(-self.y, self.x)

    def rotated(self, angle_rad: float) -> "Point":
        """Vector rotated by ``angle_rad`` counter-clockwise."""
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        return Point(c * self.x - s * self.y, s * self.x + c * self.y)

    def angle_to(self, other: "Point") -> float:
        """Bearing of ``other`` as seen from this point, in radians."""
        return math.atan2(other.y - self.y, other.x - self.x)

    def as_array(self) -> np.ndarray:
        """The point as a ``shape (2,)`` float array."""
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Segment:
    """A finite line segment between two points (a wall, a reflector face)."""

    a: Point
    b: Point

    def __post_init__(self):
        if (self.b - self.a).norm() < 1e-12:
            raise GeometryError("segment endpoints coincide")

    def length(self) -> float:
        """Euclidean length of the segment."""
        return (self.b - self.a).norm()

    def direction(self) -> Point:
        """Unit vector from ``a`` to ``b``."""
        return (self.b - self.a).normalized()

    def normal(self) -> Point:
        """Unit normal (90 degrees counter-clockwise from the direction)."""
        return self.direction().perpendicular()

    def project_parameter(self, p: Point) -> float:
        """Parameter t in [0, 1] of the closest point on the *line* AB."""
        ab = self.b - self.a
        return (p - self.a).dot(ab) / ab.dot(ab)

    def point_at(self, t: float) -> Point:
        """Point at parameter ``t`` along the segment."""
        return self.a + (self.b - self.a) * t


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return (p - q).norm()


def mirror_point(p: Point, segment: Segment) -> Point:
    """Mirror image of ``p`` across the infinite line through ``segment``.

    This is the core operation of the image method for specular reflection:
    the reflected path from ``p`` to a receiver via a planar reflector has
    the same length as the straight line from the mirror image of ``p``.
    """
    d = segment.direction()
    ap = p - segment.a
    # Decompose ap into components parallel and perpendicular to the wall.
    parallel = d * ap.dot(d)
    perpendicular = ap - parallel
    return segment.a + parallel - perpendicular


def segment_intersection(s1: Segment, s2: Segment) -> Optional[Point]:
    """Intersection point of two finite segments, or ``None``.

    Parallel and collinear segments return ``None`` (a grazing path along a
    wall carries no specular energy and is irrelevant for ray tracing).
    """
    p, r = s1.a, s1.b - s1.a
    q, s = s2.a, s2.b - s2.a
    denominator = r.cross(s)
    if abs(denominator) < 1e-12:
        return None
    t = (q - p).cross(s) / denominator
    u = (q - p).cross(r) / denominator
    if -1e-9 <= t <= 1.0 + 1e-9 and -1e-9 <= u <= 1.0 + 1e-9:
        return p + r * t
    return None
