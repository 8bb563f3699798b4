"""Rooms, reflectors and obstructions: the 2-D world the signals live in.

The environment is a rectangular room (the paper's 5 m x 6 m VICON space)
whose four walls reflect, plus free-standing reflectors (metal cupboards,
robot equipment, screens).  Any reflector whose material has zero or low
transmission also acts as an obstruction that attenuates paths crossing it
-- that is how NLOS situations arise, making "the reflections of the tag
overwhelm the direct path" (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import GeometryError
from repro.rf.materials import CONCRETE, METAL, Material
from repro.utils.geometry2d import Point, Segment, segment_intersection


@dataclass(frozen=True)
class Reflector:
    """A planar reflector face with a material.

    Attributes:
        segment: the face in the 2-D plane.
        material: surface behaviour.
        name: optional label for debugging and plots.
    """

    segment: Segment
    material: Material
    name: str = ""

    def blocks(self) -> bool:
        """Whether this face meaningfully attenuates through-paths."""
        return self.material.transmission < 0.999


@dataclass
class Environment:
    """A room plus its contents.

    Attributes:
        width: room extent along x [m].
        height: room extent along y [m].
        origin: coordinates of the room's lower-left corner.
        wall_material: material of the four boundary walls.
        reflectors: free-standing reflector faces inside the room.
    """

    width: float
    height: float
    origin: Point = field(default_factory=lambda: Point(0.0, 0.0))
    wall_material: Material = CONCRETE
    reflectors: List[Reflector] = field(default_factory=list)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise GeometryError("room dimensions must be positive")
        self._walls = self._build_walls()

    def _build_walls(self) -> List[Reflector]:
        o = self.origin
        corners = [
            o,
            Point(o.x + self.width, o.y),
            Point(o.x + self.width, o.y + self.height),
            Point(o.x, o.y + self.height),
        ]
        names = ["south", "east", "north", "west"]
        walls = []
        for k in range(4):
            walls.append(
                Reflector(
                    segment=Segment(corners[k], corners[(k + 1) % 4]),
                    material=self.wall_material,
                    name=f"wall-{names[k]}",
                )
            )
        return walls

    # -- queries ------------------------------------------------------------

    @property
    def walls(self) -> List[Reflector]:
        """The four boundary walls."""
        return list(self._walls)

    def all_faces(self) -> List[Reflector]:
        """Walls followed by interior reflectors."""
        return self.walls + list(self.reflectors)

    def bounds(self) -> Tuple[float, float, float, float]:
        """Room rectangle as ``(x_min, x_max, y_min, y_max)``."""
        return (
            self.origin.x,
            self.origin.x + self.width,
            self.origin.y,
            self.origin.y + self.height,
        )

    def contains(self, p: Point, margin: float = 0.0) -> bool:
        """Whether ``p`` is inside the room, ``margin`` away from walls."""
        x_min, x_max, y_min, y_max = self.bounds()
        return (
            x_min + margin <= p.x <= x_max - margin
            and y_min + margin <= p.y <= y_max - margin
        )

    def add_reflector(
        self,
        a: Point,
        b: Point,
        material: Material = METAL,
        name: str = "",
    ) -> Reflector:
        """Add an interior reflector face and return it."""
        for endpoint in (a, b):
            if not self.contains(endpoint):
                raise GeometryError(
                    f"reflector endpoint {tuple(endpoint)} outside the room"
                )
        reflector = Reflector(segment=Segment(a, b), material=material, name=name)
        self.reflectors.append(reflector)
        return reflector

    # -- obstruction handling ---------------------------------------------

    def transmission_along(
        self,
        a: Point,
        b: Point,
        ignore: Sequence[Reflector] = (),
    ) -> float:
        """Amplitude factor a straight path from ``a`` to ``b`` keeps after
        punching through every blocking face it crosses.

        Faces listed in ``ignore`` are skipped; the ray tracer uses this to
        avoid counting the reflector a path is bouncing off as blocking it.
        Walls are not tested: both endpoints are indoors, so a direct
        segment between them cannot cross a boundary wall.
        """
        path = Segment(a, b) if (b - a).norm() > 1e-12 else None
        if path is None:
            return 1.0
        ignored = set(id(r) for r in ignore)
        factor = 1.0
        for reflector in self.reflectors:
            if id(reflector) in ignored or not reflector.blocks():
                continue
            hit = segment_intersection(path, reflector.segment)
            if hit is None:
                continue
            # A hit at the very endpoint means the path starts/ends on the
            # face (e.g. the bounce point itself); that is not a crossing.
            if (hit - a).norm() < 1e-9 or (hit - b).norm() < 1e-9:
                continue
            factor *= reflector.material.transmission
        return factor
