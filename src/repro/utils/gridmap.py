"""A rectangular 2-D grid for likelihood maps over the room.

The localizer evaluates Eq. 17 of the paper on a regular grid of candidate
positions; :class:`Grid2D` owns the grid geometry (axes, flattened candidate
points, index <-> coordinate conversions, neighbourhood windows) so the DSP
code never re-derives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError, GeometryError
from repro.utils.geometry2d import Point


@dataclass(frozen=True)
class Grid2D:
    """Regular grid covering ``[x_min, x_max] x [y_min, y_max]``.

    Attributes:
        x_min, x_max, y_min, y_max: bounds of the covered rectangle [m].
        resolution: spacing between adjacent grid nodes [m].
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: float

    def __post_init__(self):
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise GeometryError("grid bounds must satisfy min < max")
        if self.resolution <= 0:
            raise ConfigurationError("grid resolution must be > 0")
        if self.num_x < 2 or self.num_y < 2:
            raise ConfigurationError("grid must have at least 2x2 nodes")

    # -- axes ---------------------------------------------------------------

    @property
    def num_x(self) -> int:
        """Number of nodes along x."""
        return int(round((self.x_max - self.x_min) / self.resolution)) + 1

    @property
    def num_y(self) -> int:
        """Number of nodes along y."""
        return int(round((self.y_max - self.y_min) / self.resolution)) + 1

    @property
    def shape(self) -> Tuple[int, int]:
        """Map shape as ``(num_y, num_x)`` (row = y, column = x)."""
        return (self.num_y, self.num_x)

    @property
    def size(self) -> int:
        """Total number of grid nodes."""
        return self.num_x * self.num_y

    def x_axis(self) -> np.ndarray:
        """x coordinates of the grid columns."""
        return self.x_min + self.resolution * np.arange(self.num_x)

    def y_axis(self) -> np.ndarray:
        """y coordinates of the grid rows."""
        return self.y_min + self.resolution * np.arange(self.num_y)

    # -- candidate points -----------------------------------------------

    def points(self) -> np.ndarray:
        """All grid nodes as an ``(size, 2)`` array, row-major over (y, x)."""
        xs, ys = np.meshgrid(self.x_axis(), self.y_axis())
        return np.column_stack([xs.ravel(), ys.ravel()])

    def reshape(self, flat_values: np.ndarray) -> np.ndarray:
        """Reshape a flat per-node vector into the 2-D map layout."""
        arr = np.asarray(flat_values)
        if arr.shape[0] != self.size:
            raise ConfigurationError(
                f"expected {self.size} values, got {arr.shape[0]}"
            )
        return arr.reshape(self.shape)

    # -- conversions ------------------------------------------------------

    def index_of(self, point: Point) -> Tuple[int, int]:
        """(row, col) of the nearest grid node to ``point`` (clipped)."""
        col = int(round((point.x - self.x_min) / self.resolution))
        row = int(round((point.y - self.y_min) / self.resolution))
        col = min(max(col, 0), self.num_x - 1)
        row = min(max(row, 0), self.num_y - 1)
        return row, col

    def point_at(self, row: int, col: int) -> Point:
        """Coordinates of the node at ``(row, col)``."""
        if not (0 <= row < self.num_y and 0 <= col < self.num_x):
            raise ConfigurationError(
                f"grid index ({row}, {col}) out of bounds for {self.shape}"
            )
        return Point(
            self.x_min + col * self.resolution,
            self.y_min + row * self.resolution,
        )

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside the grid rectangle."""
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_bounds(
        bounds: Tuple[float, float, float, float], resolution: float
    ) -> "Grid2D":
        """Build from a ``(x_min, x_max, y_min, y_max)`` tuple."""
        x_min, x_max, y_min, y_max = bounds
        return Grid2D(x_min, x_max, y_min, y_max, resolution)

    def coarsened(self, factor: int) -> "Grid2D":
        """A grid over the same area with ``factor`` times the spacing."""
        if factor < 1:
            raise ConfigurationError("coarsening factor must be >= 1")
        return Grid2D(
            self.x_min,
            self.x_max,
            self.y_min,
            self.y_max,
            self.resolution * factor,
        )
