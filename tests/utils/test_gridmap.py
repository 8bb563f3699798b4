"""Tests for repro.utils.gridmap.Grid2D."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, GeometryError
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D


@pytest.fixture()
def grid():
    return Grid2D(-1.0, 1.0, 0.0, 0.5, 0.25)


class TestConstruction:
    def test_counts(self, grid):
        assert grid.num_x == 9
        assert grid.num_y == 3
        assert grid.shape == (3, 9)
        assert grid.size == 27

    def test_bad_bounds(self):
        with pytest.raises(GeometryError):
            Grid2D(1.0, -1.0, 0.0, 1.0, 0.1)

    def test_bad_resolution(self):
        with pytest.raises(ConfigurationError):
            Grid2D(0.0, 1.0, 0.0, 1.0, 0.0)

    def test_too_few_nodes(self):
        with pytest.raises(ConfigurationError):
            Grid2D(0.0, 0.1, 0.0, 0.1, 1.0)

    def test_from_bounds(self):
        g = Grid2D.from_bounds((0.0, 1.0, 0.0, 2.0), 0.5)
        assert g.shape == (5, 3)


class TestAxes:
    def test_x_axis_endpoints(self, grid):
        xs = grid.x_axis()
        assert xs[0] == pytest.approx(-1.0)
        assert xs[-1] == pytest.approx(1.0)

    def test_y_axis_spacing(self, grid):
        ys = grid.y_axis()
        assert np.allclose(np.diff(ys), 0.25)

    def test_points_shape_and_order(self, grid):
        pts = grid.points()
        assert pts.shape == (27, 2)
        # Row-major: x varies fastest.
        assert pts[1, 0] - pts[0, 0] == pytest.approx(0.25)
        assert pts[1, 1] == pts[0, 1]


class TestConversions:
    def test_reshape_roundtrip(self, grid):
        flat = np.arange(grid.size, dtype=float)
        shaped = grid.reshape(flat)
        assert shaped.shape == grid.shape
        assert shaped[0, 1] == 1.0

    def test_reshape_wrong_size(self, grid):
        with pytest.raises(ConfigurationError):
            grid.reshape(np.zeros(5))

    def test_index_of_exact_node(self, grid):
        assert grid.index_of(Point(-1.0, 0.0)) == (0, 0)
        assert grid.index_of(Point(1.0, 0.5)) == (2, 8)

    def test_index_of_clips_outside(self, grid):
        assert grid.index_of(Point(-10, -10)) == (0, 0)
        assert grid.index_of(Point(10, 10)) == (2, 8)

    def test_point_at_roundtrip(self, grid):
        p = grid.point_at(1, 4)
        assert grid.index_of(p) == (1, 4)

    def test_point_at_out_of_range(self, grid):
        with pytest.raises(ConfigurationError):
            grid.point_at(5, 0)

    def test_contains(self, grid):
        assert grid.contains(Point(0.0, 0.25))
        assert not grid.contains(Point(0.0, 0.75))

    @given(
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=0, max_value=0.5),
    )
    @settings(max_examples=40)
    def test_nearest_node_within_half_resolution(self, x, y):
        grid = Grid2D(-1.0, 1.0, 0.0, 0.5, 0.25)
        row, col = grid.index_of(Point(x, y))
        node = grid.point_at(row, col)
        assert abs(node.x - x) <= 0.125 + 1e-9
        assert abs(node.y - y) <= 0.125 + 1e-9


class TestCoarsen:
    def test_coarsened_resolution(self, grid):
        coarse = grid.coarsened(2)
        assert coarse.resolution == pytest.approx(0.5)
        assert coarse.x_min == grid.x_min

    def test_coarsened_invalid(self, grid):
        with pytest.raises(ConfigurationError):
            grid.coarsened(0)
