"""Tests for repro.core.entropy: the Section 5.4 spatial-entropy cue."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BLOC_ENTROPY_WINDOW
from repro.core.entropy import (
    negentropy,
    neighborhood_negentropy,
    shannon_entropy,
)
from repro.core.peaks import Peak
from repro.errors import ConfigurationError
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D

positive_arrays = st.lists(
    st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=50
)


class TestShannonEntropy:
    def test_uniform_is_log_n(self):
        assert shannon_entropy(np.ones(8)) == pytest.approx(np.log(8))

    def test_delta_is_zero(self):
        values = np.zeros(10)
        values[3] = 5.0
        assert shannon_entropy(values) == pytest.approx(0.0)

    def test_all_zero_treated_flat(self):
        assert shannon_entropy(np.zeros(9)) == pytest.approx(np.log(9))

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            shannon_entropy(np.array([1.0, -0.1]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            shannon_entropy(np.array([]))

    @given(positive_arrays)
    @settings(max_examples=50)
    def test_bounds(self, values):
        arr = np.asarray(values)
        h = shannon_entropy(arr)
        assert -1e-9 <= h <= np.log(arr.size) + 1e-9

    def test_scale_invariant(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert shannon_entropy(values) == pytest.approx(
            shannon_entropy(values * 7.3)
        )


class TestNegentropy:
    def test_flat_is_zero(self):
        assert negentropy(np.ones((7, 7))) == pytest.approx(0.0)

    def test_delta_is_log_n(self):
        values = np.zeros((7, 7))
        values[3, 3] = 1.0
        assert negentropy(values) == pytest.approx(np.log(49))

    def test_peaky_exceeds_spread(self):
        """The paper's discriminator: direct-path (peaky) > reflection
        (spread)."""
        x = np.linspace(-3, 3, 7)
        xx, yy = np.meshgrid(x, x)
        peaky = np.exp(-(xx**2 + yy**2) / 0.5)
        spread = np.exp(-(xx**2 + yy**2) / 20.0)
        assert negentropy(peaky) > negentropy(spread)


def peak_neighborhood_entropy(
    values, grid, peak, window=BLOC_ENTROPY_WINDOW
):
    """H of one peak through the stacked reduction."""
    return float(
        neighborhood_negentropy(
            values, grid, np.array([peak.row]), np.array([peak.col]), window
        )[0]
    )


class TestPeakNeighborhood:
    @pytest.fixture()
    def grid(self):
        return Grid2D(0.0, 2.0, 0.0, 2.0, 0.1)

    def _peak_at(self, grid, x, y):
        row, col = grid.index_of(Point(x, y))
        return Peak(row=row, col=col, position=Point(x, y), value=1.0)

    def test_peaky_vs_flat_neighbourhood(self, grid):
        points = grid.points()
        d2 = (points[:, 0] - 1.0) ** 2 + (points[:, 1] - 1.0) ** 2
        peaky_map = grid.reshape(np.exp(-d2 / 0.005))
        flat_map = np.ones(grid.shape)
        flat_map[grid.index_of(Point(1.0, 1.0))] += 1e-6
        peak = self._peak_at(grid, 1.0, 1.0)
        assert peak_neighborhood_entropy(
            peaky_map, grid, peak
        ) > peak_neighborhood_entropy(flat_map, grid, peak)

    def test_window_validation(self, grid):
        peak = self._peak_at(grid, 1.0, 1.0)
        for window in (-3, 0, 1, 4):
            with pytest.raises(ConfigurationError):
                peak_neighborhood_entropy(
                    np.ones(grid.shape), grid, peak, window=window
                )

    def test_corner_peak_clipped_window(self, grid):
        values = np.ones(grid.shape)
        values[0, 0] = 2.0
        peak = self._peak_at(grid, 0.0, 0.0)
        h = peak_neighborhood_entropy(values, grid, peak)
        assert np.isfinite(h)
