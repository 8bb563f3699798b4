"""Tests for repro.sim.metrics: error statistics and spatial maps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.metrics import (
    ErrorStats,
    spatial_rmse_map,
)
from repro.utils.geometry2d import Point

error_samples = st.lists(
    st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=200
)


class TestErrorStats:
    def test_median(self):
        stats = ErrorStats(np.array([1.0, 2.0, 9.0]))
        assert stats.median_m() == 2.0

    def test_percentile(self):
        stats = ErrorStats(np.arange(1, 101, dtype=float))
        assert stats.percentile_m(90) == pytest.approx(90.1)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ErrorStats(np.array([]))

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ErrorStats(np.array([-0.1]))

    def test_summary_format(self):
        stats = ErrorStats(np.array([0.86]))
        text = stats.summary()
        assert "median=86cm" in text

    @given(error_samples)
    @settings(max_examples=50)
    def test_median_between_extremes(self, errors):
        stats = ErrorStats(np.array(errors))
        assert stats.errors_m[0] <= stats.median_m() <= stats.errors_m[-1]


class TestSpatialRmse:
    def test_binning(self):
        truths = [Point(0.25, 0.25), Point(0.3, 0.3), Point(1.7, 1.7)]
        errors = [1.0, 1.0, 2.0]
        x_edges, y_edges, rmse = spatial_rmse_map(
            truths, errors, bounds=(0, 2, 0, 2), bin_size_m=1.0
        )
        assert rmse.shape == (2, 2)
        assert rmse[0, 0] == pytest.approx(1.0)
        assert rmse[1, 1] == pytest.approx(2.0)
        assert np.isnan(rmse[0, 1])

    def test_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            spatial_rmse_map([Point(0, 0)], [], (0, 1, 0, 1))

    def test_invalid_bin(self):
        with pytest.raises(ConfigurationError):
            spatial_rmse_map([Point(0, 0)], [1.0], (0, 1, 0, 1), bin_size_m=0)

    def test_point_on_boundary_clipped(self):
        _, _, rmse = spatial_rmse_map(
            [Point(2.0, 2.0)], [1.0], bounds=(0, 2, 0, 2), bin_size_m=1.0
        )
        assert rmse[1, 1] == pytest.approx(1.0)
