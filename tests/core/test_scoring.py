"""Tests for repro.core.scoring: the Eq. 18 direct-path score."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.peaks import Peak
from repro.core.scoring import (
    ScoringConfig,
    score_peaks,
)
from repro.errors import ConfigurationError, LocalizationError
from repro.rf.antenna import Anchor
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D


@pytest.fixture()
def grid():
    return Grid2D(0.0, 4.0, 0.0, 4.0, 0.1)


@pytest.fixture()
def anchors():
    return [
        Anchor(position=Point(0.0, 0.0), name="A"),
        Anchor(position=Point(4.0, 0.0), name="B"),
    ]


def peak_at(grid, x, y, value):
    row, col = grid.index_of(Point(x, y))
    return Peak(row=row, col=col, position=grid.point_at(row, col), value=value)


def bump_map(grid, centres_heights, sigma=0.15):
    points = grid.points()
    total = np.zeros(points.shape[0])
    for (cx, cy), height in centres_heights:
        d2 = (points[:, 0] - cx) ** 2 + (points[:, 1] - cy) ** 2
        total += height * np.exp(-d2 / (2 * sigma**2))
    return grid.reshape(total)


class TestScore:
    def test_likelihood_dominates_all_else_equal(self, grid, anchors):
        values = bump_map(grid, [((1.0, 2.0), 1.0), ((3.0, 2.0), 0.6)])
        peaks = [peak_at(grid, 1.0, 2.0, 1.0), peak_at(grid, 3.0, 2.0, 0.6)]
        scored = score_peaks(peaks, values, grid, anchors)
        # Symmetric geometry (same sum of anchor distances): the higher
        # peak must win.
        assert scored[0].peak.position.x == pytest.approx(1.0, abs=0.05)

    def test_distance_term_prefers_closer(self, grid, anchors):
        # Equal peaks; one implies much longer travelled paths.
        values = bump_map(grid, [((2.0, 0.5), 1.0), ((2.0, 3.5), 1.0)])
        peaks = [peak_at(grid, 2.0, 0.5, 1.0), peak_at(grid, 2.0, 3.5, 1.0)]
        scored = score_peaks(
            peaks, values, grid, anchors,
            ScoringConfig(distance_weight=0.3, entropy_weight=0.0),
        )
        assert scored[0].peak.position.y == pytest.approx(0.5, abs=0.05)

    def test_entropy_term_prefers_peaky(self, grid, anchors):
        values = bump_map(grid, [((1.0, 2.0), 1.0)], sigma=0.08) + bump_map(
            grid, [((3.0, 2.0), 1.0)], sigma=1.2
        )
        peaks = [
            peak_at(grid, 1.0, 2.0, float(values[grid.index_of(Point(1, 2))])),
            peak_at(grid, 3.0, 2.0, float(values[grid.index_of(Point(3, 2))])),
        ]
        scored = score_peaks(
            peaks, values, grid, anchors,
            ScoringConfig(distance_weight=0.0, entropy_weight=0.5),
        )
        assert scored[0].peak.position.x == pytest.approx(1.0, abs=0.05)

    def test_scores_sorted_descending(self, grid, anchors):
        values = bump_map(
            grid, [((1.0, 1.0), 1.0), ((3.0, 3.0), 0.8), ((2.0, 2.0), 0.5)]
        )
        peaks = [
            peak_at(grid, 1.0, 1.0, 1.0),
            peak_at(grid, 3.0, 3.0, 0.8),
            peak_at(grid, 2.0, 2.0, 0.5),
        ]
        scored = score_peaks(peaks, values, grid, anchors)
        assert all(
            a.score >= b.score for a, b in zip(scored, scored[1:])
        )

    def test_breakdown_fields(self, grid, anchors):
        values = bump_map(grid, [((2.0, 2.0), 1.0)])
        scored = score_peaks(
            [peak_at(grid, 2.0, 2.0, 1.0)], values, grid, anchors
        )
        entry = scored[0]
        expected_sum = (
            Point(2.0, 2.0) - anchors[0].position
        ).norm() + (Point(2.0, 2.0) - anchors[1].position).norm()
        assert entry.distance_sum_m == pytest.approx(expected_sum, abs=0.1)
        assert entry.entropy >= 0.0
        assert entry.score > 0.0

    def test_empty_peaks_raises(self, grid, anchors):
        with pytest.raises(LocalizationError):
            score_peaks([], np.ones(grid.shape), grid, anchors)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ScoringConfig(entropy_window=6)
