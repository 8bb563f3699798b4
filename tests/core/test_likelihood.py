"""Tests for repro.core.likelihood: Eq. 17 over the 2-D grid.

The per-anchor checks run the direct Eq. 17 oracle; the combined-map
checks run the production path on the steering engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from eq17_oracle import anchor_likelihood_flat

from repro.constants import SPEED_OF_LIGHT
from repro.core.correction import CorrectedChannels, anchor_baselines
from repro.core.engine import SteeringCache
from repro.core.likelihood import compute_likelihood_map
from repro.rf.antenna import Anchor
from repro.utils.geometry2d import Point, distance
from repro.utils.gridmap import Grid2D


def synthetic_corrected(tag: Point, anchors, master_index=0, num_bands=37):
    """Corrected channels for an ideal single-path world: exactly Eq. 14."""
    freqs = 2.404e9 + 2e6 * np.arange(num_bands)
    baselines = anchor_baselines(anchors, master_index)
    reference = anchors[master_index].antenna_position(0)
    d00 = distance(tag, reference)
    num_antennas = anchors[0].num_antennas
    alpha = np.zeros((len(anchors), num_antennas, num_bands), complex)
    for i, anchor in enumerate(anchors):
        for j in range(num_antennas):
            d_ij = distance(tag, anchor.antenna_position(j))
            relative = d_ij - d00 - baselines[i]
            alpha[i, j] = np.exp(
                -2j * np.pi * freqs * relative / SPEED_OF_LIGHT
            )
    return CorrectedChannels(
        anchors=list(anchors),
        master_index=master_index,
        frequencies_hz=freqs,
        alpha=alpha,
        anchor_baselines_m=baselines,
    )


@pytest.fixture()
def anchors():
    return [
        Anchor(position=Point(0.0, -2.4), boresight_rad=np.pi / 2, name="S"),
        Anchor(position=Point(2.9, 0.0), boresight_rad=np.pi, name="E"),
        Anchor(position=Point(0.0, 2.4), boresight_rad=-np.pi / 2, name="N"),
        Anchor(position=Point(-2.9, 0.0), boresight_rad=0.0, name="W"),
    ]


@pytest.fixture()
def grid():
    return Grid2D(-3.0, 3.0, -2.5, 2.5, 0.1)


class TestAnchorLikelihood:
    def test_peak_at_tag_in_ideal_world(self, anchors, grid):
        tag = Point(0.8, -0.4)
        corrected = synthetic_corrected(tag, anchors)
        points = grid.points()
        reference = corrected.master_reference_position().as_array()
        refdist = np.linalg.norm(points - reference[None, :], axis=1)
        flat = anchor_likelihood_flat(corrected, 1, points, refdist)
        best = points[int(np.argmax(flat))]
        assert np.hypot(best[0] - tag.x, best[1] - tag.y) < 0.3

    def test_values_non_negative(self, anchors, grid):
        corrected = synthetic_corrected(Point(0, 0), anchors)
        points = grid.points()
        reference = corrected.master_reference_position().as_array()
        refdist = np.linalg.norm(points - reference[None, :], axis=1)
        flat = anchor_likelihood_flat(corrected, 2, points, refdist)
        assert np.all(flat >= 0)


class TestCombinedMap:
    def test_combined_peak_at_tag(self, anchors, grid):
        tag = Point(-1.1, 0.7)
        corrected = synthetic_corrected(tag, anchors)
        result = compute_likelihood_map(corrected, grid, SteeringCache())
        row, col = np.unravel_index(
            int(np.argmax(result.combined)), result.combined.shape
        )
        best = grid.point_at(int(row), int(col))
        assert (best - tag).norm() < 0.2

    def test_per_anchor_maps_normalised(self, anchors, grid):
        corrected = synthetic_corrected(Point(0.5, 0.5), anchors)
        result = compute_likelihood_map(corrected, grid, SteeringCache())
        assert len(result.per_anchor) == 4
        for m in result.per_anchor:
            assert m.max() == pytest.approx(1.0)

    def test_combined_bounded_by_anchor_count(self, anchors, grid):
        corrected = synthetic_corrected(Point(0.5, 0.5), anchors)
        result = compute_likelihood_map(corrected, grid, SteeringCache())
        assert result.combined.max() <= 4.0 + 1e-9

    def test_master_map_is_angle_cone(self, anchors, grid):
        """The master anchor's own map constrains angle, not range: the
        likelihood stays high along the ray from the master through the
        tag, beyond the tag itself."""
        tag = Point(0.0, 0.6)
        corrected = synthetic_corrected(tag, anchors)
        result = compute_likelihood_map(corrected, grid, SteeringCache())
        master_map = result.per_anchor[0]
        # Points along the master->tag ray (x = 0 vertical line).
        at_tag = master_map[grid.index_of(tag)]
        beyond = master_map[grid.index_of(Point(0.0, 1.8))]
        assert at_tag > 0.8
        assert beyond > 0.6

    def test_normalized_helper(self, anchors, grid):
        corrected = synthetic_corrected(Point(0.5, 0.5), anchors)
        result = compute_likelihood_map(corrected, grid, SteeringCache())
        assert result.normalized().max() == pytest.approx(1.0)
        assert result.num_anchors == 4
