"""Tests for repro.sim.scenario: tag placement sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.scenario import (
    sample_tag_positions,
)
from repro.sim.testbed import open_room_testbed


@pytest.fixture(scope="module")
def testbed():
    return open_room_testbed()


class TestSampling:
    def test_count_and_bounds(self, testbed):
        positions = sample_tag_positions(testbed, 50, seed=1)
        assert len(positions) == 50
        x_min, x_max, y_min, y_max = testbed.tag_area_bounds()
        for p in positions:
            assert x_min <= p.x <= x_max
            assert y_min <= p.y <= y_max

    def test_deterministic(self, testbed):
        a = sample_tag_positions(testbed, 10, seed=2)
        b = sample_tag_positions(testbed, 10, seed=2)
        assert a == b

    def test_min_separation_respected(self, testbed):
        positions = sample_tag_positions(
            testbed, 40, seed=3, min_separation_m=0.3
        )
        arr = np.array([tuple(p) for p in positions])
        for i in range(len(arr)):
            for j in range(i + 1, len(arr)):
                assert np.linalg.norm(arr[i] - arr[j]) >= 0.3

    def test_impossible_separation_raises(self, testbed):
        with pytest.raises(ConfigurationError):
            sample_tag_positions(
                testbed, 1000, seed=4, min_separation_m=1.0
            )

    def test_invalid_count(self, testbed):
        with pytest.raises(ConfigurationError):
            sample_tag_positions(testbed, 0)

    def test_paper_scale_density_feasible(self, testbed):
        """The paper's 1700 points with ~10 cm neighbour spacing fit the
        room; verify a scaled-down version of that density works."""
        positions = sample_tag_positions(
            testbed, 200, seed=5, min_separation_m=0.1
        )
        assert len(positions) == 200
