"""Tests for repro.core.localizer: the end-to-end BLoc pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlocConfig, BlocLocalizer
from repro.errors import ConfigurationError, LocalizationError
from repro.sim import ChannelMeasurementModel
from repro.utils.geometry2d import Point


@pytest.fixture(scope="module")
def quiet_observations():
    """Near-ideal measurement on the clutter-free room."""
    from repro.sim.testbed import open_room_testbed

    testbed = open_room_testbed()
    model = ChannelMeasurementModel(
        testbed=testbed,
        seed=77,
        snr_db=40.0,
        oscillator_drift_std=0.0,
        calibration_error_m=0.0,
        element_phase_error_deg=0.0,
        element_gain_error_db=0.0,
    )
    return model.measure(Point(1.1, 0.3))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_resolution_m": 0},
            {"grid_margin_m": -1},
            {"selection": "psychic"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            BlocConfig(**kwargs)


class TestGrid:
    def test_grid_covers_anchors(self, quiet_observations):
        localizer = BlocLocalizer()
        grid = localizer.grid_for(quiet_observations)
        for anchor in quiet_observations.anchors:
            assert grid.contains(anchor.position)

    def test_fixed_bounds(self, quiet_observations):
        localizer = BlocLocalizer(bounds=(-1.0, 1.0, -1.0, 1.0))
        grid = localizer.grid_for(quiet_observations)
        assert grid.x_min == -1.0
        assert grid.x_max == 1.0


class TestLocate:
    def test_accurate_in_clean_conditions(self, quiet_observations):
        localizer = BlocLocalizer()
        result = localizer.locate(quiet_observations)
        error = result.error_m(quiet_observations.ground_truth)
        assert error < 0.25

    def test_keep_map_flag(self, quiet_observations):
        localizer = BlocLocalizer()
        with_map = localizer.locate(quiet_observations, keep_map=True)
        without = localizer.locate(quiet_observations, keep_map=False)
        assert with_map.likelihood is not None
        assert without.likelihood is None

    def test_scored_peaks_available(self, quiet_observations):
        result = BlocLocalizer().locate(quiet_observations)
        assert len(result.scored_peaks) >= 1
        assert result.scored_peaks[0].score >= result.scored_peaks[-1].score

    def test_refinement_moves_subgrid(self, quiet_observations):
        coarse = BlocLocalizer(
            config=BlocConfig(grid_resolution_m=0.1, refine_peaks=False)
        ).locate(quiet_observations)
        refined = BlocLocalizer(
            config=BlocConfig(grid_resolution_m=0.1, refine_peaks=True)
        ).locate(quiet_observations)
        truth = quiet_observations.ground_truth
        assert refined.error_m(truth) <= coarse.error_m(truth) + 1e-9

    def test_selection_strategies_yield_positions(self, quiet_observations):
        for selection in ("score", "shortest", "max_likelihood"):
            localizer = BlocLocalizer(
                config=BlocConfig(selection=selection)
            )
            result = localizer.locate(quiet_observations)
            assert result.position is not None

    def test_shortest_selection_orders_by_distance(self, quiet_observations):
        localizer = BlocLocalizer(config=BlocConfig(selection="shortest"))
        result = localizer.locate(quiet_observations)
        sums = [s.distance_sum_m for s in result.scored_peaks]
        assert sums == sorted(sums)

    def test_stages_composable(self, quiet_observations):
        """correct -> map -> pick can be driven manually."""
        localizer = BlocLocalizer()
        corrected = localizer.correct(quiet_observations)
        grid = localizer.grid_for(quiet_observations)
        likelihood = localizer.map_likelihood(corrected, grid)
        scored = localizer.pick_peak(likelihood, corrected)
        assert scored[0].peak.value > 0


class TestDegenerateAnchorCount:
    """The master alone has no cross-anchor geometry: the default grid
    is its own 0.25 m margin, so a map over it can only answer next to
    the master.  BLoc refuses instead of returning that position."""

    @pytest.mark.parametrize(
        "tag", [Point(-1.0, 1.2), Point(0.5, 0.5), Point(1.5, -1.0)]
    )
    def test_master_only_raises(self, tag):
        from repro.sim.testbed import open_room_testbed

        testbed = open_room_testbed()
        model = ChannelMeasurementModel(testbed=testbed, seed=3)
        master_only = model.measure(tag).select_anchors(
            [testbed.master_index]
        )
        localizer = BlocLocalizer(config=BlocConfig(grid_resolution_m=0.1))
        with pytest.raises(LocalizationError, match=">= 2 anchors, got 1"):
            localizer.locate(master_only)
        with pytest.raises(LocalizationError) as caught:
            localizer.locate(master_only, diagnostics=True)
        assert caught.value.diagnostics is not None

    def test_map_of_one_anchor_still_computes(self, quiet_observations):
        # Fig. 6 maps a single anchor on purpose: only locate() refuses.
        localizer = BlocLocalizer(config=BlocConfig(grid_resolution_m=0.1))
        master_only = quiet_observations.select_anchors(
            [quiet_observations.master_index]
        )
        corrected = localizer.correct(master_only)
        likelihood = localizer.map_likelihood(
            corrected, localizer.grid_for(master_only)
        )
        assert likelihood.num_anchors == 1
        assert likelihood.combined.max() > 0

    def test_two_anchors_locate(self, quiet_observations):
        two = quiet_observations.select_anchors(
            [quiet_observations.master_index, 1]
        )
        result = BlocLocalizer(
            config=BlocConfig(grid_resolution_m=0.1)
        ).locate(two)
        assert np.isfinite(result.position.x)
