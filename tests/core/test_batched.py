"""Tests for the batched Eq. 17 path: engine, likelihood, localizer."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    BlocConfig,
    BlocLocalizer,
    build_steering_entry,
    compute_likelihood_map,
    correct_phase_offsets,
)
from repro.core.likelihood import compute_likelihood_maps_batched
from repro.core.peaks import (
    PeakConfig,
    find_peaks,
    local_maxima_batch,
    select_peaks,
)
from repro.errors import LocalizationError
from repro.sim import ChannelMeasurementModel
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point


@pytest.fixture(scope="module")
def model():
    return ChannelMeasurementModel(testbed=open_room_testbed(), seed=11)


@pytest.fixture(scope="module")
def batch(model):
    points = [Point(0.4, -0.3), Point(-1.1, 0.8), Point(1.6, 1.9)]
    return [model.measure(p) for p in points]


@pytest.fixture(scope="module")
def localizer():
    return BlocLocalizer(config=BlocConfig(grid_resolution_m=0.3))


class TestEntryLikelihoods:
    def test_rows_match_anchor_likelihood(self, batch, localizer):
        corrected = [correct_phase_offsets(o) for o in batch]
        grid = localizer.grid_for(batch[0])
        entry = build_steering_entry(
            grid,
            corrected[0].anchors,
            corrected[0].master_index,
            corrected[0].anchor_baselines_m,
            corrected[0].frequencies_hz,
        )
        stacked = entry.likelihoods(np.stack([c.alpha for c in corrected]))
        for b, fix in enumerate(corrected):
            for anchor in range(fix.num_anchors):
                single = entry.anchor_likelihood(anchor, fix.alpha[anchor])
                np.testing.assert_allclose(
                    stacked[b, anchor], single, rtol=1e-12, atol=1e-12
                )


class TestLikelihoodMapsBatched:
    def test_matches_per_fix_maps(self, batch, localizer):
        corrected = [correct_phase_offsets(o) for o in batch]
        grid = localizer.grid_for(batch[0])
        maps = compute_likelihood_maps_batched(
            corrected, grid, localizer.engine
        )
        assert len(maps) == len(batch)
        for fix, batched_map in zip(corrected, maps):
            single = compute_likelihood_map(
                fix, grid, engine=localizer.engine
            )
            np.testing.assert_allclose(
                batched_map.combined, single.combined, atol=1e-12
            )

    def test_empty_batch_maps(self, localizer, batch):
        grid = localizer.grid_for(batch[0])
        assert (
            compute_likelihood_maps_batched([], grid, localizer.engine)
            == []
        )


class TestPeaksBatch:
    def test_local_maxima_batch_isolates_maps(self):
        stack = np.zeros((2, 5, 5))
        stack[0, 1, 1] = 1.0
        stack[1, 3, 3] = 1.0
        masks = local_maxima_batch(stack, PeakConfig())
        # Map 0's peak must not suppress map 1's neighbourhood.
        assert masks[0][1, 1] and masks[1][3, 3]

    def test_maxima_then_select_matches_find_peaks(self, batch, localizer):
        # The pair locate_batch runs: one batched mask, per-map select.
        corrected = [correct_phase_offsets(o) for o in batch]
        grid = localizer.grid_for(batch[0])
        maps = compute_likelihood_maps_batched(
            corrected, grid, localizer.engine
        )
        stack = np.stack([m.combined for m in maps])
        masks = local_maxima_batch(stack, PeakConfig())
        for b in range(len(stack)):
            peaks = select_peaks(stack[b], masks[b], grid)
            single = find_peaks(stack[b], grid)
            assert [p.position for p in peaks] == [
                p.position for p in single
            ]


class TestLocateBatch:
    def test_matches_locate_per_fix(self, batch, localizer):
        results = localizer.locate_batch(batch)
        for observations, result in zip(batch, results):
            single = localizer.locate(observations, keep_map=False)
            assert abs(result.position.x - single.position.x) < 1e-9
            assert abs(result.position.y - single.position.y) < 1e-9

    def test_empty_batch(self, localizer):
        assert localizer.locate_batch([]) == []

    def test_errors_returned_not_raised(self, batch, localizer):
        degenerate = dataclasses.replace(
            batch[1],
            tag_to_anchor=np.zeros_like(batch[1].tag_to_anchor),
        )
        results = localizer.locate_batch([batch[0], degenerate, batch[2]])
        assert isinstance(results[1], LocalizationError)
        for index in (0, 2):
            single = localizer.locate(batch[index], keep_map=False)
            assert (
                abs(results[index].position.x - single.position.x) < 1e-9
            )

    def test_geometry_stray_falls_back_per_fix(self, batch, localizer):
        stray = batch[1].select_antennas(2)
        results = localizer.locate_batch([batch[0], stray])
        single = localizer.locate(stray, keep_map=False)
        assert abs(results[1].position.x - single.position.x) < 1e-9
        assert abs(results[1].position.y - single.position.y) < 1e-9

    def test_engineless_localizer_still_batches(self, batch):
        direct = BlocLocalizer(
            config=BlocConfig(grid_resolution_m=0.3), engine=None
        )
        cached = BlocLocalizer(config=BlocConfig(grid_resolution_m=0.3))
        results = direct.locate_batch(batch)
        reference = cached.locate_batch(batch)
        # The engine's maps differ from the direct path by at most the
        # interpolation bound; refined positions stay within 1e-4 m.
        for ours, ref in zip(results, reference):
            assert abs(ours.position.x - ref.position.x) < 1e-4
            assert abs(ours.position.y - ref.position.y) < 1e-4
