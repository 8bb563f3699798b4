"""Array-native peak selection and Eq. 18 scoring against loop oracles.

The oracles below are ``scipy.ndimage.maximum_filter`` (for the numpy
local-maximum filter, here only: serving never loads ``scipy.ndimage``),
the per-candidate ``select_peaks`` loop and the per-peak Eq. 18 loop
that the array code replaced.  They live here only
to pin the array code down: the array code must return the very same
``Peak`` and ``ScoredPeak`` records, every float bit for bit.  (Exact
ties in the score keep their input order, so even a one-ulp difference
in ``H`` could reorder peaks.)
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.core.entropy import negentropy
from repro.core.peaks import Peak, PeakConfig, local_maxima, select_peaks
from repro.core.scoring import ScoredPeak, ScoringConfig, score_peaks
from repro.errors import ConfigurationError, LocalizationError
from repro.rf.antenna import Anchor
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D

ANCHORS = [
    Anchor(position=Point(-0.3, -0.2)),
    Anchor(position=Point(1.7, 0.1)),
    Anchor(position=Point(0.9, 2.4)),
    Anchor(position=Point(-0.4, 1.3)),
]


def select_peaks_oracle(values, local_max, grid, config) -> List[Peak]:
    """The per-candidate ``select_peaks`` loop (reference)."""
    arr = np.asarray(values, dtype=float)
    global_max = float(arr.max())
    if global_max <= 0 or np.allclose(arr, arr.flat[0]):
        raise LocalizationError("likelihood map is flat; nothing to locate")
    threshold = config.min_relative_value * global_max
    candidate_mask = np.asarray(local_max, dtype=bool) & (arr >= threshold)
    rows, cols = np.nonzero(candidate_mask)
    order = np.argsort(arr[rows, cols])[::-1]
    selected: List[Peak] = []
    for idx in order:
        row, col = int(rows[idx]), int(cols[idx])
        position = grid.point_at(row, col)
        too_close = any(
            (position - p.position).norm() < config.min_separation_m
            for p in selected
        )
        if too_close:
            continue
        selected.append(
            Peak(
                row=row,
                col=col,
                position=position,
                value=float(arr[row, col]),
            )
        )
        if len(selected) >= config.max_peaks:
            break
    if not selected:
        raise LocalizationError("no peaks cleared the detection threshold")
    return selected


def score_peaks_oracle(peaks, values, grid, anchors, config):
    """The per-peak Eq. 18 loop (reference)."""
    anchor_positions = np.array([tuple(a.position) for a in anchors])
    scored: List[ScoredPeak] = []
    for peak in peaks:
        half = config.entropy_window // 2
        entropy = negentropy(grid.window(values, peak.row, peak.col, half))
        deltas = anchor_positions - np.array(tuple(peak.position))[None, :]
        distance_sum = float(np.linalg.norm(deltas, axis=1).sum())
        score = peak.value * float(
            np.exp(
                config.entropy_weight * entropy
                - config.distance_weight * distance_sum
            )
        )
        scored.append(ScoredPeak(peak, entropy, distance_sum, score))
    scored.sort(key=lambda s: s.score, reverse=True)
    return scored


def outcome(fn, *args):
    try:
        return fn(*args)
    except LocalizationError as exc:
        return type(exc)


@st.composite
def peak_problems(draw):
    """A small non-negative map, its grid and a peak configuration.

    Integer levels (0..4) make ties, zero plateaus and all-zero windows
    common; an optional continuous part breaks some of the ties.
    """
    num_y = draw(st.integers(2, 11))
    num_x = draw(st.integers(2, 11))
    resolution = draw(st.sampled_from([0.05, 0.1, 0.12, 0.25]))
    grid = Grid2D(
        -0.3, -0.3 + (num_x - 1) * resolution,
        0.2, 0.2 + (num_y - 1) * resolution,
        resolution,
    )
    levels = draw(
        st.lists(
            st.integers(0, 4), min_size=grid.size, max_size=grid.size
        )
    )
    values = grid.reshape(np.array(levels, dtype=float))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        values = values * np.random.default_rng(seed).random(grid.shape)
    separation_cells = draw(st.sampled_from([0, 1, 2, 3, 4]))
    config = PeakConfig(
        neighborhood=draw(st.sampled_from([3, 5])),
        min_relative_value=draw(st.sampled_from([0.0, 0.35, 0.5, 1.0])),
        min_separation_m=separation_cells * resolution
        + draw(st.sampled_from([0.0, 1e-3, -1e-3]))
        * (separation_cells > 0),
        max_peaks=draw(st.integers(1, 12)),
    )
    return values, grid, config


def _local_max(values, config):
    return (
        ndimage.maximum_filter(
            values, size=config.neighborhood, mode="nearest"
        )
        == values
    )


class TestSelectPeaksOracle:
    @settings(max_examples=300, deadline=None)
    @given(problem=peak_problems())
    def test_matches_loop(self, problem):
        values, grid, config = problem
        local_max = _local_max(values, config)
        assert outcome(
            select_peaks, values, local_max, grid, config
        ) == outcome(select_peaks_oracle, values, local_max, grid, config)

    @pytest.mark.parametrize("max_peaks", [1, 12])
    @pytest.mark.parametrize("separation", [0.0, 0.1, 0.3])
    def test_corner_and_border_peaks(self, max_peaks, separation):
        grid = Grid2D(0.0, 0.9, 0.0, 0.6, 0.1)
        values = np.zeros(grid.shape)
        values[0, 0] = values[-1, -1] = 1.0  # corners, tied
        values[0, 4] = values[3, 0] = 0.8  # borders, tied
        values[3, 5] = 0.9
        config = PeakConfig(
            neighborhood=3,
            min_relative_value=0.5,
            min_separation_m=separation,
            max_peaks=max_peaks,
        )
        local_max = _local_max(values, config)
        got = select_peaks(values, local_max, grid, config)
        assert got == select_peaks_oracle(values, local_max, grid, config)
        assert len(got) == min(max_peaks, 5)

    @pytest.mark.parametrize(
        "separation", [0.58309518948453, 0.5830951894845301]
    )
    def test_separation_at_the_hypot_ulp(self, separation):
        # The offset between these two nodes measures 0.58309518948453
        # with np.hypot and one ulp more with math.hypot (Point.norm) on
        # x86-64 glibc: at either threshold the keep/suppress call must
        # be Point.norm's.
        grid = Grid2D(-0.43, 0.67, -2.69, -1.49, 0.1)
        values = np.zeros(grid.shape)
        values[10, 7] = 1.0
        values[5, 10] = 0.9
        config = PeakConfig(neighborhood=3, min_separation_m=separation)
        local_max = _local_max(values, config)
        assert select_peaks(
            values, local_max, grid, config
        ) == select_peaks_oracle(values, local_max, grid, config)


@st.composite
def filter_problems(draw):
    """A map (1x1 up, often smaller than the window) and an odd window.

    A handful of levels makes plateaus and ties common; the continuous
    part, when drawn, covers maps with distinct values.
    """
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    size = shape[0] * shape[1]
    if draw(st.booleans()):
        values = np.array(
            draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)),
            dtype=float,
        )
    else:
        seed = draw(st.integers(0, 2**16))
        values = np.random.default_rng(seed).standard_normal(size)
    neighborhood = draw(st.sampled_from([3, 5, 7, 9]))
    return values.reshape(shape), neighborhood


class TestLocalMaximaOracle:
    @settings(max_examples=400, deadline=None)
    @given(problem=filter_problems())
    def test_matches_scipy_maximum_filter(self, problem):
        values, neighborhood = problem
        expected = (
            ndimage.maximum_filter(
                values, size=neighborhood, mode="nearest"
            )
            == values
        )
        assert np.array_equal(local_maxima(values, neighborhood), expected)

    @pytest.mark.parametrize("neighborhood", [3, 5, 7, 9])
    def test_plateau_map_is_all_maxima(self, neighborhood):
        values = np.full((4, 6), 2.5)
        assert local_maxima(values, neighborhood).all()


class TestFlatCheck:
    @pytest.mark.parametrize("base", [1e-9, 0.5, 1.0, 1e3])
    @pytest.mark.parametrize(
        "factor", [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, -1.0, -2.0]
    )
    @pytest.mark.parametrize("cell", [(0, 0), (2, 3)])
    def test_agrees_with_allclose(self, base, factor, cell):
        grid = Grid2D(0.0, 0.5, 0.0, 0.4, 0.1)
        values = np.full(grid.shape, base)
        values[cell] += factor * (1e-8 + 1e-5 * base)
        flat = np.allclose(values, values.flat[0])
        config = PeakConfig(neighborhood=3)
        local_max = _local_max(values, config)
        if flat:
            with pytest.raises(LocalizationError, match="flat"):
                select_peaks(values, local_max, grid, config)
        else:
            assert select_peaks(values, local_max, grid, config)

    def test_both_sides_of_the_edge_are_covered(self):
        base = 1.0
        tol = 1e-8 + 1e-5 * base
        outcomes = {
            np.allclose(np.array([base, base + f * tol]), base)
            for f in (1.0 - 1e-9, 1.0 + 1e-9)
        }
        assert outcomes == {True, False}


@st.composite
def scoring_problems(draw):
    values, grid, _ = draw(peak_problems())
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, grid.num_y - 1), st.integers(0, grid.num_x - 1)
            ),
            min_size=1,
            max_size=12,
        )
    )
    peaks = [
        Peak(r, c, grid.point_at(r, c), float(values[r, c])) for r, c in cells
    ]
    config = ScoringConfig(
        distance_weight=draw(st.sampled_from([0.0, 0.1, 0.5])),
        entropy_weight=draw(st.sampled_from([-0.05, 0.0, 0.05, 1.0])),
        entropy_window=draw(st.sampled_from([3, 5, 7])),
    )
    return peaks, values, grid, config


class TestScorePeaksOracle:
    @settings(max_examples=300, deadline=None)
    @given(problem=scoring_problems())
    @example(
        problem=(
            [
                Peak(0, 0, Point(0.0, 0.0), 0.0),
                Peak(1, 1, Point(0.1, 0.1), 0.0),
            ],
            np.zeros((3, 3)),
            Grid2D(0.0, 0.2, 0.0, 0.2, 0.1),
            ScoringConfig(),
        )
    )
    def test_matches_loop(self, problem):
        peaks, values, grid, config = problem
        assert score_peaks(
            peaks, values, grid, ANCHORS, config
        ) == score_peaks_oracle(peaks, values, grid, ANCHORS, config)

    def test_all_zero_window_is_flat(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 0.1)
        values = np.zeros(grid.shape)
        values[8, 8] = 1.0
        peaks = [
            Peak(1, 1, grid.point_at(1, 1), 0.0),
            Peak(8, 8, grid.point_at(8, 8), 1.0),
        ]
        got = score_peaks(peaks, values, grid, ANCHORS)
        assert got == score_peaks_oracle(
            peaks, values, grid, ANCHORS, ScoringConfig()
        )
        assert {s.peak.row: s.entropy for s in got}[1] == 0.0

    def test_negative_value_in_a_window_raises(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 0.1)
        values = np.ones(grid.shape)
        values[0, 1] = -1.0
        with pytest.raises(ConfigurationError, match="non-negative"):
            score_peaks(
                [Peak(0, 0, grid.point_at(0, 0), 1.0)], values, grid, ANCHORS
            )

    def test_ties_keep_input_order(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 0.1)
        values = np.ones(grid.shape)
        peak = Peak(5, 5, grid.point_at(5, 5), 1.0)
        twin = Peak(5, 5, Point(*grid.point_at(5, 5)), 1.0)
        got = score_peaks([peak, twin], values, grid, ANCHORS)
        assert [s.peak for s in got] == [peak, twin]
        assert got[0].peak is peak and got[1].peak is twin
        assert math.isclose(got[0].score, got[1].score)
