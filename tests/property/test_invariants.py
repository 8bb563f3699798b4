"""Hypothesis property tests on the core algorithmic invariants.

These complement the example-based tests with randomized coverage of the
claims the paper's math rests on: Eq. 10's offset independence for *any*
channels and offsets, likelihood invariances, and the compositional
behaviour of observation subsetting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correction import correct_phase_offsets
from repro.core.engine import SteeringCache
from repro.core.likelihood import compute_likelihood_map
from repro.core.observations import ChannelObservations
from repro.rf.antenna import Anchor
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D

seeds = st.integers(min_value=0, max_value=2**31 - 1)
small_counts = st.integers(min_value=2, max_value=4)


def random_observations(seed, num_anchors=3, num_antennas=2, num_bands=4,
                        with_offsets=True):
    rng = np.random.default_rng(seed)
    anchors = [
        Anchor(
            position=Point(float(3 * np.cos(2 * np.pi * i / num_anchors)),
                           float(3 * np.sin(2 * np.pi * i / num_anchors))),
            num_antennas=num_antennas,
            name=f"A{i}",
        )
        for i in range(num_anchors)
    ]
    shape = (num_anchors, num_antennas, num_bands)
    h_tag = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h_master = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    tag = h_tag.copy()
    master = h_master.copy()
    if with_offsets:
        phi_tag = rng.uniform(-np.pi, np.pi, num_bands)
        phi_anchor = rng.uniform(-np.pi, np.pi, (num_anchors, num_bands))
        for i in range(num_anchors):
            tag[i] *= np.exp(1j * (phi_tag - phi_anchor[i]))[None, :]
            master[i] *= np.exp(
                1j * (phi_anchor[0] - phi_anchor[i])
            )[None, :]
    return (
        ChannelObservations(
            anchors=anchors,
            master_index=0,
            frequencies_hz=2.404e9 + 2e6 * np.arange(num_bands),
            tag_to_anchor=tag,
            master_to_anchor=master,
        ),
        h_tag,
        h_master,
    )


class TestCorrectionInvariants:
    @given(seeds, small_counts, small_counts)
    @settings(max_examples=40, deadline=None)
    def test_alpha_independent_of_offsets(
        self, seed, num_anchors, num_antennas
    ):
        """Eq. 10 for arbitrary channels: alpha(with offsets) ==
        alpha(without offsets)."""
        with_offsets, h_tag, h_master = random_observations(
            seed, num_anchors, num_antennas
        )
        without, _, _ = random_observations(
            seed, num_anchors, num_antennas, with_offsets=False
        )
        a = correct_phase_offsets(with_offsets).alpha
        b = correct_phase_offsets(without).alpha
        assert np.allclose(a, b, atol=1e-9)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_global_phase_invariance(self, seed):
        """Multiplying every tag measurement by one global phasor (a tag
        oscillator offset common to the sweep) must not change alpha's
        magnitude and only add a constant phase... in fact it cancels
        entirely, because alpha is degree-0 in the tag offset."""
        observations, _, _ = random_observations(seed)
        rotated_tag = observations.tag_to_anchor * np.exp(1j * 1.234)
        import dataclasses

        rotated = dataclasses.replace(
            observations, tag_to_anchor=rotated_tag
        )
        a = correct_phase_offsets(observations).alpha
        b = correct_phase_offsets(rotated).alpha
        assert np.allclose(a, b, atol=1e-9)


class TestLikelihoodInvariants:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_map_nonnegative_and_finite(self, seed):
        observations, _, _ = random_observations(seed)
        corrected = correct_phase_offsets(observations)
        grid = Grid2D(-4.0, 4.0, -4.0, 4.0, 0.5)
        result = compute_likelihood_map(corrected, grid, SteeringCache())
        assert np.all(result.combined >= 0)
        assert np.all(np.isfinite(result.combined))

    @given(seeds, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=15, deadline=None)
    def test_scale_invariance(self, seed, scale):
        """Scaling all measured channels (a TX power change) must not
        move the normalised likelihood at all."""
        import dataclasses

        observations, _, _ = random_observations(seed)
        scaled = dataclasses.replace(
            observations,
            tag_to_anchor=observations.tag_to_anchor * scale,
            master_to_anchor=observations.master_to_anchor * scale,
        )
        grid = Grid2D(-4.0, 4.0, -4.0, 4.0, 0.5)
        engine = SteeringCache()
        a = compute_likelihood_map(
            correct_phase_offsets(observations), grid, engine
        ).combined
        b = compute_likelihood_map(
            correct_phase_offsets(scaled), grid, engine
        ).combined
        assert np.allclose(a, b, atol=1e-9)


class TestSubsettingInvariants:
    @given(seeds, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_band_then_antenna_commutes(self, seed, keep_bands):
        observations, _, _ = random_observations(
            seed, num_antennas=3, num_bands=4
        )
        bands = list(range(keep_bands))
        a = observations.select_bands(bands).select_antennas(2)
        b = observations.select_antennas(2).select_bands(bands)
        assert np.array_equal(a.tag_to_anchor, b.tag_to_anchor)
        for anchor_a, anchor_b in zip(a.anchors, b.anchors):
            assert anchor_a.antenna_positions() == anchor_b.antenna_positions()

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_anchor_subset_preserves_alpha(self, seed):
        """Correcting then subsetting == subsetting then correcting, for
        the surviving anchors (the correction is per-anchor)."""
        observations, _, _ = random_observations(seed, num_anchors=4)
        subset_first = correct_phase_offsets(
            observations.select_anchors([0, 2])
        ).alpha
        correct_first = correct_phase_offsets(observations).alpha[[0, 2]]
        assert np.allclose(subset_first, correct_first, atol=1e-9)
