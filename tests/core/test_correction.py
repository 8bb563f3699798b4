"""Tests for repro.core.correction: the Eq. 10 triple product.

The central claim of Section 5.2 is tested directly: corrected channels
must be *identical* across different random oscillator-offset
realisations, and must equal the product of the true physical channels.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.correction import (
    anchor_baselines,
    correct_phase_offsets,
)
from repro.core.observations import ChannelObservations
from repro.errors import LocalizationError
from repro.rf.antenna import Anchor
from repro.sim import ChannelMeasurementModel
from repro.utils.geometry2d import Point


def make_observations(rng, num_anchors=3, num_antennas=2, num_bands=5,
                      master_index=0, with_offsets=True):
    """Synthetic observations with known physical channels and offsets."""
    anchors = [
        Anchor(position=Point(float(i), 0.0), num_antennas=num_antennas,
               name=f"A{i}")
        for i in range(num_anchors)
    ]
    shape = (num_anchors, num_antennas, num_bands)
    h_tag = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h_master = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    measured_tag = h_tag.copy()
    measured_master = h_master.copy()
    if with_offsets:
        phi_tag = rng.uniform(-np.pi, np.pi, num_bands)
        phi_anchor = rng.uniform(-np.pi, np.pi, (num_anchors, num_bands))
        for i in range(num_anchors):
            measured_tag[i] *= np.exp(
                1j * (phi_tag - phi_anchor[i])
            )[None, :]
            measured_master[i] *= np.exp(
                1j * (phi_anchor[master_index] - phi_anchor[i])
            )[None, :]
    observations = ChannelObservations(
        anchors=anchors,
        master_index=master_index,
        frequencies_hz=2.404e9 + 2e6 * np.arange(num_bands),
        tag_to_anchor=measured_tag,
        master_to_anchor=measured_master,
    )
    return observations, h_tag, h_master


class TestEquation10:
    def test_offsets_cancel_exactly(self, rng):
        """alpha must not depend on the offset realisation at all."""
        obs_a, h_tag, h_master = make_observations(rng)
        # Same physical channels, different offsets:
        obs_b = ChannelObservations(
            anchors=obs_a.anchors,
            master_index=0,
            frequencies_hz=obs_a.frequencies_hz,
            tag_to_anchor=h_tag.copy(),
            master_to_anchor=h_master.copy(),
        )
        phi_tag = rng.uniform(-np.pi, np.pi, 5)
        phi_anchor = rng.uniform(-np.pi, np.pi, (3, 5))
        for i in range(3):
            obs_b.tag_to_anchor[i] *= np.exp(
                1j * (phi_tag - phi_anchor[i])
            )[None, :]
            obs_b.master_to_anchor[i] *= np.exp(
                1j * (phi_anchor[0] - phi_anchor[i])
            )[None, :]
        alpha_a = correct_phase_offsets(obs_a).alpha
        alpha_b = correct_phase_offsets(obs_b).alpha
        assert np.allclose(alpha_a, alpha_b, atol=1e-10)

    def test_alpha_equals_physical_product(self, rng):
        """Eq. 12: alpha = h_ij * conj(H_i0) * conj(h_00)."""
        observations, h_tag, h_master = make_observations(rng)
        corrected = correct_phase_offsets(observations)
        h00 = h_tag[0, 0, :]
        for i in range(1, 3):
            expected = (
                h_tag[i]
                * np.conj(h_master[i, 0, :])[None, :]
                * np.conj(h00)[None, :]
            )
            assert np.allclose(corrected.alpha[i], expected, atol=1e-10)

    def test_master_row_uses_self_reference(self, rng):
        observations, h_tag, _ = make_observations(rng)
        corrected = correct_phase_offsets(observations)
        expected = h_tag[0] * np.conj(h_tag[0, 0, :])[None, :]
        assert np.allclose(corrected.alpha[0], expected, atol=1e-10)

    def test_reference_antenna_alpha_is_real(self, rng):
        """alpha at (master, antenna 0) = |h00|^2: real, non-negative."""
        observations, _, _ = make_observations(rng)
        corrected = correct_phase_offsets(observations)
        reference = corrected.alpha[0, 0, :]
        assert np.allclose(reference.imag, 0.0, atol=1e-10)
        assert np.all(reference.real >= 0)

    def test_non_master_reference(self, rng):
        observations, h_tag, h_master = make_observations(
            rng, master_index=1
        )
        corrected = correct_phase_offsets(observations)
        assert corrected.master_index == 1
        h00 = h_tag[1, 0, :]
        expected = (
            h_tag[2]
            * np.conj(h_master[2, 0, :])[None, :]
            * np.conj(h00)[None, :]
        )
        assert np.allclose(corrected.alpha[2], expected, atol=1e-10)


class TestBaselines:
    def test_master_baseline_zero(self):
        anchors = [
            Anchor(position=Point(0, 0), name="m"),
            Anchor(position=Point(3, 4), name="s"),
        ]
        baselines = anchor_baselines(anchors, master_index=0)
        assert baselines[0] == 0.0

    def test_baseline_between_reference_antennas(self):
        anchors = [
            Anchor(position=Point(0, 0), num_antennas=1),
            Anchor(position=Point(3, 4), num_antennas=1),
        ]
        baselines = anchor_baselines(anchors, master_index=0)
        assert baselines[1] == pytest.approx(5.0)


class TestEndToEndCancellation:
    def test_measurement_model_offsets_cancel(self, los_testbed):
        """Two measurements of the same position with different offset
        seeds must agree after correction (noise & drift disabled)."""
        tag = Point(0.5, 0.5)
        alphas = []
        for round_index in (0, 1):
            model = ChannelMeasurementModel(
                testbed=los_testbed,
                seed=55,
                snr_db=200.0,
                oscillator_drift_std=0.0,
                calibration_error_m=0.0,
                element_phase_error_deg=0.0,
                element_gain_error_db=0.0,
            )
            observations = model.measure(tag, round_index=round_index)
            alphas.append(correct_phase_offsets(observations).alpha)
        assert np.allclose(alphas[0], alphas[1], atol=1e-8)

    def test_raw_channels_do_depend_on_offsets(self, los_testbed):
        tag = Point(0.5, 0.5)
        raw = []
        for round_index in (0, 1):
            model = ChannelMeasurementModel(
                testbed=los_testbed,
                seed=55,
                snr_db=200.0,
                oscillator_drift_std=0.0,
                calibration_error_m=0.0,
                element_phase_error_deg=0.0,
                element_gain_error_db=0.0,
            )
            raw.append(
                model.measure(tag, round_index=round_index).tag_to_anchor
            )
        assert not np.allclose(raw[0], raw[1], atol=1e-3)


class TestNonFiniteCsi:
    """NaN/Inf CSI is a typed error naming the anchor, raised up front."""

    @pytest.mark.parametrize("field", ["tag_to_anchor", "master_to_anchor"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_cell_rejected(self, rng, field, bad):
        observations, _, _ = make_observations(rng)
        getattr(observations, field)[2, 1, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning
            with pytest.raises(LocalizationError) as info:
                correct_phase_offsets(observations)
        assert f"non-finite CSI in {field} of anchor 2 (A2)" in str(
            info.value
        )

    def test_first_affected_anchor_named(self, rng):
        observations, _, _ = make_observations(rng)
        observations.tag_to_anchor[1, 0, 0] = np.nan
        observations.tag_to_anchor[2, 0, 0] = np.nan
        with pytest.raises(LocalizationError, match="anchor 1 "):
            correct_phase_offsets(observations)

    def test_locate_fails_typed_before_likelihood(self, observations):
        from repro.core.localizer import BlocLocalizer

        broken = dataclasses.replace(
            observations, tag_to_anchor=observations.tag_to_anchor.copy()
        )
        broken.tag_to_anchor[0, 0, 0] = np.nan
        with pytest.raises(LocalizationError, match="non-finite CSI"):
            BlocLocalizer().locate(broken)
