"""Tests for repro.baselines.aoa: the AoA-combining baseline."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines.aoa import (
    AOA_MODES,
    AOA_STEERING_CACHE_ENTRIES,
    AoaLocalizer,
)
from repro.constants import SPEED_OF_LIGHT
from repro.core.steering import angle_spectrum
from repro.errors import ConfigurationError
from repro.sim import ChannelMeasurementModel
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point


@pytest.fixture(scope="module")
def clean_los_observations():
    testbed = open_room_testbed()
    model = ChannelMeasurementModel(
        testbed=testbed,
        seed=31,
        snr_db=40.0,
        oscillator_drift_std=0.0,
        calibration_error_m=0.0,
        element_phase_error_deg=0.0,
        element_gain_error_db=0.0,
    )
    return model.measure(Point(0.9, 0.7))


class TestConfig:
    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            AoaLocalizer(mode="magic")

    def test_invalid_resolution(self):
        with pytest.raises(ConfigurationError):
            AoaLocalizer(grid_resolution_m=0)

    def test_modes_registry(self):
        assert set(AOA_MODES) == {"triangulation", "spectrum"}


class TestAngles:
    def test_per_anchor_angles_near_geometry(self, clean_los_observations):
        obs = clean_los_observations
        result = AoaLocalizer().locate(obs)
        for anchor, estimated in zip(
            obs.anchors, result.per_anchor_angles_rad
        ):
            true_angle = anchor.angle_to(obs.ground_truth)
            assert abs(estimated - true_angle) < np.radians(8.0)


class TestTriangulation:
    def test_locates_in_los(self, clean_los_observations):
        result = AoaLocalizer().locate(clean_los_observations)
        error = (
            result.position - clean_los_observations.ground_truth
        ).norm()
        assert error < 0.5

    def test_estimate_clamped_to_bounds(self, clean_los_observations):
        localizer = AoaLocalizer(bounds=(-0.1, 0.1, -0.1, 0.1))
        result = localizer.locate(clean_los_observations)
        assert -0.1 <= result.position.x <= 0.1
        assert -0.1 <= result.position.y <= 0.1


class TestSpectrumMode:
    def test_locates_in_los(self, clean_los_observations):
        result = AoaLocalizer(mode="spectrum").locate(
            clean_los_observations
        )
        error = (
            result.position - clean_los_observations.ground_truth
        ).norm()
        assert error < 0.5

    def test_map_kept_only_on_request(self, clean_los_observations):
        localizer = AoaLocalizer(mode="spectrum")
        with_map = localizer.locate(clean_los_observations, keep_map=True)
        without = localizer.locate(clean_los_observations, keep_map=False)
        assert with_map.likelihood is not None
        assert without.likelihood is None

    def test_spectrum_mode_not_worse_than_triangulation_clean(
        self, clean_los_observations
    ):
        truth = clean_los_observations.ground_truth
        tri = AoaLocalizer().locate(clean_los_observations)
        soft = AoaLocalizer(mode="spectrum").locate(clean_los_observations)
        assert (soft.position - truth).norm() <= (
            tri.position - truth
        ).norm() + 0.3


def _per_call_spectrum(channels, spacing_m, frequencies_hz, angles_rad):
    """Eq. 3 rebuilt on every call: the per-call steering formula the
    cached path must reproduce bit for bit."""
    h = np.asarray(channels, dtype=complex)
    num_antennas, num_bands = h.shape
    freqs = np.broadcast_to(
        np.atleast_1d(np.asarray(frequencies_hz, dtype=float)), (num_bands,)
    )
    j = np.arange(num_antennas)
    geometry = -2.0 * np.pi * spacing_m * np.outer(j, np.sin(angles_rad))
    phases = (freqs / SPEED_OF_LIGHT)[:, None, None] * geometry[None, :, :]
    spectrum = np.abs(
        np.einsum("jk,kja->ka", h, np.exp(1j * phases))
    ).sum(axis=0)
    peak = spectrum.max()
    if peak > 0:
        spectrum = spectrum / peak
    return spectrum


def _random_channels(observations, seed):
    rng = np.random.default_rng(seed)
    shape = observations.tag_to_anchor.shape
    tag = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return dataclasses.replace(observations, tag_to_anchor=tag)


def _with_spacing(observations, spacing_m):
    return dataclasses.replace(
        observations,
        anchors=[
            dataclasses.replace(a, spacing_m=spacing_m)
            for a in observations.anchors
        ],
    )


class TestSteeringCache:
    @pytest.mark.parametrize("num_angles", [181, 361])
    @pytest.mark.parametrize("bandwidth_hz", [2e6, 20e6, 40e6, 80e6])
    @pytest.mark.parametrize("spacing_m", [0.0614, 0.05])
    def test_bit_identical_to_per_call_steering(
        self, clean_los_observations, num_angles, bandwidth_hz, spacing_m
    ):
        aoa = AoaLocalizer(num_angles=num_angles)
        angles = np.linspace(-np.pi / 2.0, np.pi / 2.0, num_angles)
        base = _with_spacing(
            clean_los_observations.select_bandwidth(bandwidth_hz), spacing_m
        )
        for seed in range(3):  # the later fixes ride the cached entry
            observations = _random_channels(base, seed)
            for i in range(observations.num_anchors):
                expected = _per_call_spectrum(
                    observations.tag_to_anchor[i],
                    spacing_m,
                    observations.frequencies_hz,
                    angles,
                )
                got_angles, got = aoa.anchor_spectrum(observations, i)
                assert np.array_equal(got_angles, angles)
                assert np.array_equal(got, expected)
                _, public = angle_spectrum(
                    observations.tag_to_anchor[i],
                    spacing_m,
                    observations.frequencies_hz,
                    angles_rad=angles,
                )
                assert np.array_equal(public, expected)
        info = aoa._steering.info()
        assert info["misses"] == 1 and info["entries"] == 1

    def test_lru_evicts_oldest_band_plan(self, clean_los_observations):
        aoa = AoaLocalizer()
        plans = [
            clean_los_observations.select_bandwidth(2e6 * (k + 1))
            for k in range(AOA_STEERING_CACHE_ENTRIES + 1)
        ]
        for plan in plans:
            aoa.anchor_spectrum(plan, 0)
        info = aoa._steering.info()
        assert info["entries"] == AOA_STEERING_CACHE_ENTRIES
        assert info["evictions"] == 1
        assert info["misses"] == AOA_STEERING_CACHE_ENTRIES + 1
        # The newest plans are still warm ...
        aoa.anchor_spectrum(plans[-1], 0)
        assert aoa._steering.info()["hits"] == 1
        # ... the oldest was evicted: a miss, rebuilt correctly.
        observations = _random_channels(plans[0], seed=9)
        _, spectrum = aoa.anchor_spectrum(observations, 0)
        assert aoa._steering.info()["misses"] == AOA_STEERING_CACHE_ENTRIES + 2
        angles = np.linspace(-np.pi / 2.0, np.pi / 2.0, aoa.num_angles)
        assert np.array_equal(
            spectrum,
            _per_call_spectrum(
                observations.tag_to_anchor[0],
                observations.anchors[0].spacing_m,
                observations.frequencies_hz,
                angles,
            ),
        )

    def test_new_band_plan_is_a_correct_miss(self, clean_los_observations):
        aoa = AoaLocalizer()
        aoa.locate(clean_los_observations)
        narrow = _random_channels(
            clean_los_observations.select_bandwidth(20e6), seed=4
        )
        misses = aoa._steering.misses
        _, spectrum = aoa.anchor_spectrum(narrow, 1)
        assert aoa._steering.misses == misses + 1
        angles = np.linspace(-np.pi / 2.0, np.pi / 2.0, aoa.num_angles)
        assert np.array_equal(
            spectrum,
            _per_call_spectrum(
                narrow.tag_to_anchor[1],
                narrow.anchors[1].spacing_m,
                narrow.frequencies_hz,
                angles,
            ),
        )
