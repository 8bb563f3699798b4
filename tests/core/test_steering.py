"""Tests for repro.core.steering: the Eq. 3 angle spectrum and Eq. 6."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.core.steering import (
    aliasing_distance_m,
    angle_steering,
    range_resolution_m,
    steered_spectrum,
)
from repro.errors import ConfigurationError


def ula_channels(theta_rad, num_antennas=4, spacing=0.0614, f=2.44e9):
    """Synthetic single-path channels for a ULA (library convention:
    element j closer to a +theta source -> positive phase step)."""
    wavelength = SPEED_OF_LIGHT / f
    j = np.arange(num_antennas)
    return np.exp(2j * np.pi * j * spacing * np.sin(theta_rad) / wavelength)


def angle_spectrum(channels, spacing_m, frequency_hz, angles_rad=None):
    """Eq. 3 through the steering pair the AoA baseline caches.

    ``channels`` is ``(J,)`` for one band or ``(J, K)`` for ``K`` bands.
    """
    h = np.asarray(channels, dtype=complex)
    if h.ndim == 1:
        h = h[:, None]
    freqs = np.broadcast_to(np.atleast_1d(frequency_hz), (h.shape[1],))
    if angles_rad is None:
        angles_rad = np.linspace(-np.pi / 2.0, np.pi / 2.0, 181)
    steering = angle_steering(h.shape[0], spacing_m, freqs, angles_rad)
    return angles_rad, steered_spectrum(h, steering)


class TestAngleSpectrum:
    @pytest.mark.parametrize("theta_deg", [-50, -20, 0, 15, 40, 70])
    def test_peak_at_true_angle(self, theta_deg):
        theta = np.radians(theta_deg)
        h = ula_channels(theta)
        angles, spectrum = angle_spectrum(h, 0.0614, 2.44e9)
        peak = np.degrees(angles[int(np.argmax(spectrum))])
        assert peak == pytest.approx(theta_deg, abs=2.0)

    def test_normalised_to_one(self):
        h = ula_channels(0.3)
        _, spectrum = angle_spectrum(h, 0.0614, 2.44e9)
        assert spectrum.max() == pytest.approx(1.0)

    def test_multiband_sharper_or_equal(self):
        theta = np.radians(25)
        freqs = np.array([2.41e9, 2.44e9, 2.47e9])
        h = np.column_stack([
            ula_channels(theta, f=f) for f in freqs
        ])
        angles, multi = angle_spectrum(h, 0.0614, freqs)
        peak = np.degrees(angles[int(np.argmax(multi))])
        assert peak == pytest.approx(25, abs=2.0)

    def test_two_sources_two_peaks(self):
        h = ula_channels(np.radians(-40)) + ula_channels(np.radians(40))
        angles, spectrum = angle_spectrum(h, 0.0614, 2.44e9)
        strong = np.degrees(angles[spectrum > 0.8])
        assert strong.min() < -30
        assert strong.max() > 30

    def test_custom_angles(self):
        h = ula_channels(0.0)
        grid = np.linspace(-0.5, 0.5, 21)
        angles, spectrum = angle_spectrum(h, 0.0614, 2.44e9, angles_rad=grid)
        assert spectrum.size == 21

    def test_vectorised_matches_per_band_loop(self):
        """The einsum over all bands must equal the per-band reference."""
        rng = np.random.default_rng(11)
        num_antennas, num_bands = 4, 9
        h = rng.standard_normal(
            (num_antennas, num_bands)
        ) + 1j * rng.standard_normal((num_antennas, num_bands))
        freqs = 2.404e9 + 2e6 * np.arange(num_bands)
        spacing = 0.0614
        angles = np.linspace(-np.pi / 2.0, np.pi / 2.0, 181)

        # Reference: the original per-band Python loop.
        j = np.arange(num_antennas)
        reference = np.zeros(angles.size)
        for k in range(num_bands):
            wavelength = SPEED_OF_LIGHT / freqs[k]
            phases = (
                -2.0
                * np.pi
                * np.outer(j, np.sin(angles))
                * spacing
                / wavelength
            )
            reference += np.abs(
                np.sum(h[:, k][:, None] * np.exp(1j * phases), axis=0)
            )
        reference /= reference.max()

        _, spectrum = angle_spectrum(h, spacing, freqs, angles_rad=angles)
        assert np.allclose(spectrum, reference)


class TestResolutionFormulas:
    def test_range_resolution(self):
        assert range_resolution_m(80e6) == pytest.approx(3.747, rel=1e-3)

    def test_ble_single_channel_resolution_exceeds_rooms(self):
        """Paper: 1 MHz effective bandwidth -> ~300 m resolution."""
        assert range_resolution_m(1e6) == pytest.approx(299.8, rel=1e-3)

    def test_aliasing_distance(self):
        assert aliasing_distance_m(4e6) == pytest.approx(74.9, rel=1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            range_resolution_m(0)
        with pytest.raises(ConfigurationError):
            aliasing_distance_m(-1)
