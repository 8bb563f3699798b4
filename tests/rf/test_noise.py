"""Tests for repro.rf.noise: AWGN and channel-estimation noise."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rf.noise import (
    add_awgn,
    channel_estimation_noise,
    snr_to_noise_std,
)


class TestAwgn:
    def test_snr_achieved(self, rng):
        signal = np.exp(1j * rng.uniform(0, 2 * np.pi, 200_000))
        noisy = add_awgn(signal, snr_db=10.0, rng=rng)
        noise_power = np.mean(np.abs(noisy - signal) ** 2)
        snr_db = 10.0 * np.log10(np.mean(np.abs(signal) ** 2) / noise_power)
        assert snr_db == pytest.approx(10.0, abs=0.2)

    def test_zero_noise_at_high_snr(self, rng):
        signal = np.ones(100, dtype=complex)
        noisy = add_awgn(signal, snr_db=200.0, rng=rng)
        assert np.allclose(noisy, signal, atol=1e-8)

    def test_empty_signal(self, rng):
        assert add_awgn(np.array([], dtype=complex), 10.0, rng).size == 0

    def test_deterministic_with_seed(self):
        signal = np.ones(32, dtype=complex)
        a = add_awgn(signal, 10.0, rng=9)
        b = add_awgn(signal, 10.0, rng=9)
        assert np.array_equal(a, b)

    def test_noise_std_formula(self):
        std = snr_to_noise_std(signal_power=1.0, snr_db=0.0)
        assert std == pytest.approx(np.sqrt(0.5))

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            snr_to_noise_std(-1.0, 10.0)


class TestChannelEstimationNoise:
    def test_averaging_gain_reduces_noise(self, rng):
        channels = np.ones(50_000, dtype=complex)
        noisy_1 = channel_estimation_noise(
            channels, snr_db=10.0, averaging_gain=1.0, rng=1
        )
        noisy_64 = channel_estimation_noise(
            channels, snr_db=10.0, averaging_gain=64.0, rng=1
        )
        err_1 = np.std(noisy_1 - channels)
        err_64 = np.std(noisy_64 - channels)
        assert err_64 == pytest.approx(err_1 / 8.0, rel=0.1)

    def test_reference_power_fixed(self, rng):
        weak = np.full(10_000, 0.01 + 0j)
        noisy = channel_estimation_noise(
            weak, snr_db=20.0, rng=rng, reference_power=1.0
        )
        # Noise is relative to the reference, so the weak channel drowns.
        relative_error = np.std(noisy - weak) / 0.01
        assert relative_error > 1.0

    def test_invalid_gain(self):
        with pytest.raises(ConfigurationError):
            channel_estimation_noise(np.ones(3, complex), 10.0, averaging_gain=0)

    def test_empty(self, rng):
        out = channel_estimation_noise(np.array([], complex), 10.0, rng=rng)
        assert out.size == 0
