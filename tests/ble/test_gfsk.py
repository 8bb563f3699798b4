"""Tests for repro.ble.gfsk: the GFSK modem."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ble.gfsk import (
    GfskDemodulator,
    GfskModulator,
    gaussian_pulse,
    nrz,
)
from repro.constants import BLE_FREQ_DEVIATION_HZ
from repro.errors import ConfigurationError, DemodulationError

bit_arrays = st.lists(
    st.integers(min_value=0, max_value=1), min_size=16, max_size=200
)


class TestGaussianPulse:
    def test_unit_sum(self):
        pulse = gaussian_pulse()
        assert pulse.sum() == pytest.approx(1.0)

    def test_symmetric(self):
        pulse = gaussian_pulse()
        assert np.allclose(pulse, pulse[::-1])

    def test_nonnegative(self):
        assert np.all(gaussian_pulse() >= 0)

    def test_narrower_bt_wider_pulse(self):
        narrow = gaussian_pulse(bt=0.3)
        wide = gaussian_pulse(bt=1.0)
        # Effective width via inverse participation ratio.
        def width(p):
            q = p / p.sum()
            return 1.0 / np.sum(q**2)
        assert width(narrow) > width(wide)

    @pytest.mark.parametrize(
        "kwargs", [{"bt": 0}, {"samples_per_symbol": 1}, {"span_symbols": 0}]
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            gaussian_pulse(**kwargs)


class TestModulator:
    def test_nrz_mapping(self):
        assert np.array_equal(nrz([0, 1, 0]), [-1.0, 1.0, -1.0])

    def test_constant_envelope(self):
        mod = GfskModulator()
        iq = mod.modulate([0, 1, 1, 0, 1, 0, 0, 1] * 4)
        assert np.allclose(np.abs(iq), 1.0)

    def test_sample_count(self):
        mod = GfskModulator(samples_per_symbol=10)
        iq = mod.modulate([1] * 7)
        assert iq.size == 70

    def test_long_run_settles_at_deviation(self):
        mod = GfskModulator()
        freq = mod.instantaneous_frequency([1] * 12)
        middle = freq[4 * mod.samples_per_symbol: 8 * mod.samples_per_symbol]
        assert np.allclose(middle, BLE_FREQ_DEVIATION_HZ, rtol=1e-3)

    def test_random_bits_never_settle_long(self):
        """The Fig. 4a phenomenon: alternating data keeps moving."""
        mod = GfskModulator()
        freq = mod.instantaneous_frequency([0, 1] * 20)
        stable = np.abs(np.abs(freq) - BLE_FREQ_DEVIATION_HZ) < (
            0.02 * BLE_FREQ_DEVIATION_HZ
        )
        assert stable.mean() < 0.2

    def test_filtered_levels_alignment(self):
        mod = GfskModulator()
        levels = mod.filtered_levels([0] * 6 + [1] * 6)
        sps = mod.samples_per_symbol
        # Deep in each run the level is saturated.
        assert levels[3 * sps] == pytest.approx(-1.0, abs=1e-3)
        assert levels[9 * sps] == pytest.approx(1.0, abs=1e-3)

    def test_empty_bits(self):
        mod = GfskModulator()
        assert mod.modulate([]).size == 0

    def test_amplitude_parameter(self):
        mod = GfskModulator()
        iq = mod.modulate([1, 0, 1, 1], amplitude=0.5)
        assert np.allclose(np.abs(iq), 0.5)


class TestDemodulator:
    def test_needs_two_samples(self):
        demod = GfskDemodulator()
        with pytest.raises(DemodulationError):
            demod.discriminate(np.array([1.0 + 0j]))

    def test_invalid_sps(self):
        with pytest.raises(ConfigurationError):
            GfskDemodulator(samples_per_symbol=1)

    def test_discriminator_tracks_tone(self):
        demod = GfskDemodulator(samples_per_symbol=8)
        t = np.arange(256) / demod.sample_rate
        tone = np.exp(2j * np.pi * 250e3 * t)
        freq = demod.discriminate(tone)
        assert np.allclose(freq[1:], 250e3, rtol=1e-6)

    @given(bit_arrays)
    @settings(max_examples=30, deadline=None)
    def test_loopback_exact(self, bits):
        mod = GfskModulator()
        demod = GfskDemodulator()
        iq = mod.modulate(bits)
        recovered = demod.demodulate(iq, len(bits))
        assert np.array_equal(recovered, np.asarray(bits, dtype=np.uint8))

    def test_loopback_with_noise(self, rng):
        from repro.rf.noise import add_awgn

        bits = rng.integers(0, 2, 300)
        mod = GfskModulator()
        demod = GfskDemodulator()
        noisy = add_awgn(mod.modulate(bits), snr_db=15.0, rng=rng)
        recovered = demod.demodulate(noisy, 300)
        ber = np.mean(recovered != bits)
        assert ber < 0.01

    def test_demodulate_too_short(self):
        mod = GfskModulator()
        demod = GfskDemodulator()
        iq = mod.modulate([1, 0, 1])
        with pytest.raises(DemodulationError):
            demod.demodulate(iq, 10)


class TestDemodSnrMetric:
    def test_demod_snr_recorded_when_observed(self):
        from repro.obs import observed

        modulator = GfskModulator()
        demod = GfskDemodulator(samples_per_symbol=modulator.samples_per_symbol)
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0] * 8, dtype=np.uint8)
        iq = modulator.modulate(bits)
        with observed() as obs:
            recovered = demod.demodulate(iq, bits.size)
        assert np.array_equal(recovered, bits)
        snr = obs.metrics.get("ble.demod_snr_db")
        assert snr.count == 1
        assert snr.min > 0  # clean loopback: comfortably positive SNR
        assert obs.metrics.get("ble.demod_symbols").value == bits.size

    def test_demodulate_identical_with_observability(self):
        from repro.obs import observed

        modulator = GfskModulator()
        demod = GfskDemodulator(samples_per_symbol=modulator.samples_per_symbol)
        bits = np.array([0, 1, 1, 0, 1, 0, 0, 1] * 4, dtype=np.uint8)
        iq = modulator.modulate(bits)
        plain = demod.demodulate(iq, bits.size)
        with observed():
            traced = demod.demodulate(iq, bits.size)
        assert np.array_equal(plain, traced)
