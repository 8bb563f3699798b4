"""Tests for repro.sdr.receiver: correlation packet acquisition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ble.gfsk import GfskDemodulator, GfskModulator
from repro.ble.localization import localization_pdu
from repro.ble.pdu import assemble_packet
from repro.errors import DemodulationError
from repro.rf.noise import add_awgn
from repro.sdr.iq import IqCapture
from repro.sdr.receiver import PacketDetector

AA = 0x5A3B9C71


def make_capture(offset=100, snr_db=None, rng=None, channel=3):
    packet = assemble_packet(
        localization_pdu(channel), access_address=AA, channel_index=channel
    )
    modulator = GfskModulator()
    iq = modulator.modulate(packet.bits)
    stream = np.concatenate(
        [np.zeros(offset, complex), iq, np.zeros(50, complex)]
    )
    if snr_db is not None:
        stream = add_awgn(stream, snr_db, rng=rng)
    capture = IqCapture(
        samples=stream,
        sample_rate=modulator.sample_rate,
        channel_index=channel,
        carrier_frequency_hz=2.41e9,
    )
    return capture, packet


class TestDetect:
    def test_exact_offset_clean(self):
        capture, packet = make_capture(offset=137)
        detector = PacketDetector()
        start, quality = detector.detect(capture, packet)
        assert start == 137
        assert quality > 0.95

    def test_offset_with_noise(self):
        capture, packet = make_capture(offset=64, snr_db=10.0, rng=3)
        detector = PacketDetector()
        start, _ = detector.detect(capture, packet)
        assert abs(start - 64) <= 1

    def test_detection_with_phase_rotation(self):
        capture, packet = make_capture(offset=80)
        capture.samples = capture.samples * np.exp(1j * 2.1)
        start, quality = PacketDetector().detect(capture, packet)
        assert start == 80
        assert quality > 0.95

    def test_noise_only_raises(self, rng):
        capture, packet = make_capture(offset=0)
        noise_capture = IqCapture(
            samples=rng.normal(size=2000) + 1j * rng.normal(size=2000),
            sample_rate=8e6,
            channel_index=3,
            carrier_frequency_hz=2.41e9,
        )
        with pytest.raises(DemodulationError):
            PacketDetector().detect(noise_capture, packet)

    def test_capture_too_short(self):
        capture, packet = make_capture()
        tiny = capture.sliced(0, 100)
        with pytest.raises(DemodulationError):
            PacketDetector().detect(tiny, packet)


class TestAlign:
    def test_aligned_capture_starts_at_packet(self):
        capture, packet = make_capture(offset=99)
        aligned = PacketDetector().align(capture, packet)
        assert aligned.start_sample_offset == 0
        assert aligned.num_samples == packet.num_bits * 8

    def test_aligned_capture_verifies(self):
        capture, packet = make_capture(offset=42, snr_db=25.0, rng=5)
        aligned = PacketDetector().align(capture, packet)
        demodulator = GfskDemodulator()
        bits = demodulator.demodulate(aligned.antenna(0), packet.num_bits)
        assert np.count_nonzero(bits != packet.bits) <= 2
