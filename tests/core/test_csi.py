"""Tests for repro.core.csi: tone-segment CSI extraction (Section 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ble.gfsk import GfskModulator
from repro.ble.localization import ToneSegment, localization_pdu
from repro.ble.pdu import DataPdu, assemble_packet
from repro.core.csi import (
    combine_tone_channels,
    extract_band_csi,
    measure_segment_channel,
)
from repro.errors import CsiExtractionError
from repro.rf.noise import add_awgn
from repro.sdr.iq import IqCapture

AA = 0x5A3B9C71


def make_aligned_capture(channel=4, h=0.6 - 0.3j, snr_db=None, rng=None):
    """Capture = ideal waveform scaled by a known flat channel."""
    packet = assemble_packet(
        localization_pdu(channel), access_address=AA, channel_index=channel
    )
    modulator = GfskModulator()
    iq = h * modulator.modulate(packet.bits)
    if snr_db is not None:
        iq = add_awgn(iq, snr_db, rng=rng)
    capture = IqCapture(
        samples=iq,
        sample_rate=modulator.sample_rate,
        channel_index=channel,
        carrier_frequency_hz=2.412e9,
        start_sample_offset=0,
    )
    return capture, packet, h


class TestSegmentChannel:
    def test_flat_channel_recovered(self):
        capture, packet, h = make_aligned_capture()
        modulator = GfskModulator()
        ideal = modulator.modulate(packet.bits)
        segment = ToneSegment(bit_value=0, start_bit=58, num_bits=4)
        estimate = measure_segment_channel(
            capture.antenna(0), ideal, segment, 8
        )
        assert estimate == pytest.approx(h, rel=1e-9)

    def test_zero_energy_rejected(self):
        segment = ToneSegment(bit_value=0, start_bit=0, num_bits=2)
        with pytest.raises(CsiExtractionError):
            measure_segment_channel(
                np.zeros(64, complex), np.zeros(64, complex), segment, 8
            )

    def test_out_of_range_segment(self):
        segment = ToneSegment(bit_value=0, start_bit=100, num_bits=50)
        with pytest.raises(CsiExtractionError):
            measure_segment_channel(
                np.ones(64, complex), np.ones(64, complex), segment, 8
            )


class TestCombineTones:
    def test_equal_tones(self):
        h = 0.5 * np.exp(1j * 0.7)
        assert combine_tone_channels(h, h) == pytest.approx(h)

    def test_amplitude_is_mean(self):
        combined = combine_tone_channels(2.0 + 0j, 4.0 + 0j)
        assert abs(combined) == pytest.approx(3.0)

    def test_phase_is_circular_mean(self):
        t0 = np.exp(1j * np.radians(179.0))
        t1 = np.exp(1j * np.radians(-179.0))
        combined = combine_tone_channels(t0, t1)
        assert abs(np.degrees(np.angle(combined))) == pytest.approx(
            180.0, abs=1e-6
        )


class TestExtractBandCsi:
    def test_flat_channel_all_antennas(self):
        capture, packet, h = make_aligned_capture()
        csi = extract_band_csi(capture, packet)
        assert csi.channels.shape == (1,)
        assert csi.channels[0] == pytest.approx(h, rel=1e-3)
        assert csi.tone0[0] == pytest.approx(h, rel=1e-3)
        assert csi.tone1[0] == pytest.approx(h, rel=1e-3)

    def test_noisy_channel_close(self, rng):
        capture, packet, h = make_aligned_capture(snr_db=20.0, rng=rng)
        csi = extract_band_csi(capture, packet)
        assert abs(csi.channels[0] - h) < 0.15 * abs(h)

    def test_runless_packet_rejected(self):
        """A packet whose on-air payload strictly alternates offers no
        stable tone segments (at a strict min_run), so CSI extraction
        must refuse rather than return garbage."""
        from repro.ble.whitening import whitening_sequence

        alternating = np.tile([0, 1], 16).astype(np.uint8)
        stream = whitening_sequence(4, 16 + alternating.size)
        payload_bits = alternating ^ stream[16:]
        from repro.ble.pdu import bits_to_bytes

        pdu = DataPdu(payload=bits_to_bytes(payload_bits))
        packet = assemble_packet(pdu, access_address=AA, channel_index=4)
        modulator = GfskModulator()
        capture = IqCapture(
            samples=modulator.modulate(packet.bits),
            sample_rate=modulator.sample_rate,
            channel_index=4,
            carrier_frequency_hz=2.412e9,
        )
        with pytest.raises(CsiExtractionError):
            extract_band_csi(capture, packet, min_run=8, settle_bits=2)

    def test_band_metadata(self):
        capture, packet, _ = make_aligned_capture(channel=10)
        csi = extract_band_csi(capture, packet)
        assert csi.channel_index == 10
        assert csi.frequency_hz == capture.carrier_frequency_hz
