"""Tests for repro.ble.localization: tone-run packet design."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ble.localization import (
    ToneSegment,
    design_payload,
    find_tone_segments,
    localization_pdu,
    tone_pattern,
)
from repro.ble.pdu import DataPdu
from repro.ble.whitening import whiten
from repro.errors import ConfigurationError

channels = st.integers(min_value=0, max_value=39)
run_lengths = st.integers(min_value=4, max_value=16)


class TestTonePattern:
    def test_structure(self):
        pattern = tone_pattern(run_length=3, num_pairs=2)
        assert np.array_equal(pattern, [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1])

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            tone_pattern(1, 1)
        with pytest.raises(ConfigurationError):
            tone_pattern(4, 0)


class TestDesignPayload:
    @given(channels, run_lengths)
    @settings(max_examples=40)
    def test_whitened_image_contains_runs(self, channel, run_length):
        """The key property: after standard whitening, the on-air payload
        bits are exactly the tone pattern."""
        payload = design_payload(channel, run_length=run_length, num_pairs=4)
        pdu_bits = DataPdu(payload=payload).to_bits()
        on_air = whiten(pdu_bits, channel)
        payload_air = on_air[16:16 + 8 * run_length]
        expected = tone_pattern(run_length, 4)[: payload_air.size]
        assert np.array_equal(payload_air, expected)

    def test_payload_is_whole_octets(self):
        payload = design_payload(0, run_length=5, num_pairs=3)
        assert len(payload) * 8 >= 30

    def test_localization_pdu_wraps_payload(self):
        pdu = localization_pdu(7, run_length=8, num_pairs=2)
        assert len(pdu.payload) == 4  # 32 bits


class TestFindToneSegments:
    def test_finds_both_tones(self):
        bits = tone_pattern(run_length=8, num_pairs=2)
        segments = find_tone_segments(bits, min_run=4, settle_bits=2)
        assert sum(1 for s in segments if s.bit_value == 0) == 2
        assert sum(1 for s in segments if s.bit_value == 1) == 2

    def test_settling_trim(self):
        bits = np.concatenate(
            [np.zeros(8, np.uint8), np.ones(8, np.uint8)]
        )
        segments = find_tone_segments(bits, min_run=4, settle_bits=2)
        first = segments[0]
        assert first.start_bit == 2
        # 8-long run minus 2 settle bits minus 1 pre-transition bit.
        assert first.num_bits == 5
        last = segments[-1]
        # Final run keeps its last bit (no following transition).
        assert last.num_bits == 6

    def test_short_runs_skipped(self):
        bits = [0, 1, 0, 1, 1, 0, 0, 1]
        assert find_tone_segments(bits, min_run=4, settle_bits=2) == []

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            find_tone_segments([0, 1], min_run=3, settle_bits=2)

    def test_empty(self):
        assert find_tone_segments([]) == []

    def test_sample_slice(self):
        segment = ToneSegment(bit_value=1, start_bit=4, num_bits=3)
        sl = segment.sample_slice(samples_per_symbol=8)
        assert sl == slice(32, 56)

    @given(run_lengths)
    @settings(max_examples=20)
    def test_segments_cover_only_stable_bits(self, run_length):
        bits = tone_pattern(run_length, 3)
        segments = find_tone_segments(bits, min_run=4, settle_bits=2)
        for segment in segments:
            covered = bits[segment.start_bit:segment.start_bit + segment.num_bits]
            assert np.all(covered == segment.bit_value)
