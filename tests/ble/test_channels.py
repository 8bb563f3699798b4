"""Tests for repro.ble.channels: the BLE channel map."""

from __future__ import annotations

import pytest

from repro.ble.channels import (
    ChannelMap,
    channel_index_to_frequency,
    data_channel_to_frequency,
)
from repro.errors import ProtocolError


class TestFrequencies:
    def test_first_data_channel(self):
        assert data_channel_to_frequency(0) == pytest.approx(2404e6)

    def test_last_data_channel(self):
        assert data_channel_to_frequency(36) == pytest.approx(2478e6)

    def test_gap_around_channel_38(self):
        # Data channels 10 and 11 straddle advertising channel 38.
        assert data_channel_to_frequency(10) == pytest.approx(2424e6)
        assert data_channel_to_frequency(11) == pytest.approx(2428e6)

    def test_advertising_channels(self):
        assert channel_index_to_frequency(37) == pytest.approx(2402e6)
        assert channel_index_to_frequency(38) == pytest.approx(2426e6)
        assert channel_index_to_frequency(39) == pytest.approx(2480e6)

    @pytest.mark.parametrize("bad", [-1, 37, 40])
    def test_data_channel_out_of_range(self, bad):
        with pytest.raises(ProtocolError):
            data_channel_to_frequency(bad)

    def test_index_out_of_range(self):
        with pytest.raises(ProtocolError):
            channel_index_to_frequency(40)

    def test_all_frequencies_unique_and_spaced(self):
        freqs = [data_channel_to_frequency(ch) for ch in range(37)]
        assert len(freqs) == 37
        assert len(set(freqs)) == 37
        diffs = [b - a for a, b in zip(freqs, freqs[1:])]
        assert all(d >= 2e6 - 1 for d in diffs)

    def test_span_is_80_mhz_with_advertising(self):
        lo = channel_index_to_frequency(37)
        hi = channel_index_to_frequency(39)
        assert hi - lo == pytest.approx(78e6)  # centres span 78, band 80


class TestChannelMap:
    def test_all_channels(self):
        cm = ChannelMap.all_channels()
        assert cm.num_used == 37
        assert cm.contains(0) and cm.contains(36)

    def test_needs_two_channels(self):
        with pytest.raises(ProtocolError):
            ChannelMap((5,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ProtocolError):
            ChannelMap((0, 37))

    def test_deduplicates_and_sorts(self):
        cm = ChannelMap((5, 3, 5, 1))
        assert cm.used == (1, 3, 5)

    def test_remap_identity_for_used(self):
        cm = ChannelMap((0, 1, 2))
        assert cm.remap(1) == 1

    def test_remap_unused_lands_in_map(self):
        cm = ChannelMap((0, 5, 9))
        for unused in (1, 2, 3, 20, 36):
            assert cm.contains(cm.remap(unused))

    def test_remap_matches_spec_formula(self):
        cm = ChannelMap((2, 4, 8))
        assert cm.remap(7) == cm.used[7 % 3]

    def test_subsampled(self):
        cm = ChannelMap.subsampled(4)
        assert cm.used == tuple(range(0, 37, 4))

    def test_subsampled_invalid(self):
        with pytest.raises(ProtocolError):
            ChannelMap.subsampled(0)

    def test_from_blacklist(self):
        cm = ChannelMap.from_blacklist([0, 1, 2])
        assert cm.num_used == 34
        assert not cm.contains(1)

    def test_frequencies_match_channels(self):
        cm = ChannelMap((0, 36))
        assert cm.frequencies() == [
            data_channel_to_frequency(0),
            data_channel_to_frequency(36),
        ]
