"""Tests for repro.ble.hopping: CSA#1 and the prime-walk property."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ble.channels import ChannelMap
from repro.ble.hopping import HopSequence
from repro.errors import ProtocolError

hop_increments = st.integers(min_value=5, max_value=16)
start_channels = st.integers(min_value=0, max_value=36)


class TestHopSequence:
    def test_advance_formula(self):
        seq = HopSequence(hop_increment=7, start_channel=10)
        assert seq.current() == 10
        assert seq.advance() == 17

    def test_wraps_mod_37(self):
        seq = HopSequence(hop_increment=16, start_channel=30)
        assert seq.advance() == (30 + 16) % 37

    def test_invalid_increment(self):
        with pytest.raises(ProtocolError):
            HopSequence(hop_increment=4)
        with pytest.raises(ProtocolError):
            HopSequence(hop_increment=17)

    def test_invalid_start(self):
        with pytest.raises(ProtocolError):
            HopSequence(start_channel=37)

    def test_reset(self):
        seq = HopSequence(hop_increment=9, start_channel=3)
        seq.advance()
        seq.advance()
        seq.reset()
        assert seq.current() == 3

    def test_events_yields_and_advances(self):
        seq = HopSequence(hop_increment=5, start_channel=0)
        events = list(seq.events(3))
        assert events == [0, 5, 10]
        assert seq.current() == 15

    @given(hop_increments, start_channels)
    @settings(max_examples=60)
    def test_prime_walk_visits_every_channel(self, hop, start):
        """The paper's Section 2.1 property: 37 prime => full coverage."""
        seq = HopSequence(hop_increment=hop, start_channel=start)
        cycle = list(seq.events(37))
        assert sorted(cycle) == list(range(37))

    @given(hop_increments, start_channels)
    @settings(max_examples=30)
    def test_cycle_period_is_exactly_37(self, hop, start):
        seq = HopSequence(hop_increment=hop, start_channel=start)
        events = list(seq.events(74))
        assert events[:37] == events[37:]


class TestRemappedHopping:
    def test_remapped_channels_stay_in_map(self):
        cm = ChannelMap((0, 4, 8, 12, 30))
        seq = HopSequence(hop_increment=7, channel_map=cm)
        for channel in seq.events(37):
            assert cm.contains(channel)

    def test_reduced_map_covers_all_used_channels(self):
        cm = ChannelMap(tuple(range(0, 37, 3)))
        seq = HopSequence(hop_increment=7, channel_map=cm)
        visited = set(seq.events(37))
        assert visited == set(cm.used)
