"""Tests for repro.ble.whitening: the channel-seeded LFSR scrambler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ble.whitening import (
    WHITENING_PERIOD,
    dewhiten,
    runs,
    whiten,
    whitening_initial_state,
    whitening_sequence,
)
from repro.errors import ProtocolError

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=300)
channels = st.integers(min_value=0, max_value=39)


class TestSequence:
    def test_initial_state_structure(self):
        state = whitening_initial_state(0b100101)  # channel 37
        assert state[0] == 1
        assert state[1:] == (1, 0, 0, 1, 0, 1)

    def test_invalid_channel(self):
        with pytest.raises(ProtocolError):
            whitening_initial_state(40)

    def test_negative_bits(self):
        with pytest.raises(ProtocolError):
            whitening_sequence(0, -1)

    def test_period_127(self):
        seq = whitening_sequence(17, 3 * WHITENING_PERIOD)
        assert np.array_equal(seq[:WHITENING_PERIOD], seq[WHITENING_PERIOD:2 * WHITENING_PERIOD])
        assert np.array_equal(
            seq[:WHITENING_PERIOD], seq[2 * WHITENING_PERIOD:]
        )

    def test_full_period_before_repeat(self):
        """x^7+x^4+1 is primitive: no shorter period divides 127 but 1."""
        seq = whitening_sequence(5, 2 * WHITENING_PERIOD)
        for period in (7, 31, 63):
            assert not np.array_equal(
                seq[:period], seq[period:2 * period]
            ), f"unexpected period {period}"

    def test_channels_differ(self):
        a = whitening_sequence(0, 64)
        b = whitening_sequence(1, 64)
        assert not np.array_equal(a, b)

    def test_balanced_ones(self):
        # A maximal-length LFSR emits 64 ones and 63 zeros per period.
        seq = whitening_sequence(11, WHITENING_PERIOD)
        assert int(seq.sum()) == 64


class TestWhiten:
    @given(bit_lists, channels)
    @settings(max_examples=60)
    def test_involution(self, bits, channel):
        arr = np.asarray(bits, dtype=np.uint8)
        assert np.array_equal(dewhiten(whiten(arr, channel), channel), arr)

    def test_whitening_breaks_runs(self):
        constant = np.zeros(64, dtype=np.uint8)
        whitened = whiten(constant, 3)
        assert max(length for _, length in runs(whitened)) < 10

    def test_whiten_empty(self):
        assert whiten(np.array([], dtype=np.uint8), 0).size == 0


class TestRunHelpers:

    def test_runs_rle(self):
        assert runs([0, 0, 1, 1, 1, 0]) == [(0, 2), (1, 3), (0, 1)]

    def test_runs_empty(self):
        assert runs([]) == []

    @given(bit_lists)
    @settings(max_examples=40)
    def test_runs_reconstruct(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        rebuilt = np.concatenate(
            [np.full(n, v, dtype=np.uint8) for v, n in runs(arr)]
        ) if arr.size else np.array([], dtype=np.uint8)
        assert np.array_equal(rebuilt, arr)
