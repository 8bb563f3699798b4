"""Tests for repro.sdr.iq: the capture container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sdr.iq import IqCapture


def make_capture(num_antennas=2, num_samples=64):
    samples = np.arange(num_antennas * num_samples, dtype=float).reshape(
        num_antennas, num_samples
    ).astype(complex)
    return IqCapture(
        samples=samples,
        sample_rate=8e6,
        channel_index=5,
        carrier_frequency_hz=2.414e9,
        source="tag",
        start_sample_offset=10,
    )


class TestIqCapture:
    def test_shapes(self):
        capture = make_capture(3, 100)
        assert capture.num_antennas == 3
        assert capture.num_samples == 100
        assert capture.duration_s == pytest.approx(100 / 8e6)

    def test_1d_promoted_to_2d(self):
        capture = IqCapture(
            samples=np.zeros(16, complex),
            sample_rate=8e6,
            channel_index=0,
            carrier_frequency_hz=2.404e9,
        )
        assert capture.num_antennas == 1

    def test_invalid_sample_rate(self):
        with pytest.raises(ConfigurationError):
            IqCapture(
                samples=np.zeros((1, 4), complex),
                sample_rate=0,
                channel_index=0,
                carrier_frequency_hz=2.4e9,
            )

    def test_antenna_access(self):
        capture = make_capture()
        assert capture.antenna(1)[0] == 64

    def test_antenna_out_of_range(self):
        with pytest.raises(ConfigurationError):
            make_capture().antenna(2)

    def test_sliced_window_and_offset(self):
        capture = make_capture()
        part = capture.sliced(4, 20)
        assert part.num_samples == 16
        assert part.start_sample_offset == 6
        assert part.antenna(0)[0] == 4

    def test_sliced_bad_range(self):
        with pytest.raises(ConfigurationError):
            make_capture().sliced(10, 5)
