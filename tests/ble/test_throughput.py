"""Tests for repro.ble.throughput: the Section 6 overhead accounting."""

from __future__ import annotations

import pytest

from repro.ble.throughput import (
    localization_packet_duration_s,
    throughput_with_localization,
)
from repro.errors import ConfigurationError


class TestPacketDuration:
    def test_duration_scales_with_pattern(self):
        short = localization_packet_duration_s(run_length=4, num_pairs=2)
        long = localization_packet_duration_s(run_length=8, num_pairs=8)
        assert long > short

    def test_default_under_quarter_millisecond(self):
        assert localization_packet_duration_s() < 250e-6

    def test_invalid_pattern(self):
        with pytest.raises(ConfigurationError):
            localization_packet_duration_s(run_length=1)


class TestThroughput:
    def test_one_sweep_per_second_is_cheap(self):
        """The paper's claim: localization 'should not effect the
        throughput of the usual BLE communication'."""
        report = throughput_with_localization(sweeps_per_second=1.0)
        assert report.localization_airtime_fraction < 0.35
        assert report.data_throughput_bps > 100_000

    def test_zero_sweeps_means_zero_overhead(self):
        report = throughput_with_localization(sweeps_per_second=0.0)
        assert report.localization_airtime_fraction == 0.0

    def test_more_sweeps_more_overhead(self):
        low = throughput_with_localization(sweeps_per_second=0.5)
        high = throughput_with_localization(sweeps_per_second=2.0)
        assert (
            high.localization_airtime_fraction
            > low.localization_airtime_fraction
        )
        assert high.data_throughput_bps < low.data_throughput_bps

    def test_sweep_rate_bounded_by_interval(self):
        with pytest.raises(ConfigurationError):
            throughput_with_localization(
                connection_interval_s=7.5e-3, sweeps_per_second=4.0
            )

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            throughput_with_localization(connection_interval_s=0)
