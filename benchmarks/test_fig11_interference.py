"""Bench: regenerate Fig. 11 (channel subsampling has almost no effect).

Paper target: halving or quartering the number of subbands -- while
keeping the full 80 MHz span -- leaves the median error essentially
unchanged, because aliasing only appears beyond indoor distances.  The
same holds for the gap a Wi-Fi blacklist leaves (Section 8.6).
"""

from __future__ import annotations

import numpy as np

from repro.ble.channels import ChannelMap, data_channel_to_frequency
from repro.core import BlocConfig, BlocLocalizer
from repro.experiments import fig11_interference
from repro.experiments.common import (
    DEFAULT_SEED,
    ExperimentResult,
    ExperimentRow,
    default_testbed,
    grid_resolution,
)
from repro.sim import ChannelMeasurementModel, sample_tag_positions

#: Wi-Fi channel 6's centre and the half-width of its 20 MHz block [Hz].
WIFI_CH6_HZ = 2.437e9
WIFI_HALF_WIDTH_HZ = 10e6


def test_fig11_subsampling(benchmark, report_sink):
    result = benchmark.pedantic(
        fig11_interference.run, rounds=1, iterations=1, warmup_rounds=0
    )
    report_sink.append(result.format_report())
    full = result.measured("BLoc median, all 37 subbands")
    sub2 = result.measured("BLoc median, every 2nd subband (19)")
    sub4 = result.measured("BLoc median, every 4th subband (10)")
    # Shape: subsampling costs little (the paper attributes the slight
    # change to SNR, not aliasing).
    assert sub2 < full * 1.5
    assert sub4 < full * 1.8
    # And the theory row: the aliasing distance for the subsampled comb
    # exceeds the room diagonal, so no indoor ghost appears.
    assert result.measured("aliasing distance for 8 MHz gaps") > 8.0


def run_wifi_blacklist(num_positions: int = 16) -> ExperimentResult:
    """BLoc on all data channels vs with Wi-Fi channel 6 blacklisted."""
    testbed = default_testbed()
    blacklist = ChannelMap.from_blacklist(
        [
            channel
            for channel in range(37)
            if abs(data_channel_to_frequency(channel) - WIFI_CH6_HZ)
            < WIFI_HALF_WIDTH_HZ
        ]
    )
    localizer = BlocLocalizer(
        config=BlocConfig(grid_resolution_m=grid_resolution())
    )
    positions = sample_tag_positions(testbed, num_positions, seed=98)
    result = ExperimentResult(
        experiment_id="fig11-blacklist",
        title="Wi-Fi channel 6 blacklisted vs the full channel map",
    )
    for label, channel_map in (
        ("full map", ChannelMap.all_channels()),
        ("Wi-Fi ch 6 blacklisted", blacklist),
    ):
        model = ChannelMeasurementModel(
            testbed=testbed, seed=DEFAULT_SEED, channel_map=channel_map
        )
        errors = []
        for t_index, tag in enumerate(positions):
            observations = model.measure(tag, round_index=t_index)
            fix = localizer.locate(observations, keep_map=False)
            errors.append((fix.position - tag).norm())
        result.rows.append(
            ExperimentRow(
                f"median, {label}", 100 * float(np.median(errors)), None
            )
        )
    return result


def test_wifi_blacklist(benchmark, report_sink):
    result = benchmark.pedantic(
        run_wifi_blacklist, rounds=1, iterations=1, warmup_rounds=0
    )
    report_sink.append(result.format_report())
    full = result.measured("median, full map")
    blacklisted = result.measured("median, Wi-Fi ch 6 blacklisted")
    # Shape (Section 8.6): dropping one Wi-Fi channel's worth of bands
    # keeps the span, so the median stays close to the full map's.
    assert blacklisted < full * 2.0
