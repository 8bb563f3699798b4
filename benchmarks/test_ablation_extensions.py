"""Bench: ablations of the extension modules (DESIGN.md Section 4b).

Covers the MUSIC vs Bartlett angle estimator inside the AoA baseline,
and Wi-Fi collision losses vs adaptive blacklisting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import AoaLocalizer
from repro.core import BlocConfig, BlocLocalizer
from repro.experiments.common import (
    DEFAULT_SEED,
    ExperimentResult,
    ExperimentRow,
    default_dataset,
    default_testbed,
    grid_resolution,
)
from repro.sim import (
    ChannelMeasurementModel,
    InterferedMeasurementModel,
    WifiNetwork,
    blacklist_map,
    evaluate,
    sample_tag_positions,
)


def run_music_vs_bartlett() -> ExperimentResult:
    """AoA baseline with MUSIC vs the paper's Bartlett beamformer."""
    dataset = default_dataset()
    result = ExperimentResult(
        experiment_id="ablation-music",
        title="AoA baseline: MUSIC vs Bartlett angle spectra",
    )
    for method in ("bartlett", "music"):
        run = evaluate(
            AoaLocalizer(spectrum_method=method), dataset, label=method
        )
        result.rows.append(
            ExperimentRow(
                f"AoA median, {method}",
                100 * run.stats().median_m(),
                None,
            )
        )
    return result


def run_interference_modes(num_positions: int = 16) -> ExperimentResult:
    """Collision losses vs adaptive blacklisting under busy Wi-Fi."""
    testbed = default_testbed()
    networks = [WifiNetwork(channel=6, duty_cycle=0.8)]
    localizer = BlocLocalizer(
        config=BlocConfig(grid_resolution_m=grid_resolution())
    )
    positions = sample_tag_positions(testbed, num_positions, seed=98)
    base = ChannelMeasurementModel(testbed=testbed, seed=DEFAULT_SEED)
    collided = InterferedMeasurementModel(
        base=base, networks=networks, seed=1
    )
    adaptive = ChannelMeasurementModel(
        testbed=testbed, seed=DEFAULT_SEED, channel_map=blacklist_map(networks)
    )
    result = ExperimentResult(
        experiment_id="ablation-interference",
        title="Wi-Fi interference: collisions vs adaptive blacklisting",
    )
    for label, model in (
        ("no Wi-Fi", base),
        ("collisions (ch 6, 80% duty)", collided),
        ("adaptive blacklist", adaptive),
    ):
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


def test_ablation_music_vs_bartlett(benchmark, report_sink):
    result = benchmark.pedantic(
        run_music_vs_bartlett, rounds=1, iterations=1, warmup_rounds=0
    )
    report_sink.append(result.format_report())
    bartlett = result.measured("AoA median, bartlett")
    music = result.measured("AoA median, music")
    # Shape: both are AoA-only baselines; neither should collapse, and
    # both must stay clearly worse than BLoc's headline (sub-metre).
    assert bartlett > 80.0
    assert music > 80.0


def test_ablation_interference_modes(benchmark, report_sink):
    result = benchmark.pedantic(
        run_interference_modes, rounds=1, iterations=1, warmup_rounds=0
    )
    report_sink.append(result.format_report())
    clean = result.measured("median, no Wi-Fi")
    collided = result.measured("median, collisions (ch 6, 80% duty)")
    adaptive = result.measured("median, adaptive blacklist")
    # Shape (Section 8.6): losing one Wi-Fi channel's worth of bands is
    # almost free, whether by collisions or by blacklisting.
    assert collided < clean * 2.0
    assert adaptive < clean * 2.0
