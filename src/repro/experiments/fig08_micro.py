"""Fig. 8 reproduction: the three microbenchmarks.

* Fig. 8a -- CSI phase stability: repeat the IQ-fidelity CSI measurement
  of subbands {6, 16, 26, 36} nine times and check the per-band phase
  stays consistent across time.
* Fig. 8b -- offset cancellation: in a LOS, low-multipath setting the
  corrected cross-band phase must be (piecewise) linear in frequency,
  while the uncorrected phase is random per band.
* Fig. 8c -- a sample multipath profile over X-Y: several peaks exist and
  the strongest neighbourhood contains the true location after scoring.
"""

from __future__ import annotations

import numpy as np

from repro.ble.channels import ChannelMap
from repro.core import (
    SteeringCache,
    compute_likelihood_map,
    correct_phase_offsets,
    find_peaks,
    score_peaks,
)
from repro.experiments.common import (
    ExperimentResult,
    ExperimentRow,
    default_testbed,
    grid_resolution,
)
from repro.sim import ChannelMeasurementModel, IqMeasurementModel
from repro.sim.testbed import open_room_testbed
from repro.utils.complexutils import wrap_phase
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D

#: Subbands highlighted by the paper's Fig. 8a.
FIG8A_SUBBANDS = (6, 16, 26, 36)


def run_csi_stability(
    tag: Point = Point(0.5, 0.8),
    repeats: int = 9,
    seed: int = 8,
) -> ExperimentResult:
    """Fig. 8a: per-band CSI phase consistency over repeated measurements.

    Runs the *IQ-fidelity* pipeline (GFSK packets, correlation acquisition,
    tone CSI) on the four highlighted subbands.  Raw per-packet phases are
    garbled by the random oscillator offsets, so -- like the paper, which
    plots stable phases -- we look at the offset-corrected channels and
    report the worst per-band circular phase standard deviation.
    """
    testbed = open_room_testbed()
    model = IqMeasurementModel(
        testbed=testbed,
        seed=seed,
        snr_db=35.0,
        channel_map=ChannelMap(FIG8A_SUBBANDS),
    )
    phases = []  # (repeat, band) corrected phase at anchor 1, antenna 0
    for r in range(repeats):
        observations = model.measure(tag, round_index=r)
        corrected = correct_phase_offsets(observations)
        phases.append(np.angle(corrected.alpha[1, 0, :]))
    phases = np.array(phases)  # (repeats, bands)
    # Circular std per band across repeats.
    resultant = np.abs(np.mean(np.exp(1j * phases), axis=0))
    circular_std = np.sqrt(-2.0 * np.log(np.maximum(resultant, 1e-12)))
    worst_deg = float(np.degrees(circular_std.max()))
    return ExperimentResult(
        experiment_id="fig8a",
        title="CSI measurement stability over time (IQ fidelity)",
        rows=[
            ExperimentRow(
                label=f"worst per-band phase std over {repeats} repeats",
                measured=worst_deg,
                paper=None,
                units="deg",
            ),
        ],
        notes=[
            "Paper plots visually constant phases across 9 instants; a "
            "small circular std reproduces that.",
        ],
    )


def run_offset_cancellation(
    seed: int = 8, tag: Point = Point(1.2, 0.0)
) -> ExperimentResult:
    """Fig. 8b: corrected phase is linear across subbands, raw is not.

    A phase that is linear in frequency has *constant* adjacent-band
    increments; random per-band offsets make the increments uniform over
    the circle.  We therefore report the circular standard deviation of
    the adjacent-band phase increments: small for BLoc's corrected
    channels, near the uniform limit (~104 deg) without correction.
    """
    testbed = open_room_testbed()
    model = ChannelMeasurementModel(
        testbed=testbed,
        seed=seed,
        snr_db=30.0,
        oscillator_drift_std=10.0,
        calibration_error_m=0.0,
    )
    observations = model.measure(tag)
    corrected = correct_phase_offsets(observations)

    def increment_spread_deg(phase_wrapped: np.ndarray) -> float:
        increments = wrap_phase(np.diff(phase_wrapped))
        resultant = abs(np.mean(np.exp(1j * increments)))
        circular_std = np.sqrt(-2.0 * np.log(max(resultant, 1e-12)))
        return float(np.degrees(circular_std))

    slave = 1  # a slave anchor with LOS to both tag and master
    raw_phase = np.angle(observations.tag_to_anchor[slave, 0, :])
    corrected_phase = np.angle(corrected.alpha[slave, 0, :])
    return ExperimentResult(
        experiment_id="fig8b",
        title="Phase across subbands with / without offset correction",
        rows=[
            ExperimentRow(
                label="phase-increment spread, no correction",
                measured=increment_spread_deg(raw_phase),
                paper=None,
                units="deg",
            ),
            ExperimentRow(
                label="phase-increment spread, BLoc correction",
                measured=increment_spread_deg(corrected_phase),
                paper=None,
                units="deg",
            ),
        ],
        notes=[
            "Paper's red (BLoc) curve is linear in frequency, the blue "
            "(uncorrected) one random: the corrected increment spread "
            "must be far below the uncorrected (~uniform, >90 deg) one.",
        ],
    )


def run_multipath_profile(
    tag: Point = Point(-1.2, 1.1), seed: int = 9
) -> ExperimentResult:
    """Fig. 8c: a sample multipath profile with several candidate peaks."""
    testbed = default_testbed()
    model = ChannelMeasurementModel(testbed=testbed, seed=seed)
    observations = model.measure(tag)
    corrected = correct_phase_offsets(observations)
    x_min, x_max, y_min, y_max = testbed.environment.bounds()
    grid = Grid2D(x_min, x_max, y_min, y_max, grid_resolution())
    likelihood = compute_likelihood_map(corrected, grid, SteeringCache())
    peaks = find_peaks(likelihood.combined, grid)
    scored = score_peaks(
        peaks, likelihood.combined, grid, corrected.anchors
    )
    winner_error = (scored[0].peak.position - tag).norm()
    return ExperimentResult(
        experiment_id="fig8c",
        title="Sample multipath profile over X-Y",
        rows=[
            ExperimentRow(
                label="candidate peaks in the combined profile",
                measured=float(len(peaks)),
                paper=None,
                units="",
            ),
            ExperimentRow(
                label="error of the best-scored peak",
                measured=100.0 * winner_error,
                paper=None,
            ),
        ],
        notes=[
            "Paper's profile shows multiple maxima (reflections) with the "
            "predicted and actual location in the same neighbourhood.",
        ],
    )


def run() -> ExperimentResult:
    """All three Fig. 8 microbenchmarks merged into one report."""
    merged = ExperimentResult(
        experiment_id="fig8",
        title="Microbenchmarks (Fig. 8a/8b/8c)",
    )
    for sub in (
        run_csi_stability(),
        run_offset_cancellation(),
        run_multipath_profile(),
    ):
        merged.rows.extend(sub.rows)
        merged.notes.extend(sub.notes)
    return merged
