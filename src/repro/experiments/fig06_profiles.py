"""Fig. 6 reproduction: the three likelihood-profile views.

Fig. 6 shows, for one tag placement, (a) the angle-only likelihood of a
single anchor mapped over space, (b) the relative-distance (hyperbolic)
likelihood, and (c) the joint Eq. 17 map combined over anchors, peaking
at the true location.  We reproduce all three and report how far each
view's argmax lands from the truth -- angle-only and distance-only views
are expected to be ambiguous (ridge/hyperbola shaped), the joint map
tight.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    SteeringCache,
    compute_likelihood_map,
    correct_phase_offsets,
)
from repro.core.correction import CorrectedChannels
from repro.experiments.common import (
    ExperimentResult,
    ExperimentRow,
    default_testbed,
    grid_resolution,
)
from repro.sim import ChannelMeasurementModel
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D


def _argmax_position(values: np.ndarray, grid: Grid2D) -> Point:
    row, col = np.unravel_index(int(np.argmax(values)), values.shape)
    return grid.point_at(int(row), int(col))


def _restricted(corrected: CorrectedChannels, bands) -> CorrectedChannels:
    return CorrectedChannels(
        anchors=corrected.anchors,
        master_index=corrected.master_index,
        frequencies_hz=corrected.frequencies_hz[bands],
        alpha=corrected.alpha[:, :, bands],
        anchor_baselines_m=corrected.anchor_baselines_m,
    )


def run(tag: Point = Point(0.9, 0.6), seed: int = 5) -> ExperimentResult:
    """Reproduce Fig. 6's three views for one tag placement."""
    testbed = default_testbed()
    model = ChannelMeasurementModel(testbed=testbed, seed=seed)
    observations = model.measure(tag)
    corrected = correct_phase_offsets(observations)
    x_min, x_max, y_min, y_max = testbed.environment.bounds()
    grid = Grid2D(x_min, x_max, y_min, y_max, grid_resolution())
    engine = SteeringCache()  # one entry per view's geometry

    # (a) Angle-only view: a single band kills the distance information,
    # and a single anchor leaves only its AoA ridge.
    single_band = _restricted(corrected, [corrected.num_bands // 2])
    angle_map = compute_likelihood_map(single_band, grid, engine).per_anchor[1]
    angle_error = (_argmax_position(angle_map, grid) - tag).norm()

    # (b) Distance-only view: one antenna per anchor removes the angle
    # information; the remaining relative distance draws a hyperbola.
    one_antenna = CorrectedChannels(
        anchors=[a.truncated(1) for a in corrected.anchors],
        master_index=corrected.master_index,
        frequencies_hz=corrected.frequencies_hz,
        alpha=corrected.alpha[:, :1, :],
        anchor_baselines_m=corrected.anchor_baselines_m,
    )
    distance_map = compute_likelihood_map(
        one_antenna, grid, engine
    ).per_anchor[1]
    distance_error = (_argmax_position(distance_map, grid) - tag).norm()

    # (c) Joint view: everything combined (Eq. 17 over all anchors).
    joint = compute_likelihood_map(corrected, grid, engine)
    joint_error = (_argmax_position(joint.combined, grid) - tag).norm()

    return ExperimentResult(
        experiment_id="fig6",
        title="Likelihood profiles: angle-only, distance-only, joint",
        rows=[
            ExperimentRow(
                label="argmax error, single-anchor angle view (a)",
                measured=100.0 * angle_error,
                paper=None,
            ),
            ExperimentRow(
                label="argmax error, single-antenna distance view (b)",
                measured=100.0 * distance_error,
                paper=None,
            ),
            ExperimentRow(
                label="argmax error, joint map (c)",
                measured=100.0 * joint_error,
                paper=None,
            ),
        ],
        notes=[
            "Fig. 6 is qualitative. Expected shape: (a) and (b) are "
            "ambiguous (ridge / hyperbola) so their argmax can be far "
            "off; the joint map (c) should peak near the true location.",
        ],
    )
