"""The direct Eq. 17 sum: the test oracle of the steering engine.

The library evaluates Eq. 17 only through the range-profile engine
(:mod:`repro.core.engine`).  This module keeps the straightforward
formula -- rebuild every antenna's steering phases over every grid point
and band -- so tests and the steering-cache bench can check the engine
against it.  It lives under ``tests/`` (on ``sys.path`` through
``tests/conftest.py``; ``benchmarks/conftest.py`` adds it too) and is
imported, never copied.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shaped
from repro.constants import SPEED_OF_LIGHT
from repro.core.correction import CorrectedChannels
from repro.core.likelihood import LikelihoodMap
from repro.core.localizer import BlocLocalizer
from repro.utils.gridmap import Grid2D


@shaped(points=("N", 2), reference_distances=("N",))
def anchor_likelihood_flat(
    corrected: CorrectedChannels,
    anchor_index: int,
    points: np.ndarray,
    reference_distances: np.ndarray,
) -> np.ndarray:
    """Eq. 17 for one anchor over flattened candidate points.

    Args:
        corrected: the corrected channels.
        anchor_index: which anchor to evaluate.
        points: candidate positions, shape ``(N, 2)``.
        reference_distances: ``|x - p_00|`` per point, shape ``(N,)``.

    Returns:
        Non-negative likelihood per point, shape ``(N,)``.
    """
    anchor = corrected.anchors[anchor_index]
    baseline = float(corrected.anchor_baselines_m[anchor_index])
    wavenumbers = 2.0 * np.pi * corrected.frequencies_hz / SPEED_OF_LIGHT
    total = np.zeros(points.shape[0], dtype=complex)
    for j in range(corrected.num_antennas):
        element = anchor.antenna_position(j).as_array()
        distances = np.linalg.norm(points - element[None, :], axis=1)
        relative = distances - reference_distances - baseline  # (N,)
        # exp(+j k_f * relative) undoes the measured phase when x is right.
        phases = np.outer(relative, wavenumbers)  # (N, K)
        total += np.exp(1j * phases) @ corrected.alpha[anchor_index, j, :]
    return np.abs(total)


def direct_flats(corrected: CorrectedChannels, grid: Grid2D) -> np.ndarray:
    """Every anchor's direct Eq. 17 map over ``grid``, shape ``(I, N)``."""
    points = grid.points()
    reference = corrected.master_reference_position().as_array()
    reference_distances = np.linalg.norm(points - reference[None, :], axis=1)
    return np.array(
        [
            anchor_likelihood_flat(corrected, i, points, reference_distances)
            for i in range(corrected.num_anchors)
        ]
    )


class DirectBlocLocalizer(BlocLocalizer):
    """A :class:`BlocLocalizer` whose Eq. 17 stage runs the oracle.

    Everything else -- correction, peaks, Eq. 18, refinement -- is the
    production pipeline, so its fixes differ from the engine's only by
    the engine's interpolation error.
    """

    def map_likelihood(
        self, corrected: CorrectedChannels, grid: Grid2D
    ) -> LikelihoodMap:
        flats = direct_flats(corrected, grid)
        return LikelihoodMap.from_anchor_maps(flats, grid)
