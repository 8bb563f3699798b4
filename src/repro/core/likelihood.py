"""Likelihood mapping: corrected channels to a 2-D spatial map (Eq. 17).

For a candidate tag position ``x`` and anchor ``i``, the corrected channel
``alpha_ijk`` predicts the phase

    -(2 pi f_k / c) * (|x - p_ij| - |x - p_00| - baseline_i)

where ``p_ij`` is antenna ``j`` of anchor ``i`` and ``p_00`` the master's
reference antenna.  Coherently summing ``alpha * exp(+j predicted phase)``
over antennas and bands scores how well ``x`` explains the measurements.
Eq. 17 is evaluated in cartesian space -- the "simple change of
coordinates" the paper mentions -- which is exact at any range (no
far-field approximation), and automatically fuses the angle information
(phase across antennas) with the relative-distance information (phase
across bands).  The sums run on the cached range profiles of
:mod:`repro.core.engine`, within its stated interpolation bound.

Per-anchor maps are normalised to peak 1 and summed (Section 5.3's final
step): likelihoods from different anchors have incommensurate scales
because the slave alphas carry extra |H| |h00| amplitude factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.correction import CorrectedChannels
from repro.core.engine import SteeringCache
from repro.utils.complexutils import normalize_peak
from repro.utils.gridmap import Grid2D


@dataclass
class LikelihoodMap:
    """A spatial likelihood distribution plus its provenance.

    Attributes:
        grid: the evaluation grid.
        combined: summed per-anchor maps, shape ``grid.shape``.
        per_anchor: list of normalised per-anchor maps.
    """

    grid: Grid2D
    combined: np.ndarray
    per_anchor: List[np.ndarray]

    @property
    def num_anchors(self) -> int:
        """Number of anchors that contributed."""
        return len(self.per_anchor)

    def normalized(self) -> np.ndarray:
        """Combined map scaled to peak 1."""
        return normalize_peak(self.combined)

    @classmethod
    def from_anchor_maps(
        cls, flats: np.ndarray, grid: Grid2D
    ) -> "LikelihoodMap":
        """Normalise ``(I, N)`` per-anchor maps to peak 1 and sum them.

        :func:`~repro.utils.complexutils.normalize_peak` per row in one
        divide (all-zero rows stay zero); the axis-0 sum adds the anchors
        in index order.
        """
        peaks = flats.max(axis=1, keepdims=True)
        normalised = (flats / np.where(peaks <= 0.0, 1.0, peaks)).reshape(
            (-1,) + grid.shape
        )
        return cls(
            grid=grid,
            combined=normalised.sum(axis=0),
            per_anchor=list(normalised),
        )


def compute_likelihood_map(
    corrected: CorrectedChannels,
    grid: Grid2D,
    engine: SteeringCache,
) -> LikelihoodMap:
    """Evaluate Eq. 17 for every anchor and combine over the grid.

    Args:
        corrected: corrected channels (from
            :func:`repro.core.correction.correct_phase_offsets`).
        grid: candidate-position grid.
        engine: the :class:`~repro.core.engine.SteeringCache` holding the
            geometry's range-profile samples and stacked gather (built on
            the first call for a geometry).  Each per-anchor map is within
            :meth:`~repro.core.engine.SteeringEntry.error_bound`
            (``delta^2 h^2 / 8 * sum |alpha|``, 1e-5 of ``sum |alpha|``)
            of the exact Eq. 17 sum.

    Returns:
        The combined and per-anchor likelihood maps.
    """
    flats = engine.entry_for(corrected, grid).likelihoods(corrected.alpha)
    return LikelihoodMap.from_anchor_maps(flats, grid)
