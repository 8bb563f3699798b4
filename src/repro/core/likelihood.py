"""Likelihood mapping: corrected channels to a 2-D spatial map (Eq. 17).

For a candidate tag position ``x`` and anchor ``i``, the corrected channel
``alpha_ijk`` predicts the phase

    -(2 pi f_k / c) * (|x - p_ij| - |x - p_00| - baseline_i)

where ``p_ij`` is antenna ``j`` of anchor ``i`` and ``p_00`` the master's
reference antenna.  Coherently summing ``alpha * exp(+j predicted phase)``
over antennas and bands scores how well ``x`` explains the measurements.
This evaluates Eq. 17 directly in cartesian space -- the "simple change of
coordinates" the paper mentions -- which is exact at any range (no
far-field approximation), and automatically fuses the angle information
(phase across antennas) with the relative-distance information (phase
across bands).

Per-anchor maps are normalised to peak 1 and summed (Section 5.3's final
step): likelihoods from different anchors have incommensurate scales
because the slave alphas carry extra |H| |h00| amplitude factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.contracts import shaped
from repro.constants import SPEED_OF_LIGHT
from repro.core.correction import CorrectedChannels
from repro.core.engine import SteeringCache
from repro.errors import ConfigurationError
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
        reference_distances: ``|x - p_00|`` per point, shape ``(N,)``
            (precomputed once and shared across anchors).

    Returns:
        Non-negative likelihood per point, shape ``(N,)``.
    """
    anchor = corrected.anchors[anchor_index]
    baseline = float(corrected.anchor_baselines_m[anchor_index])
    freqs = corrected.frequencies_hz
    wavenumbers = 2.0 * np.pi * freqs / SPEED_OF_LIGHT  # shape (K,)
    total = np.zeros(points.shape[0], dtype=complex)
    for j in range(corrected.num_antennas):
        element = anchor.antenna_position(j).as_array()
        distances = np.linalg.norm(points - element[None, :], axis=1)
        relative = distances - reference_distances - baseline  # (N,)
        # exp(+j k_f * relative) undoes the measured phase when x is right.
        phases = np.outer(relative, wavenumbers)  # (N, K)
        total += np.exp(1j * phases) @ corrected.alpha[anchor_index, j, :]
    return np.abs(total)


def compute_likelihood_map(
    corrected: CorrectedChannels,
    grid: Grid2D,
    anchor_weights: Optional[np.ndarray] = None,
    engine: Optional[SteeringCache] = None,
) -> LikelihoodMap:
    """Evaluate Eq. 17 for every anchor and combine over the grid.

    Args:
        corrected: corrected channels (from
            :func:`repro.core.correction.correct_phase_offsets`).
        grid: candidate-position grid.
        anchor_weights: optional per-anchor weights for the combination
            (default: equal weights, as in the paper).
        engine: optional :class:`~repro.core.engine.SteeringCache`; when
            given, every anchor is evaluated on its cached range-profile
            samples and gathers instead of the direct rebuild-everything
            path.  Each per-anchor map then agrees with the direct one
            within :meth:`~repro.core.engine.SteeringEntry.error_bound`
            (``delta^2 h^2 / 8 * sum |alpha|``, 1e-5 of ``sum |alpha|``).

    Returns:
        The combined and per-anchor likelihood maps.
    """
    if anchor_weights is None:
        anchor_weights = np.ones(corrected.num_anchors)
    else:
        anchor_weights = np.asarray(anchor_weights, dtype=float)
        if anchor_weights.size != corrected.num_anchors:
            raise ConfigurationError(
                "anchor_weights length must match the anchor count"
            )
    if engine is not None:
        flats = engine.entry_for(corrected, grid).likelihoods(
            corrected.alpha[None]
        )[0]
    else:
        points = grid.points()
        reference = corrected.master_reference_position().as_array()
        reference_distances = np.linalg.norm(
            points - reference[None, :], axis=1
        )
        flats = [
            anchor_likelihood_flat(corrected, i, points, reference_distances)
            for i in range(corrected.num_anchors)
        ]
    per_anchor = []
    combined = np.zeros(grid.shape)
    for i, flat in enumerate(flats):
        normalised = normalize_peak(grid.reshape(flat))
        per_anchor.append(normalised)
        combined += anchor_weights[i] * normalised
    return LikelihoodMap(grid=grid, combined=combined, per_anchor=per_anchor)


def compute_likelihood_maps_batched(
    corrected_batch: Sequence[CorrectedChannels],
    grid: Grid2D,
    engine: SteeringCache,
    anchor_weights: Optional[np.ndarray] = None,
) -> List[LikelihoodMap]:
    """Eq. 17 for a whole batch of fixes through one shared kernel call.

    All fixes must share the steering geometry (same grid, anchors,
    master, baselines and band plan -- the caller guarantees this; see
    :meth:`~repro.core.localizer.BlocLocalizer.locate_batch`): their
    corrected channels are stacked into a ``(B, anchors, antennas,
    bands)`` tensor and evaluated with
    :meth:`~repro.core.engine.SteeringEntry.likelihoods`, the per-fix
    kernel with B columns instead of one.

    Per-map normalisation and anchor combination are identical to
    :func:`compute_likelihood_map`; results agree with the per-fix path
    up to BLAS reduction reordering (< 1e-12 relative).

    Args:
        corrected_batch: corrected channels of B fixes, shared geometry.
        grid: candidate-position grid (shared across the batch).
        engine: the steering cache (required -- batching exists to reuse
            its entry; use :func:`compute_likelihood_map` per fix for
            the direct path).
        anchor_weights: optional per-anchor combination weights.

    Returns:
        One :class:`LikelihoodMap` per input fix, input order.
    """
    batch = list(corrected_batch)
    if not batch:
        return []
    num_anchors = batch[0].num_anchors
    if anchor_weights is None:
        anchor_weights = np.ones(num_anchors)
    else:
        anchor_weights = np.asarray(anchor_weights, dtype=float)
        if anchor_weights.size != num_anchors:
            raise ConfigurationError(
                "anchor_weights length must match the anchor count"
            )
    entry = engine.entry_for(batch[0], grid)
    flats = entry.likelihoods(np.stack([c.alpha for c in batch]))
    per_fix_anchor: List[List[np.ndarray]] = [[] for _ in batch]
    combined = np.zeros((len(batch),) + grid.shape)
    for i in range(num_anchors):
        for b in range(len(batch)):
            normalised = normalize_peak(grid.reshape(flats[b, i]))
            per_fix_anchor[b].append(normalised)
            combined[b] += anchor_weights[i] * normalised
    return [
        LikelihoodMap(
            grid=grid, combined=combined[b], per_anchor=per_fix_anchor[b]
        )
        for b in range(len(batch))
    ]
