"""AoA-combining baseline (the paper's compared scheme, Section 7).

State-of-the-art Wi-Fi localizers the paper compares to (ArrayTrack,
SpotFi) are built on angle-of-arrival: each anchor computes an angle
spectrum from the relative phases across its antennas -- which survive the
per-hop oscillator offsets because one oscillator drives the whole array
-- and the anchors' estimates are combined by triangulation.  No
cross-band phase is usable without BLoc's correction, so each band
contributes an independent (non-coherently combined) spectrum.

Two combination modes are provided:

* ``"triangulation"`` (default, the paper's scheme): each anchor commits
  to its strongest arrival angle and the bearings are intersected by
  least squares.  This is what "least ToF based AoA localization" reduces
  to on BLE, where 2 MHz of bandwidth gives no usable ToF to pick the
  direct path -- one multipath-corrupted anchor drags the intersection
  away, which is exactly why the paper measures 2.42 m median for it.
* ``"spectrum"`` -- a stronger soft variant that sums full per-anchor
  angle spectra over a grid before taking the argmax (an extension
  beyond the paper's baseline; useful as an upper bound).

The baseline consumes the *same* :class:`~repro.core.observations.
ChannelObservations` as BLoc, matching Section 7: "using the same number
of antennas and the same set of channel measurements".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.engine import LruCache
from repro.core.observations import ChannelObservations
from repro.core.steering import angle_steering, steered_spectrum
from repro.errors import ConfigurationError, LocalizationError
from repro.utils.complexutils import normalize_peak
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D

#: Valid spectrum-combination modes.
AOA_MODES = ("triangulation", "spectrum")

#: Steering tensors one :class:`AoaLocalizer` keeps.  The band plan
#: comes from the request body in the service, so the cache is bounded;
#: one entry is 0.86 MB for 4 antennas x 37 bands x 361 angles.
AOA_STEERING_CACHE_ENTRIES = 4


@dataclass
class AoaResult:
    """Result of an AoA-combining fix.

    Attributes:
        position: estimated tag position.
        per_anchor_angles_rad: each anchor's strongest arrival angle.
        likelihood: the combined spatial map (spectrum mode only).
    """

    position: Point
    per_anchor_angles_rad: List[float]
    likelihood: Optional[np.ndarray] = None


@dataclass
class AoaLocalizer:
    """Angle-of-arrival combining baseline.

    Attributes:
        grid_resolution_m: spacing of the combination grid (spectrum mode).
        grid_margin_m: grid extension beyond the anchor hull.
        num_angles: resolution of each anchor's angle spectrum.
        mode: "triangulation" (paper baseline) or "spectrum" (soft).
        bounds: optional fixed grid / clamp bounds.

    The Bartlett steering tensor (:func:`~repro.core.steering.
    angle_steering`) depends only on the array, the band plan and the
    angle count, so it is built once per (antenna count, spacing, band
    plan, angle count) and kept in a bounded LRU; every fix then only
    runs the steered sum, as Eq. 17 does on the steering engine.
    """

    grid_resolution_m: float = 0.05
    grid_margin_m: float = 0.25
    num_angles: int = 361
    mode: str = "triangulation"
    bounds: Optional[Tuple[float, float, float, float]] = None
    _steering: LruCache = field(
        default_factory=lambda: LruCache(AOA_STEERING_CACHE_ENTRIES),
        init=False,
        repr=False,
        compare=False,
    )

    def __post_init__(self):
        if self.grid_resolution_m <= 0:
            raise ConfigurationError("grid resolution must be > 0")
        if self.num_angles < 11:
            raise ConfigurationError("num_angles must be >= 11")
        if self.mode not in AOA_MODES:
            raise ConfigurationError(
                f"mode must be one of {AOA_MODES}, got {self.mode!r}"
            )

    def _grid_for(self, observations: ChannelObservations) -> Grid2D:
        if self.bounds is not None:
            return Grid2D.from_bounds(self.bounds, self.grid_resolution_m)
        xs = [a.position.x for a in observations.anchors]
        ys = [a.position.y for a in observations.anchors]
        m = self.grid_margin_m
        return Grid2D(
            min(xs) - m, max(xs) + m, min(ys) - m, max(ys) + m,
            self.grid_resolution_m,
        )

    def anchor_spectrum(
        self, observations: ChannelObservations, anchor_index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One anchor's multi-band angle spectrum ``Pa(theta)``.

        The paper's Eq. 3 Bartlett beamformer, summed over the bands.

        Thread-safety: safe to call concurrently; the steering cache
        guards its own entries and they are never written after the
        build.
        """
        anchor = observations.anchors[anchor_index]
        angles = np.linspace(-np.pi / 2.0, np.pi / 2.0, self.num_angles)
        channels = np.asarray(
            observations.tag_to_anchor[anchor_index], dtype=complex
        )  # (J, K)
        freqs = np.asarray(observations.frequencies_hz, dtype=float)
        num_antennas = channels.shape[0]
        steering = self._steering.get_or_build(
            (
                num_antennas,
                float(anchor.spacing_m),
                tuple(freqs.tolist()),
                self.num_angles,
            ),
            lambda: angle_steering(
                num_antennas, anchor.spacing_m, freqs, angles
            ),
        )
        return angles, steered_spectrum(channels, steering)

    def _clamp_bounds(self, observations: ChannelObservations):
        if self.bounds is not None:
            return self.bounds
        xs = [a.position.x for a in observations.anchors]
        ys = [a.position.y for a in observations.anchors]
        m = self.grid_margin_m
        return (min(xs) - m, max(xs) + m, min(ys) - m, max(ys) + m)

    def _triangulate(
        self, observations: ChannelObservations
    ) -> AoaResult:
        """Least-squares intersection of per-anchor bearing lines."""
        best_angles: List[float] = []
        normal_matrix = np.zeros((2, 2))
        rhs = np.zeros(2)
        for i, anchor in enumerate(observations.anchors):
            angles, spectrum = self.anchor_spectrum(observations, i)
            theta = float(angles[int(np.argmax(spectrum))])
            best_angles.append(theta)
            bearing = anchor.boresight_rad + theta
            direction = np.array([np.cos(bearing), np.sin(bearing)])
            projector = np.eye(2) - np.outer(direction, direction)
            normal_matrix += projector
            rhs += projector @ np.array(tuple(anchor.position))
        try:
            solution = np.linalg.solve(normal_matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise LocalizationError(
                "bearing lines are (numerically) parallel"
            ) from exc
        x_min, x_max, y_min, y_max = self._clamp_bounds(observations)
        position = Point(
            float(np.clip(solution[0], x_min, x_max)),
            float(np.clip(solution[1], y_min, y_max)),
        )
        return AoaResult(
            position=position, per_anchor_angles_rad=best_angles
        )

    def locate(
        self, observations: ChannelObservations, keep_map: bool = True
    ) -> AoaResult:
        """Combine per-anchor angle estimates into a position.

        Raises:
            LocalizationError: when the combination is degenerate.
        """
        if self.mode == "triangulation":
            return self._triangulate(observations)
        grid = self._grid_for(observations)
        points = grid.points()
        combined = np.zeros(points.shape[0])
        best_angles: List[float] = []
        for i, anchor in enumerate(observations.anchors):
            angles, spectrum = self.anchor_spectrum(observations, i)
            best_angles.append(float(angles[int(np.argmax(spectrum))]))
            # Angle of every grid point as seen by this anchor.
            deltas = points - np.array(tuple(anchor.position))[None, :]
            bearings = np.arctan2(deltas[:, 1], deltas[:, 0])
            relative = np.angle(
                np.exp(1j * (bearings - anchor.boresight_rad))
            )
            in_front = np.abs(relative) <= np.pi / 2.0
            contribution = np.zeros(points.shape[0])
            contribution[in_front] = np.interp(
                relative[in_front], angles, spectrum
            )
            combined += contribution
        if combined.max() <= 0:
            raise LocalizationError("AoA combination produced a flat map")
        best = int(np.argmax(combined))
        row, col = divmod(best, grid.num_x)
        return AoaResult(
            position=grid.point_at(row, col),
            per_anchor_angles_rad=best_angles,
            likelihood=(
                normalize_peak(grid.reshape(combined)) if keep_map else None
            ),
        )
