"""RSSI baseline: what BLE localization looked like before BLoc.

Section 2.2 and Section 9.2 describe the pre-BLoc state of the art: use
``|h|`` as a proxy for distance.  :class:`RssiTrilateration` fits a
log-distance path-loss model and trilaterates: no training, but multipath
fading corrupts the distances.  It is the service's last-resort provider.

It reads only the channel magnitudes of the observations -- phase, the
thing BLoc adds, is deliberately ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.observations import ChannelObservations
from repro.errors import ConfigurationError, LocalizationError
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D


def observation_rssi_dbm(
    observations: ChannelObservations, tx_power_dbm: float = 0.0
) -> np.ndarray:
    """Per-anchor received power [dBm]: mean over antennas and bands."""
    power = np.mean(
        np.abs(observations.tag_to_anchor) ** 2, axis=(1, 2)
    )  # (I,)
    with np.errstate(divide="ignore"):
        return tx_power_dbm + 10.0 * np.log10(power)


@dataclass
class RssiResult:
    """Result of an RSSI fix.

    Attributes:
        position: the estimate.
        distances_m: per-anchor distance estimates (trilateration only).
    """

    position: Point
    distances_m: Optional[np.ndarray] = None


@dataclass
class RssiTrilateration:
    """Log-distance path-loss trilateration.

    ``RSSI(d) = rssi_at_1m - 10 * n * log10(d)`` with path-loss exponent
    ``n``; the estimated distances are combined by a grid search over the
    squared range residuals.

    Attributes:
        rssi_at_1m_dbm: calibration intercept.
        path_loss_exponent: the model's ``n`` (2 = free space; indoor
            fitted values run 1.6..3.5).
        grid_resolution_m: search grid spacing.
        bounds: optional fixed search bounds.
    """

    rssi_at_1m_dbm: float = 0.0
    path_loss_exponent: float = 2.0
    grid_resolution_m: float = 0.1
    grid_margin_m: float = 0.25
    bounds: Optional[Tuple[float, float, float, float]] = None

    def __post_init__(self):
        if self.path_loss_exponent <= 0:
            raise ConfigurationError("path-loss exponent must be > 0")

    def distances_from_rssi(self, rssi_dbm: np.ndarray) -> np.ndarray:
        """Invert the path-loss model into distances [m]."""
        exponent = (self.rssi_at_1m_dbm - np.asarray(rssi_dbm)) / (
            10.0 * self.path_loss_exponent
        )
        return np.power(10.0, exponent)

    def calibrate(
        self, observations_list: Sequence[ChannelObservations]
    ) -> None:
        """Least-squares fit of intercept and exponent from ground-truth
        tagged observations (a one-time deployment calibration)."""
        rows = []
        targets = []
        for obs in observations_list:
            if obs.ground_truth is None:
                raise ConfigurationError("calibration needs ground truth")
            rssi = observation_rssi_dbm(obs)
            for i, anchor in enumerate(obs.anchors):
                d = (obs.ground_truth - anchor.position).norm()
                if d <= 0:
                    continue
                rows.append([1.0, -10.0 * np.log10(d)])
                targets.append(rssi[i])
        if len(rows) < 2:
            raise ConfigurationError("not enough calibration samples")
        solution, *_ = np.linalg.lstsq(
            np.asarray(rows), np.asarray(targets), rcond=None
        )
        self.rssi_at_1m_dbm = float(solution[0])
        self.path_loss_exponent = float(max(solution[1], 0.1))

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

    def locate(
        self, observations: ChannelObservations, keep_map: bool = True
    ) -> RssiResult:
        """Trilaterate from per-anchor RSSI."""
        rssi = observation_rssi_dbm(observations)
        if not np.all(np.isfinite(rssi)):
            raise LocalizationError("RSSI unavailable at some anchor")
        distances = self.distances_from_rssi(rssi)
        grid = self._grid_for(observations)
        points = grid.points()
        residual = np.zeros(points.shape[0])
        for i, anchor in enumerate(observations.anchors):
            deltas = points - np.array(tuple(anchor.position))[None, :]
            ranges = np.linalg.norm(deltas, axis=1)
            residual += (ranges - distances[i]) ** 2
        best = int(np.argmin(residual))
        row, col = divmod(best, grid.num_x)
        return RssiResult(
            position=grid.point_at(row, col), distances_m=distances
        )
