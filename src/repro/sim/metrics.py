"""Localization-error metrics: percentiles and spatial error maps.

Section 8's median and 90th-percentile errors and the spatially binned
RMSE map of Fig. 13 are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.geometry2d import Point


@dataclass
class ErrorStats:
    """Summary statistics of a localization-error sample.

    Attributes:
        errors_m: the raw per-fix errors.
    """

    errors_m: np.ndarray

    def __post_init__(self):
        self.errors_m = np.sort(np.asarray(self.errors_m, dtype=float))
        if self.errors_m.size == 0:
            raise ConfigurationError("no errors to summarise")
        if np.any(self.errors_m < 0):
            raise ConfigurationError("errors must be non-negative")

    @property
    def count(self) -> int:
        """Number of fixes."""
        return int(self.errors_m.size)

    def median_m(self) -> float:
        """Median error [m]."""
        return float(np.median(self.errors_m))

    def percentile_m(self, q: float) -> float:
        """q-th percentile error [m] (q in [0, 100])."""
        return float(np.percentile(self.errors_m, q))

    def mean_m(self) -> float:
        """Mean error [m]."""
        return float(np.mean(self.errors_m))

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"n={self.count} median={self.median_m() * 100:.0f}cm "
            f"p90={self.percentile_m(90) * 100:.0f}cm "
            f"mean={self.mean_m() * 100:.0f}cm"
        )


def spatial_rmse_map(
    truths: Sequence[Point],
    errors_m: Sequence[float],
    bounds: Tuple[float, float, float, float],
    bin_size_m: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatially binned RMSE (Fig. 13).

    Args:
        truths: true tag positions.
        errors_m: matching localization errors.
        bounds: ``(x_min, x_max, y_min, y_max)`` of the map.
        bin_size_m: bin side.

    Returns:
        ``(x_edges, y_edges, rmse)`` where rmse has shape
        ``(len(y_edges) - 1, len(x_edges) - 1)`` and NaN in empty bins.
    """
    if len(truths) != len(errors_m):
        raise ConfigurationError("truth/error counts differ")
    if bin_size_m <= 0:
        raise ConfigurationError("bin size must be > 0")
    x_min, x_max, y_min, y_max = bounds
    x_edges = np.arange(x_min, x_max + bin_size_m, bin_size_m)
    y_edges = np.arange(y_min, y_max + bin_size_m, bin_size_m)
    sums = np.zeros((y_edges.size - 1, x_edges.size - 1))
    counts = np.zeros_like(sums)
    for point, error in zip(truths, errors_m):
        col = int(np.clip((point.x - x_min) // bin_size_m, 0, sums.shape[1] - 1))
        row = int(np.clip((point.y - y_min) // bin_size_m, 0, sums.shape[0] - 1))
        sums[row, col] += float(error) ** 2
        counts[row, col] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        rmse = np.sqrt(sums / counts)
    rmse[counts == 0] = np.nan
    return x_edges, y_edges, rmse
