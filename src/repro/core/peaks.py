"""Peak detection on 2-D likelihood maps.

The multipath-resolution stage (Section 5.4) reasons about *peaks* of the
combined likelihood: the direct path and each resolvable reflection appear
as local maxima.  This module finds them with a maximum filter, prunes
weak ones, and enforces a minimum separation so one physical peak is not
reported twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np
from scipy import ndimage

from repro.analysis.contracts import shaped
from repro.errors import ConfigurationError, LocalizationError
from repro.obs import COUNT_BUCKETS, get_observer
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D


@dataclass(frozen=True)
class Peak:
    """One local maximum of a likelihood map.

    Attributes:
        row, col: grid indices of the maximum.
        position: world coordinates of the maximum.
        value: likelihood at the maximum.
    """

    row: int
    col: int
    position: Point
    value: float


@dataclass(frozen=True)
class PeakConfig:
    """Peak-detection knobs.

    Attributes:
        neighborhood: size of the local-maximum filter window (odd).
        min_relative_value: discard peaks below this fraction of the
            global maximum.
        min_separation_m: suppress peaks closer than this to a stronger one.
        max_peaks: cap on the number of returned peaks.
    """

    neighborhood: int = 5
    min_relative_value: float = 0.35
    min_separation_m: float = 0.4
    max_peaks: int = 12

    def __post_init__(self):
        if self.neighborhood < 3 or self.neighborhood % 2 == 0:
            raise ConfigurationError("neighborhood must be odd and >= 3")
        if not 0.0 <= self.min_relative_value <= 1.0:
            raise ConfigurationError(
                "min_relative_value must be in [0, 1]"
            )
        if self.min_separation_m < 0:
            raise ConfigurationError("min_separation_m must be >= 0")
        if self.max_peaks < 1:
            raise ConfigurationError("max_peaks must be >= 1")


@shaped(values=("H", "W"), local_max=("H", "W"))
def select_peaks(
    values: np.ndarray,
    local_max: np.ndarray,
    grid: Grid2D,
    config: PeakConfig = PeakConfig(),
) -> List[Peak]:
    """Threshold, order and separate candidate maxima into peaks.

    The second half of :func:`find_peaks`, after the local-maximum
    filter.

    Raises:
        LocalizationError: when the map is degenerate (all equal/zero)
            or no candidate clears the threshold.
    """
    arr = np.asarray(values, dtype=float)
    global_max = float(arr.max())
    first = float(arr.flat[0])
    tolerance = 1e-8 + 1e-5 * abs(first)
    # np.allclose(arr, first), read off the extremes.
    if global_max <= 0 or (
        global_max - first <= tolerance
        and first - float(arr.min()) <= tolerance
    ):
        raise LocalizationError("likelihood map is flat; nothing to locate")
    threshold = config.min_relative_value * global_max
    flat = np.flatnonzero(local_max)
    heights = arr.ravel()[flat]
    above = heights >= threshold
    flat, heights = flat[above], heights[above]
    order = np.argsort(heights)[::-1]
    rows, cols = np.divmod(flat[order], arr.shape[1])
    xs = (grid.x_min + cols * grid.resolution).tolist()
    ys = (grid.y_min + rows * grid.resolution).tolist()
    rows, cols, heights = rows.tolist(), cols.tolist(), heights[order].tolist()
    # Greedy suppression over plain floats, strongest first: a candidate
    # is kept while it lies at least min_separation_m (Point.norm's
    # math.hypot) from every candidate kept before it.
    kept: List[int] = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        if all(
            math.hypot(x - xs[k], y - ys[k]) >= config.min_separation_m
            for k in kept
        ):
            kept.append(i)
            if len(kept) == config.max_peaks:
                break
    selected = [
        Peak(rows[k], cols[k], Point(xs[k], ys[k]), heights[k]) for k in kept
    ]
    observer = get_observer()
    if observer.enabled:
        observer.metrics.histogram(
            "peaks.raw_candidates", COUNT_BUCKETS
        ).observe(len(flat))
        observer.metrics.histogram(
            "peaks.candidates", COUNT_BUCKETS
        ).observe(len(selected))
    if not selected:
        raise LocalizationError("no peaks cleared the detection threshold")
    return selected


@shaped(values=("H", "W"))
def find_peaks(
    values: np.ndarray, grid: Grid2D, config: PeakConfig = PeakConfig()
) -> List[Peak]:
    """Local maxima of a map, strongest first.

    Raises:
        LocalizationError: when the map is degenerate (all equal/zero),
            which would make every localizer downstream meaningless.
    """
    arr = np.asarray(values, dtype=float)
    if arr.shape != grid.shape:
        raise ConfigurationError(
            f"map shape {arr.shape} does not match grid {grid.shape}"
        )
    local_max = (
        ndimage.maximum_filter(arr, size=config.neighborhood, mode="nearest")
        == arr
    )
    return select_peaks(arr, local_max, grid, config)


@shaped(values=("H", "W"))
def refine_peak_position(
    values: np.ndarray, grid: Grid2D, peak: Peak
) -> Point:
    """Sub-grid peak position via a quadratic fit on the 3x3 neighbourhood.

    Keeps the grid resolution from flooring the localization accuracy: a
    5 cm grid with refinement resolves to ~1 cm on smooth peaks.  Falls
    back to the grid node at map borders.
    """
    arr = np.asarray(values, dtype=float)
    row, col = peak.row, peak.col
    if not (1 <= row < grid.num_y - 1 and 1 <= col < grid.num_x - 1):
        return peak.position
    window = arr[row - 1:row + 2, col - 1:col + 2]
    offsets = []
    for axis_values in (window[1, :], window[:, 1]):
        denom = axis_values[0] - 2 * axis_values[1] + axis_values[2]
        if abs(denom) < 1e-12:
            offsets.append(0.0)
        else:
            delta = 0.5 * (axis_values[0] - axis_values[2]) / denom
            offsets.append(float(np.clip(delta, -0.5, 0.5)))
    return Point(
        peak.position.x + offsets[0] * grid.resolution,
        peak.position.y + offsets[1] * grid.resolution,
    )
