"""Scenario sampling: where the tag goes during an evaluation.

The paper measures 1700 pseudo-random tag placements covering the whole
room with ~10 cm nearest-neighbour spacing (Section 7).  We reproduce the
coverage with seeded uniform sampling plus an optional minimum-separation
constraint, and also provide grid sweeps for the spatial-error map
(Fig. 13).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.testbed import Testbed
from repro.utils.geometry2d import Point
from repro.utils.rng import RngLike, make_rng


def sample_tag_positions(
    testbed: Testbed,
    count: int,
    seed: RngLike = 0,
    min_separation_m: float = 0.0,
    margin_m: float = 0.35,
) -> List[Point]:
    """Sample tag positions uniformly over the testbed's tag area.

    Args:
        testbed: defines the room and the wall margin.
        count: number of positions.
        seed: RNG seed for reproducibility.
        min_separation_m: optional hard minimum pairwise distance; uses
            rejection sampling with a generous retry budget.
        margin_m: distance kept from the walls.

    Raises:
        ConfigurationError: if the separation constraint cannot be met.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    rng = make_rng(seed)
    x_min, x_max, y_min, y_max = testbed.tag_area_bounds(margin_m)
    positions: List[Point] = []
    attempts = 0
    max_attempts = max(10_000, count * 200)
    while len(positions) < count:
        attempts += 1
        if attempts > max_attempts:
            raise ConfigurationError(
                f"could not place {count} positions with separation "
                f"{min_separation_m} m (placed {len(positions)})"
            )
        candidate = Point(
            float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max))
        )
        if min_separation_m > 0 and any(
            (candidate - p).norm() < min_separation_m for p in positions
        ):
            continue
        positions.append(candidate)
    return positions


def grid_tag_positions(
    testbed: Testbed,
    spacing_m: float = 0.5,
    margin_m: float = 0.35,
) -> List[Point]:
    """Regular grid of tag positions (for spatial-error maps, Fig. 13)."""
    if spacing_m <= 0:
        raise ConfigurationError("spacing must be > 0")
    x_min, x_max, y_min, y_max = testbed.tag_area_bounds(margin_m)
    xs = np.arange(x_min, x_max + 1e-9, spacing_m)
    ys = np.arange(y_min, y_max + 1e-9, spacing_m)
    return [Point(float(x), float(y)) for y in ys for x in xs]

