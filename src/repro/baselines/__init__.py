"""Compared schemes: AoA-combining, naive shortest distance, RSSI.

Every baseline consumes the same observations as BLoc so comparisons use
"the same set of channel measurements" (paper Section 7).
"""

from repro.baselines.aoa import AoaLocalizer, AoaResult
from repro.baselines.rssi import (
    RssiResult,
    RssiTrilateration,
    observation_rssi_dbm,
)
from repro.baselines.shortest import (
    ShortestDistanceLocalizer,
    shortest_distance_localizer,
)

__all__ = [
    "AoaLocalizer",
    "AoaResult",
    "RssiResult",
    "RssiTrilateration",
    "ShortestDistanceLocalizer",
    "observation_rssi_dbm",
    "shortest_distance_localizer",
]
