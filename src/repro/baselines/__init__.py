"""Compared schemes: AoA-combining, naive shortest distance, RSSI.

Every baseline consumes the same observations as BLoc so comparisons use
"the same set of channel measurements" (paper Section 7).
"""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.baselines.aoa": ("AoaLocalizer", "AoaResult"),
        "repro.baselines.rssi": (
            "RssiResult",
            "RssiTrilateration",
            "observation_rssi_dbm",
        ),
        "repro.baselines.shortest": (
            "ShortestDistanceLocalizer",
            "shortest_distance_localizer",
        ),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
