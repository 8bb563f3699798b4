"""Compared schemes: AoA-combining and RSSI.

Every baseline consumes the same observations as BLoc so comparisons use
"the same set of channel measurements" (paper Section 7).  The naive
shortest-distance scheme of Section 8.7 is BLoc itself with
``BlocConfig(selection="shortest")``.
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
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
