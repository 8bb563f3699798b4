"""Shared utilities: geometry, complex math, grids and RNG."""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.utils.complexutils": (
            "circular_mean",
            "normalize_peak",
            "wrap_phase",
        ),
        "repro.utils.geometry2d": (
            "Point",
            "Segment",
            "distance",
            "mirror_point",
            "segment_intersection",
        ),
        "repro.utils.gridmap": ("Grid2D",),
        "repro.utils.rng": ("derive_rng", "make_rng"),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
