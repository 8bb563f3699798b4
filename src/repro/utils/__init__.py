"""Shared utilities: geometry, complex math, grids, RNG and validation."""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.utils.complexutils": (
            "circular_mean",
            "db",
            "mag2db",
            "normalize_peak",
            "phase_deg",
            "unwrap_phase",
            "wrap_phase",
        ),
        "repro.utils.geometry2d": (
            "Point",
            "Segment",
            "distance",
            "distance_matrix",
            "mirror_point",
            "pairwise_distances",
            "reflect_across_segment",
            "segment_intersection",
        ),
        "repro.utils.gridmap": ("Grid2D",),
        "repro.utils.rng": ("derive_rng", "make_rng"),
        "repro.utils.validation": (
            "check_finite",
            "check_in_range",
            "check_positive",
            "check_shape",
        ),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
