"""BLoc core: CSI extraction, offset correction, likelihood, multipath.

The paper's primary contribution, end to end: measure CSI from GFSK tone
runs (Section 4), cancel per-hop oscillator offsets collaboratively
(Section 5.2, Eq. 10), map corrected channels to spatial likelihoods
(Section 5.3, Eq. 15-17), and reject multipath ghost peaks with the
entropy/distance score (Section 5.4, Eq. 18).
"""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.core.correction": (
            "CorrectedChannels",
            "anchor_baselines",
            "correct_phase_offsets",
        ),
        "repro.core.csi": (
            "BandCsi",
            "combine_tone_channels",
            "extract_band_csi",
            "measure_segment_channel",
        ),
        "repro.core.engine": (
            "SteeringCache",
            "SteeringEntry",
            "build_steering_entry",
        ),
        "repro.core.entropy": (
            "negentropy",
            "neighborhood_negentropy",
            "shannon_entropy",
        ),
        "repro.core.likelihood": ("LikelihoodMap", "compute_likelihood_map"),
        "repro.core.localizer": (
            "BlocConfig",
            "BlocLocalizer",
            "LocalizationResult",
        ),
        "repro.core.observations": ("ChannelObservations",),
        "repro.core.peaks": (
            "Peak",
            "PeakConfig",
            "find_peaks",
            "refine_peak_position",
        ),
        "repro.core.scoring": (
            "ScoredPeak",
            "ScoringConfig",
            "score_peaks",
        ),
        "repro.core.steering": (
            "aliasing_distance_m",
            "range_resolution_m",
        ),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
