"""BLoc core: CSI extraction, offset correction, likelihood, multipath.

The paper's primary contribution, end to end: measure CSI from GFSK tone
runs (Section 4), cancel per-hop oscillator offsets collaboratively
(Section 5.2, Eq. 10), map corrected channels to spatial likelihoods
(Section 5.3, Eq. 15-17), and reject multipath ghost peaks with the
entropy/distance score (Section 5.4, Eq. 18).
"""

from repro.core.array_calibration import (
    ArrayCalibration,
    estimate_calibration,
)
from repro.core.correction import (
    CorrectedChannels,
    anchor_baselines,
    correct_phase_offsets,
)
from repro.core.csi import (
    BandCsi,
    combine_tone_channels,
    extract_band_csi,
    measure_segment_channel,
    stack_band_csi,
)
from repro.core.fusion import coherence_gain, fuse_rounds, locate_fused
from repro.core.music import (
    array_covariance,
    estimate_num_sources,
    music_angles,
    music_spectrum,
)
from repro.core.engine import (
    EngineConfig,
    SteeringCache,
    SteeringEntry,
    build_steering_entry,
)
from repro.core.entropy import (
    negentropy,
    neighborhood_negentropy,
    shannon_entropy,
)
from repro.core.likelihood import (
    LikelihoodMap,
    anchor_likelihood_flat,
    compute_likelihood_map,
)
from repro.core.localizer import (
    BlocConfig,
    BlocLocalizer,
    LocalizationResult,
)
from repro.core.observations import ChannelObservations
from repro.core.peaks import Peak, PeakConfig, find_peaks, refine_peak_position
from repro.core.scoring import (
    ScoredPeak,
    ScoringConfig,
    score_peaks,
    select_direct_path,
)
from repro.core.tracking import TagTracker, TrackState, track_errors_m
from repro.core.steering import (
    aliasing_distance_m,
    angle_spectrum,
    distance_spectrum,
    range_resolution_m,
)

__all__ = [
    "ArrayCalibration",
    "BandCsi",
    "BlocConfig",
    "BlocLocalizer",
    "ChannelObservations",
    "CorrectedChannels",
    "EngineConfig",
    "LikelihoodMap",
    "LocalizationResult",
    "Peak",
    "PeakConfig",
    "ScoredPeak",
    "SteeringCache",
    "SteeringEntry",
    "TagTracker",
    "TrackState",
    "ScoringConfig",
    "aliasing_distance_m",
    "anchor_baselines",
    "anchor_likelihood_flat",
    "angle_spectrum",
    "array_covariance",
    "build_steering_entry",
    "coherence_gain",
    "combine_tone_channels",
    "compute_likelihood_map",
    "correct_phase_offsets",
    "distance_spectrum",
    "estimate_calibration",
    "estimate_num_sources",
    "fuse_rounds",
    "extract_band_csi",
    "find_peaks",
    "locate_fused",
    "measure_segment_channel",
    "music_angles",
    "music_spectrum",
    "negentropy",
    "neighborhood_negentropy",
    "range_resolution_m",
    "refine_peak_position",
    "score_peaks",
    "select_direct_path",
    "shannon_entropy",
    "stack_band_csi",
    "track_errors_m",
]
