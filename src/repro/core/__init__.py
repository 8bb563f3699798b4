"""BLoc core: CSI extraction, offset correction, likelihood, multipath.

The paper's primary contribution, end to end: measure CSI from GFSK tone
runs (Section 4), cancel per-hop oscillator offsets collaboratively
(Section 5.2, Eq. 10), map corrected channels to spatial likelihoods
(Section 5.3, Eq. 15-17), and reject multipath ghost peaks with the
entropy/distance score (Section 5.4, Eq. 18).
"""

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
from repro.core.engine import (
    SteeringCache,
    SteeringEntry,
    build_steering_entry,
)
from repro.core.entropy import (
    negentropy,
    neighborhood_negentropy,
    shannon_entropy,
)
from repro.core.likelihood import LikelihoodMap, compute_likelihood_map
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
from repro.core.steering import (
    aliasing_distance_m,
    angle_spectrum,
    distance_spectrum,
    range_resolution_m,
)

__all__ = [
    "BandCsi",
    "BlocConfig",
    "BlocLocalizer",
    "ChannelObservations",
    "CorrectedChannels",
    "LikelihoodMap",
    "LocalizationResult",
    "Peak",
    "PeakConfig",
    "ScoredPeak",
    "SteeringCache",
    "SteeringEntry",
    "ScoringConfig",
    "aliasing_distance_m",
    "anchor_baselines",
    "angle_spectrum",
    "build_steering_entry",
    "combine_tone_channels",
    "compute_likelihood_map",
    "correct_phase_offsets",
    "distance_spectrum",
    "extract_band_csi",
    "find_peaks",
    "measure_segment_channel",
    "negentropy",
    "neighborhood_negentropy",
    "range_resolution_m",
    "refine_peak_position",
    "score_peaks",
    "select_direct_path",
    "shannon_entropy",
    "stack_band_csi",
]
