"""The end-to-end BLoc localizer.

Wire-up of the whole Section 5 pipeline:

    observations -> phase-offset correction (Eq. 10)
                 -> per-anchor likelihood maps over space (Eq. 17)
                 -> combined map -> peaks -> Eq. 18 scoring -> position

Alternative peak-selection strategies are built in because the paper's
Section 8.7 ablates them: ``"score"`` is full BLoc, ``"shortest"`` is the
naive shortest-distance baseline, ``"max_likelihood"`` just takes the
global maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.correction import CorrectedChannels, correct_phase_offsets
from repro.core.engine import SteeringCache
from repro.core.likelihood import LikelihoodMap, compute_likelihood_map
from repro.core.observations import ChannelObservations
from repro.core.peaks import PeakConfig, find_peaks, refine_peak_position
from repro.core.scoring import ScoredPeak, ScoringConfig, score_peaks
from repro.errors import ConfigurationError, LocalizationError
from repro.obs import get_observer
from repro.obs.diag import FixDiagnostics, FixDiagnosticsBuilder
from repro.utils.gridmap import Grid2D
from repro.utils.geometry2d import Point

#: Valid peak-selection strategies.
SELECTION_STRATEGIES = ("score", "shortest", "max_likelihood")


@dataclass(frozen=True)
class BlocConfig:
    """Configuration of the BLoc pipeline.

    Attributes:
        grid_resolution_m: spacing of the candidate-position grid.
        grid_margin_m: how far the grid extends beyond the anchor hull.
        peak: peak-detection parameters.
        scoring: Eq. 18 parameters.
        selection: peak-selection strategy (see module docstring).
        refine_peaks: sub-grid quadratic refinement of the winner.
    """

    grid_resolution_m: float = 0.05
    grid_margin_m: float = 0.25
    peak: PeakConfig = field(default_factory=PeakConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    selection: str = "score"
    refine_peaks: bool = True

    def __post_init__(self):
        if self.grid_resolution_m <= 0:
            raise ConfigurationError("grid resolution must be > 0")
        if self.grid_margin_m < 0:
            raise ConfigurationError("grid margin must be >= 0")
        if self.selection not in SELECTION_STRATEGIES:
            raise ConfigurationError(
                f"selection must be one of {SELECTION_STRATEGIES}, "
                f"got {self.selection!r}"
            )


@dataclass
class LocalizationResult:
    """Everything the pipeline produced for one fix.

    Attributes:
        position: the estimated tag position.
        scored_peaks: all candidate peaks with their scores (best first by
            the *active* strategy).
        likelihood: the full likelihood map (kept for analysis; drop it
            for bulk runs with ``keep_map=False``).
        diagnostics: per-stage signal-chain diagnostics, captured only
            when ``locate(..., diagnostics=True)``.
    """

    position: Point
    scored_peaks: List[ScoredPeak]
    likelihood: Optional[LikelihoodMap] = None
    diagnostics: Optional[FixDiagnostics] = None

    def error_m(self, ground_truth: Point) -> float:
        """Euclidean distance to a ground-truth position."""
        return (self.position - ground_truth).norm()


@dataclass
class BlocLocalizer:
    """CSI-based BLE localizer (the paper's system).

    Attributes:
        config: pipeline configuration.
        bounds: optional fixed grid bounds ``(x_min, x_max, y_min, y_max)``;
            by default the grid covers the anchors' bounding box plus the
            configured margin.
        engine: steering cache shared across ``locate()`` calls; the
            grid, anchor geometry and band plan are invariant over a
            sweep, so every fix after the first runs on the cached
            range-profile samples and gather.
    """

    config: BlocConfig = field(default_factory=BlocConfig)
    bounds: Optional[Tuple[float, float, float, float]] = None
    engine: SteeringCache = field(default_factory=SteeringCache)

    def grid_for(self, observations: ChannelObservations) -> Grid2D:
        """The evaluation grid for a set of observations."""
        if self.bounds is not None:
            return Grid2D.from_bounds(self.bounds, self.config.grid_resolution_m)
        xs = [a.position.x for a in observations.anchors]
        ys = [a.position.y for a in observations.anchors]
        margin = self.config.grid_margin_m
        return Grid2D(
            min(xs) - margin,
            max(xs) + margin,
            min(ys) - margin,
            max(ys) + margin,
            self.config.grid_resolution_m,
        )

    def correct(self, observations: ChannelObservations) -> CorrectedChannels:
        """Stage 1: remove per-hop oscillator phase offsets (Eq. 10)."""
        return correct_phase_offsets(observations)

    def map_likelihood(
        self, corrected: CorrectedChannels, grid: Grid2D
    ) -> LikelihoodMap:
        """Stage 2: per-anchor Eq. 17 maps, combined over anchors."""
        return compute_likelihood_map(corrected, grid, self.engine)

    def pick_peak(
        self,
        likelihood: LikelihoodMap,
        corrected: CorrectedChannels,
    ) -> List[ScoredPeak]:
        """Stage 3: find and rank candidate peaks by the active strategy."""
        observer = get_observer()
        with observer.span("find_peaks"):
            peaks = find_peaks(
                likelihood.combined, likelihood.grid, self.config.peak
            )
        with observer.span("score_peaks"):
            scored = score_peaks(
                peaks,
                likelihood.combined,
                likelihood.grid,
                corrected.anchors,
                self.config.scoring,
            )
        if self.config.selection == "shortest":
            return sorted(scored, key=lambda s: s.distance_sum_m)
        if self.config.selection == "max_likelihood":
            return sorted(scored, key=lambda s: s.peak.value, reverse=True)
        return scored

    def locate(
        self,
        observations: ChannelObservations,
        keep_map: bool = True,
        diagnostics: bool = False,
    ) -> LocalizationResult:
        """Run the full pipeline on one observation set.

        Args:
            observations: the measured channels of one fix.
            keep_map: retain the full likelihood map on the result.
            diagnostics: capture per-stage
                :class:`~repro.obs.diag.FixDiagnostics` on the result;
                when the pipeline raises, the partial diagnostics (up to
                the failing stage) are attached to the exception as
                ``exc.diagnostics``.

        Thread-safety: safe to call concurrently from the service's
        request threads; all per-fix state is local and the shared
        steering cache guards its own entries.

        Raises:
            LocalizationError: when fewer than two anchors were heard
                (one array's Eq. 17 map has no cross-anchor geometry to
                fix a position: the master alone answers next to
                itself), or when the likelihood map is degenerate.
        """
        observer = get_observer()
        builder = FixDiagnosticsBuilder(observations) if diagnostics else None
        try:
            if observations.num_anchors < 2:
                raise LocalizationError(
                    f"BLoc needs >= 2 anchors, got "
                    f"{observations.num_anchors}"
                )
            with observer.span("correct"):
                corrected = self.correct(observations)
            if builder is not None:
                builder.on_corrected(observations, corrected)
            grid = self.grid_for(observations)
            with observer.span("map_likelihood"):
                likelihood = self.map_likelihood(corrected, grid)
            if builder is not None:
                builder.on_likelihood(likelihood)
            with observer.span("pick_peak"):
                scored = self.pick_peak(likelihood, corrected)
            if builder is not None:
                builder.on_scored(scored, self.config.scoring)
            winner = scored[0]
            position = winner.peak.position
            if self.config.refine_peaks:
                with observer.span("refine"):
                    position = refine_peak_position(
                        likelihood.combined, grid, winner.peak
                    )
        except LocalizationError as exc:
            if builder is not None:
                exc.diagnostics = builder.build()
            raise
        if builder is not None:
            builder.on_position(position)
        return LocalizationResult(
            position=position,
            scored_peaks=scored,
            likelihood=likelihood if keep_map else None,
            diagnostics=builder.build() if builder is not None else None,
        )
