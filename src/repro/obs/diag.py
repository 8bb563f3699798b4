"""Per-fix signal-chain diagnostics: FixDiagnostics and fix bundles.

A localization fix that lands two metres off is useless to debug from
its error number alone: the damage could have happened at demodulation
(one anchor's SNR collapsed), at the Eq. 10 correction (oscillator drift
left a non-linear cross-band phase), at the likelihood map (a ghost peak
dominated), or at the Eq. 18 score (the direct-path cue picked the wrong
peak).  :class:`FixDiagnostics` captures one compact measurement per
stage so the failing stage is attributable after the fact:

* per-(anchor, band) CSI quality -- demod SNR (measured or estimated),
  amplitude, flatness, missing-band mask (:class:`BandQuality`);
* Eq. 10 residual phase after collaborative cancellation plus
  stitch-continuity at the band seams (:class:`CorrectionDiagnostics`);
* likelihood-map statistics -- entropy, peak-to-mean, top-k peaks
  (:class:`MapDiagnostics`);
* the full Eq. 18 score decomposition per candidate peak
  (:class:`ScoreBreakdown`).

A **fix bundle** serializes the diagnostics *and everything needed to
replay the fix offline* -- raw observations, anchor geometry, the full
pipeline configuration -- into one deterministic ``.npz`` (fixed zip
timestamps, sorted members, a ``meta.json`` member with sorted keys), so
re-saving a loaded bundle is byte-identical and a bundle attached to a
bug report reproduces the original winning peak bit-exactly via
``repro diag <bundle> --explain``.

Import-order note: :mod:`repro.core.localizer` imports this module, and
``repro.core.__init__`` imports the localizer -- so nothing here may
import ``repro.core`` at module level.  The few core helpers used
(``usable_band_mask``, ``linear_phase_residual``, ``shannon_entropy``,
the replay constructors) are imported lazily inside functions, and the
stage hooks are duck-typed against the pipeline objects.
"""

from __future__ import annotations

import io
import json
import re
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.export import _json_safe, format_table

#: Format tag + schema version of the fix-bundle ``meta.json``.
FIX_BUNDLE_FORMAT = "repro-fix-bundle"
FIX_BUNDLE_SCHEMA = 1

#: Fixed zip member timestamp: the earliest the format allows, so bundle
#: bytes depend only on content, never on the wall clock.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


# ---------------------------------------------------------------------------
# Per-stage diagnostics
# ---------------------------------------------------------------------------


@dataclass
class BandQuality:
    """Per-(anchor, band) CSI quality of one fix.

    Attributes:
        source: ``"demod"`` when the SNR came from the demodulator's
            decision statistic (IQ-fidelity measurements), ``"estimate"``
            when it was inferred from the channel amplitudes themselves.
        snr_db: SNR per (anchor, band), shape ``(I, K)``; NaN where the
            band is missing.
        amplitude_db: mean per-band power [dB] over antennas, ``(I, K)``.
        flatness_db: std of ``amplitude_db`` across usable bands per
            anchor, shape ``(I,)`` -- large values flag frequency-
            selective fading or a broken receive chain.
        missing: bool mask of unusable (anchor, band) cells, ``(I, K)``.
    """

    source: str
    snr_db: np.ndarray
    amplitude_db: np.ndarray
    flatness_db: np.ndarray
    missing: np.ndarray
    _anchor_snr_db: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def coverage(self) -> np.ndarray:
        """Fraction of usable bands per anchor, shape ``(I,)``."""
        return 1.0 - self.missing.mean(axis=1)

    def anchor_snr_db(self) -> np.ndarray:
        """Median SNR over usable bands per anchor (NaN if none usable).

        Computed on first use and kept: the service's telemetry and the
        health monitor both read it for every fix, so the array is
        read-only: a write raises instead of corrupting the other reader.
        """
        if self._anchor_snr_db is None:
            out = np.full(self.snr_db.shape[0], np.nan)
            for i in range(self.snr_db.shape[0]):
                usable = self.snr_db[i][np.isfinite(self.snr_db[i])]
                if usable.size:
                    out[i] = float(np.median(usable))
            out.flags.writeable = False
            self._anchor_snr_db = out
        return self._anchor_snr_db


@dataclass
class CorrectionDiagnostics:
    """How well Eq. 10's collaborative cancellation worked for one fix.

    Attributes:
        residual_rms_rad: RMS deviation of the corrected cross-band
            phase from its linear trend, per anchor, shape ``(I,)``.
        residual_per_band_rad: the same residual RMS'd over antennas
            only, shape ``(I, K)`` -- pinpoints *which* hop drifted.
        seam_jump_rad: stitch-continuity at band seams: deviation of
            each consecutive-band phase step from the anchor's median
            step, RMS over antennas, shape ``(I, K-1)``.
        worst_seam_rad: the largest seam jump anywhere.
        hop_coverage: fraction of (anchor, band) cells with a usable
            tag measurement.
    """

    residual_rms_rad: np.ndarray
    residual_per_band_rad: np.ndarray
    seam_jump_rad: np.ndarray
    worst_seam_rad: float
    hop_coverage: float


@dataclass
class MapDiagnostics:
    """Shape statistics of the combined likelihood map.

    Attributes:
        entropy_nats: Shannon entropy of the normalised map -- low means
            concentrated (confident), high means smeared.
        peak_to_mean: global maximum over map mean; a direct measure of
            how much the winner stood out.
        top_peaks_xy: world coordinates of the strongest candidate
            peaks, shape ``(P, 2)`` (filled once peaks are found).
        top_peak_values: their likelihood values, shape ``(P,)``.
    """

    entropy_nats: float
    peak_to_mean: float
    top_peaks_xy: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2))
    )
    top_peak_values: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class ScoreBreakdown:
    """Eq. 18 decomposition for every candidate peak of one fix.

    Arrays share the candidate order the localizer ranked them in (best
    first by the *active* selection strategy), so index 0 is the chosen
    peak.

    Attributes:
        positions_xy: candidate positions, shape ``(P, 2)``.
        likelihood: the peak likelihood ``p_x`` per candidate.
        entropy_nats: neighbourhood negentropy ``H`` per candidate.
        distance_sum_m: ``sum_i d_i`` per candidate.
        entropy_term: ``exp(b * H)`` per candidate.
        path_term: ``exp(-a * sum_i d_i)`` per candidate.
        score: the combined Eq. 18 score ``s_x`` per candidate.
        margin: relative score margin between the chosen peak and the
            runner-up (1.0 with a single candidate, NaN when the chosen
            score is not positive).
    """

    positions_xy: np.ndarray
    likelihood: np.ndarray
    entropy_nats: np.ndarray
    distance_sum_m: np.ndarray
    entropy_term: np.ndarray
    path_term: np.ndarray
    score: np.ndarray
    margin: float

    @property
    def num_candidates(self) -> int:
        """Number of scored candidate peaks."""
        return int(self.score.size)


#: Pipeline stages a fix can reach, in order; ``stage_reached`` is the
#: last one that completed before the fix finished or failed.
FIX_STAGES = ("observations", "corrected", "likelihood", "scored", "located")


@dataclass
class FixDiagnostics:
    """Everything captured about one fix's signal chain.

    Stage fields fill in as the pipeline progresses; a fix that failed
    mid-way carries the stages it completed plus ``stage_reached``
    naming the last one, so a failure bundle still shows *where* the
    chain broke.
    """

    anchor_names: List[str]
    frequencies_hz: np.ndarray
    stage_reached: str = "observations"
    band_quality: Optional[BandQuality] = None
    correction: Optional[CorrectionDiagnostics] = None
    likelihood_map: Optional[MapDiagnostics] = None
    scores: Optional[ScoreBreakdown] = None
    estimate_xy: Optional[Tuple[float, float]] = None

    @property
    def num_anchors(self) -> int:
        """Number of anchors the fix was measured with."""
        return len(self.anchor_names)

    @property
    def num_bands(self) -> int:
        """Number of frequency bands in the sweep."""
        return int(self.frequencies_hz.size)


# ---------------------------------------------------------------------------
# Stage computations (duck-typed against the pipeline objects)
# ---------------------------------------------------------------------------


def _estimate_band_snr_db(
    tag: np.ndarray, usable: np.ndarray
) -> np.ndarray:
    """Amplitude-roughness SNR proxy when no demod SNR was measured.

    The channel amplitude varies smoothly across the 2 MHz band lattice
    (multipath fading has >> 2 MHz coherence at indoor delay spreads)
    while estimation noise is white, so the second difference of the
    per-band amplitude isolates the noise: ``var(d2) = 6 sigma^2`` for
    iid noise.  Crude, but it ranks anchors by quality the same way the
    real demod statistic does.
    """
    num_anchors, _, num_bands = tag.shape
    snr = np.full((num_anchors, num_bands), np.nan)
    if num_bands < 3:
        return snr
    amplitude = np.abs(tag)  # (I, J, K)
    d2 = amplitude[:, :, :-2] - 2 * amplitude[:, :, 1:-1] + amplitude[:, :, 2:]
    noise_power = np.mean(d2**2, axis=(1, 2)) / 6.0  # (I,)
    signal_power = np.mean(amplitude**2, axis=1)  # (I, K)
    for i in range(num_anchors):
        floor = max(noise_power[i], 1e-15 * max(signal_power[i].max(), 1e-300))
        with np.errstate(divide="ignore"):
            snr[i] = 10.0 * np.log10(signal_power[i] / floor)
    snr[~usable] = np.nan
    return snr


def band_quality(observations) -> BandQuality:
    """Per-(anchor, band) quality of a :class:`ChannelObservations`."""
    from repro.core.correction import usable_band_mask

    tag = observations.tag_to_anchor
    usable = usable_band_mask(tag)
    power = np.mean(np.abs(tag) ** 2, axis=1)  # (I, K)
    amplitude_db = np.full(power.shape, -np.inf)
    np.log10(power, out=amplitude_db, where=power > 0)
    amplitude_db *= 10.0
    flatness = np.full(power.shape[0], np.nan)
    for i in range(power.shape[0]):
        cells = amplitude_db[i][usable[i]]
        if cells.size >= 2:
            flatness[i] = float(np.std(cells))
    measured = getattr(observations, "band_snr_db", None)
    if measured is not None:
        snr = np.array(measured, dtype=float)
        snr[~usable] = np.nan
        source = "demod"
    else:
        snr = _estimate_band_snr_db(tag, usable)
        source = "estimate"
    return BandQuality(
        source=source,
        snr_db=snr,
        amplitude_db=amplitude_db,
        flatness_db=flatness,
        missing=~usable,
    )


def correction_diagnostics(
    tag: np.ndarray, alpha: np.ndarray
) -> CorrectionDiagnostics:
    """Residual phase + seam continuity of the corrected channels."""
    from repro.core.correction import linear_phase_residual, usable_band_mask

    residual = linear_phase_residual(alpha)  # (I, J, K)
    residual_per_band = np.sqrt(np.mean(residual**2, axis=1))  # (I, K)
    residual_rms = np.sqrt(np.mean(residual**2, axis=(1, 2)))  # (I,)
    phase = np.unwrap(np.angle(alpha), axis=2)
    if phase.shape[2] >= 2:
        steps = np.diff(phase, axis=2)  # (I, J, K-1)
        median_step = np.median(steps, axis=2, keepdims=True)
        seam = np.sqrt(np.mean((steps - median_step) ** 2, axis=1))
    else:
        seam = np.zeros((phase.shape[0], 0))
    return CorrectionDiagnostics(
        residual_rms_rad=residual_rms,
        residual_per_band_rad=residual_per_band,
        seam_jump_rad=seam,
        worst_seam_rad=float(seam.max()) if seam.size else 0.0,
        hop_coverage=float(np.mean(usable_band_mask(tag))),
    )


def map_diagnostics(combined: np.ndarray) -> MapDiagnostics:
    """Entropy + peak-to-mean of a combined likelihood map."""
    from repro.core.entropy import shannon_entropy

    arr = np.asarray(combined, dtype=float)
    mean = float(arr.mean())
    peak_to_mean = float(arr.max() / mean) if mean > 0 else float("nan")
    return MapDiagnostics(
        entropy_nats=float(shannon_entropy(arr)),
        peak_to_mean=peak_to_mean,
    )


def score_breakdown(scored: Sequence, scoring_config) -> ScoreBreakdown:
    """Eq. 18 decomposition from the localizer's ranked scored peaks.

    ``scored`` is the (strategy-sorted) ``ScoredPeak`` list;
    ``scoring_config`` supplies the ``a``/``b`` weights so the
    likelihood x path-length x negentropy factors can be re-derived
    exactly as the score multiplied them.
    """
    positions = np.array(
        [[s.peak.position.x, s.peak.position.y] for s in scored]
    )
    likelihood = np.array([s.peak.value for s in scored])
    entropy = np.array([s.entropy for s in scored])
    distance = np.array([s.distance_sum_m for s in scored])
    score = np.array([s.score for s in scored])
    if score.size > 1 and score[0] > 0:
        margin = float((score[0] - score[1]) / score[0])
    elif score.size == 1 and score[0] > 0:
        margin = 1.0
    else:
        margin = float("nan")
    return ScoreBreakdown(
        positions_xy=positions,
        likelihood=likelihood,
        entropy_nats=entropy,
        distance_sum_m=distance,
        entropy_term=np.exp(scoring_config.entropy_weight * entropy),
        path_term=np.exp(-scoring_config.distance_weight * distance),
        score=score,
        margin=margin,
    )


#: How many top peaks the map diagnostics keep coordinates for.
TOP_PEAKS = 5


class FixDiagnosticsBuilder:
    """Accumulates :class:`FixDiagnostics` as ``locate()`` progresses.

    The localizer feeds each stage's products through the ``on_*`` hooks
    in pipeline order; :meth:`build` returns whatever was captured, so a
    fix that raised mid-pipeline still yields the completed stages.
    """

    __slots__ = ("_diag",)

    def __init__(self, observations):
        self._diag = FixDiagnostics(
            anchor_names=[
                a.name or f"anchor{i}"
                for i, a in enumerate(observations.anchors)
            ],
            frequencies_hz=np.asarray(
                observations.frequencies_hz, dtype=float
            ).copy(),
            band_quality=band_quality(observations),
        )

    def on_corrected(self, observations, corrected) -> None:
        """Record Eq. 10 residuals from the corrected channels."""
        self._diag.correction = correction_diagnostics(
            observations.tag_to_anchor, corrected.alpha
        )
        self._diag.stage_reached = "corrected"

    def on_likelihood(self, likelihood) -> None:
        """Record combined-map statistics."""
        self._diag.likelihood_map = map_diagnostics(likelihood.combined)
        self._diag.stage_reached = "likelihood"

    def on_scored(self, scored, scoring_config) -> None:
        """Record the Eq. 18 decomposition + top peak locations."""
        self._diag.scores = score_breakdown(scored, scoring_config)
        if self._diag.likelihood_map is not None:
            top = scored[:TOP_PEAKS]
            self._diag.likelihood_map.top_peaks_xy = np.array(
                [[s.peak.position.x, s.peak.position.y] for s in top]
            )
            self._diag.likelihood_map.top_peak_values = np.array(
                [s.peak.value for s in top]
            )
        self._diag.stage_reached = "scored"

    def on_position(self, position) -> None:
        """Record the final (possibly refined) estimate."""
        self._diag.estimate_xy = (float(position.x), float(position.y))
        self._diag.stage_reached = "located"

    def build(self) -> FixDiagnostics:
        """The diagnostics captured so far."""
        return self._diag


# ---------------------------------------------------------------------------
# Fix bundles: deterministic NPZ + JSON serialization
# ---------------------------------------------------------------------------


@dataclass
class FixBundle:
    """One fix, frozen for offline replay.

    Carries the raw observations, the anchor geometry, the complete
    pipeline configuration and the recorded outcome, plus the captured
    :class:`FixDiagnostics`.  ``replay()`` reconstructs the localizer
    and re-runs the fix; with an unchanged pipeline the replayed winning
    peak is bit-identical to the recorded one (the bundle stores every
    float at full precision).
    """

    label: str
    fix_index: int
    anchors: List[Dict[str, Any]]
    master_index: int
    frequencies_hz: np.ndarray
    tag_to_anchor: np.ndarray
    master_to_anchor: np.ndarray
    band_snr_db: Optional[np.ndarray]
    ground_truth_xy: Optional[Tuple[float, float]]
    config: Dict[str, Any]
    bounds: Optional[Tuple[float, float, float, float]]
    estimate_xy: Optional[Tuple[float, float]]
    error_m: Optional[float]
    failure_reason: Optional[str]
    diagnostics: Optional[FixDiagnostics] = None

    # -- reconstruction ---------------------------------------------------

    def observations(self):
        """Rebuild the :class:`ChannelObservations` of this fix."""
        from repro.core.observations import ChannelObservations
        from repro.rf.antenna import Anchor
        from repro.utils.geometry2d import Point

        anchors = [
            Anchor(
                position=Point(a["x"], a["y"]),
                boresight_rad=a["boresight_rad"],
                num_antennas=a["num_antennas"],
                spacing_m=a["spacing_m"],
                name=a["name"],
            )
            for a in self.anchors
        ]
        truth = (
            Point(*self.ground_truth_xy)
            if self.ground_truth_xy is not None
            else None
        )
        return ChannelObservations(
            anchors=anchors,
            master_index=self.master_index,
            frequencies_hz=self.frequencies_hz,
            tag_to_anchor=self.tag_to_anchor,
            master_to_anchor=self.master_to_anchor,
            ground_truth=truth,
            band_snr_db=self.band_snr_db,
        )

    def localizer(self):
        """Rebuild the :class:`BlocLocalizer` the fix was produced with."""
        from repro.core.localizer import BlocConfig, BlocLocalizer
        from repro.core.peaks import PeakConfig
        from repro.core.scoring import ScoringConfig

        cfg = dict(self.config)
        peak = PeakConfig(**cfg.pop("peak"))
        scoring = ScoringConfig(**cfg.pop("scoring"))
        config = BlocConfig(peak=peak, scoring=scoring, **cfg)
        bounds = tuple(self.bounds) if self.bounds is not None else None
        return BlocLocalizer(config=config, bounds=bounds)

    def replay(self, keep_map: bool = False, diagnostics: bool = True):
        """Re-run the fix offline; returns the ``LocalizationResult``.

        Raises:
            LocalizationError: exactly when the original fix failed.
        """
        return self.localizer().locate(
            self.observations(), keep_map=keep_map, diagnostics=diagnostics
        )


def bundle_from_fix(
    observations,
    localizer,
    label: str = "",
    fix_index: int = 0,
    estimate=None,
    error_m: Optional[float] = None,
    failure_reason: Optional[str] = None,
    diagnostics: Optional[FixDiagnostics] = None,
) -> FixBundle:
    """Freeze one evaluated fix into a :class:`FixBundle`.

    ``localizer`` must be a :class:`BlocLocalizer`-shaped object (has
    ``config`` and ``bounds``); the bundle records its full
    configuration so replay reconstructs the identical pipeline.
    """
    import dataclasses

    anchors = [
        {
            "name": a.name,
            "x": float(a.position.x),
            "y": float(a.position.y),
            "boresight_rad": float(a.boresight_rad),
            "num_antennas": int(a.num_antennas),
            "spacing_m": float(a.spacing_m),
        }
        for a in observations.anchors
    ]
    truth = observations.ground_truth
    snr = getattr(observations, "band_snr_db", None)
    return FixBundle(
        label=label,
        fix_index=int(fix_index),
        anchors=anchors,
        master_index=int(observations.master_index),
        frequencies_hz=np.asarray(observations.frequencies_hz, dtype=float),
        tag_to_anchor=np.asarray(observations.tag_to_anchor, dtype=complex),
        master_to_anchor=np.asarray(
            observations.master_to_anchor, dtype=complex
        ),
        band_snr_db=None if snr is None else np.asarray(snr, dtype=float),
        ground_truth_xy=(
            (float(truth.x), float(truth.y)) if truth is not None else None
        ),
        config=dataclasses.asdict(localizer.config),
        bounds=(
            tuple(float(b) for b in localizer.bounds)
            if localizer.bounds is not None
            else None
        ),
        estimate_xy=(
            (float(estimate.x), float(estimate.y))
            if estimate is not None
            else None
        ),
        error_m=None if error_m is None else float(error_m),
        failure_reason=failure_reason,
        diagnostics=diagnostics,
    )


def _diag_to_members(
    diag: FixDiagnostics,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Split diagnostics into NPZ arrays + a JSON-able meta dict."""
    arrays: Dict[str, np.ndarray] = {
        "diag_frequencies_hz": diag.frequencies_hz
    }
    meta: Dict[str, Any] = {
        "anchor_names": list(diag.anchor_names),
        "stage_reached": diag.stage_reached,
        "estimate_xy": diag.estimate_xy,
    }
    if diag.band_quality is not None:
        bq = diag.band_quality
        meta["band_source"] = bq.source
        arrays["diag_band_snr_db"] = bq.snr_db
        arrays["diag_band_amplitude_db"] = bq.amplitude_db
        arrays["diag_band_flatness_db"] = bq.flatness_db
        arrays["diag_band_missing"] = bq.missing
    if diag.correction is not None:
        corr = diag.correction
        meta["worst_seam_rad"] = corr.worst_seam_rad
        meta["hop_coverage"] = corr.hop_coverage
        arrays["diag_corr_residual_rms_rad"] = corr.residual_rms_rad
        arrays["diag_corr_residual_band_rad"] = corr.residual_per_band_rad
        arrays["diag_corr_seam_rad"] = corr.seam_jump_rad
    if diag.likelihood_map is not None:
        lm = diag.likelihood_map
        meta["map_entropy_nats"] = lm.entropy_nats
        meta["map_peak_to_mean"] = lm.peak_to_mean
        arrays["diag_map_top_xy"] = lm.top_peaks_xy
        arrays["diag_map_top_values"] = lm.top_peak_values
    if diag.scores is not None:
        sc = diag.scores
        meta["score_margin"] = sc.margin
        arrays["diag_score_positions_xy"] = sc.positions_xy
        arrays["diag_score_likelihood"] = sc.likelihood
        arrays["diag_score_entropy"] = sc.entropy_nats
        arrays["diag_score_distance_sum_m"] = sc.distance_sum_m
        arrays["diag_score_entropy_term"] = sc.entropy_term
        arrays["diag_score_path_term"] = sc.path_term
        arrays["diag_score_value"] = sc.score
    return arrays, meta


def _diag_from_members(
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> FixDiagnostics:
    """Inverse of :func:`_diag_to_members`."""
    diag = FixDiagnostics(
        anchor_names=list(meta["anchor_names"]),
        frequencies_hz=arrays["diag_frequencies_hz"],
        stage_reached=meta["stage_reached"],
        estimate_xy=(
            tuple(meta["estimate_xy"])
            if meta.get("estimate_xy") is not None
            else None
        ),
    )
    if "diag_band_snr_db" in arrays:
        diag.band_quality = BandQuality(
            source=meta["band_source"],
            snr_db=arrays["diag_band_snr_db"],
            amplitude_db=arrays["diag_band_amplitude_db"],
            flatness_db=arrays["diag_band_flatness_db"],
            missing=arrays["diag_band_missing"],
        )
    if "diag_corr_residual_rms_rad" in arrays:
        worst = meta.get("worst_seam_rad")
        diag.correction = CorrectionDiagnostics(
            residual_rms_rad=arrays["diag_corr_residual_rms_rad"],
            residual_per_band_rad=arrays["diag_corr_residual_band_rad"],
            seam_jump_rad=arrays["diag_corr_seam_rad"],
            worst_seam_rad=float(worst) if worst is not None else 0.0,
            hop_coverage=float(meta["hop_coverage"]),
        )
    if "diag_map_top_xy" in arrays:
        entropy = meta.get("map_entropy_nats")
        ptm = meta.get("map_peak_to_mean")
        diag.likelihood_map = MapDiagnostics(
            entropy_nats=(
                float(entropy) if entropy is not None else float("nan")
            ),
            peak_to_mean=float(ptm) if ptm is not None else float("nan"),
            top_peaks_xy=arrays["diag_map_top_xy"],
            top_peak_values=arrays["diag_map_top_values"],
        )
    if "diag_score_value" in arrays:
        margin = meta.get("score_margin")
        diag.scores = ScoreBreakdown(
            positions_xy=arrays["diag_score_positions_xy"],
            likelihood=arrays["diag_score_likelihood"],
            entropy_nats=arrays["diag_score_entropy"],
            distance_sum_m=arrays["diag_score_distance_sum_m"],
            entropy_term=arrays["diag_score_entropy_term"],
            path_term=arrays["diag_score_path_term"],
            score=arrays["diag_score_value"],
            margin=float(margin) if margin is not None else float("nan"),
        )
    return diag


def _write_deterministic_npz(
    path: Path, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> None:
    """NPZ-compatible zip with content-only bytes.

    ``np.savez`` stamps members with the wall clock, so two saves of the
    same fix differ; writing the zip by hand with the fixed DOS epoch
    and sorted member order makes bundle bytes a pure function of the
    payload (the byte-stability tests rely on this).
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.save(buf, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, buf.getvalue())
        info = zipfile.ZipInfo("meta.json", date_time=_ZIP_EPOCH)
        info.compress_type = zipfile.ZIP_DEFLATED
        zf.writestr(
            info,
            json.dumps(
                _json_safe(meta), sort_keys=True, separators=(",", ":")
            ),
        )


def save_fix_bundle(path: Union[str, Path], bundle: FixBundle) -> Path:
    """Serialize a bundle to a deterministic ``.npz``; returns the path."""
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {
        "obs_frequencies_hz": bundle.frequencies_hz,
        "obs_tag_to_anchor": bundle.tag_to_anchor,
        "obs_master_to_anchor": bundle.master_to_anchor,
    }
    if bundle.band_snr_db is not None:
        arrays["obs_band_snr_db"] = bundle.band_snr_db
    meta: Dict[str, Any] = {
        "format": FIX_BUNDLE_FORMAT,
        "schema": FIX_BUNDLE_SCHEMA,
        "label": bundle.label,
        "fix_index": bundle.fix_index,
        "anchors": bundle.anchors,
        "master_index": bundle.master_index,
        "ground_truth_xy": bundle.ground_truth_xy,
        "config": bundle.config,
        "bounds": bundle.bounds,
        "result": {
            "estimate_xy": bundle.estimate_xy,
            "error_m": bundle.error_m,
            "failure_reason": bundle.failure_reason,
        },
        "diagnostics": None,
    }
    if bundle.diagnostics is not None:
        diag_arrays, diag_meta = _diag_to_members(bundle.diagnostics)
        arrays.update(diag_arrays)
        meta["diagnostics"] = diag_meta
    _write_deterministic_npz(path, arrays, meta)
    return path


def load_fix_bundle(path: Union[str, Path]) -> FixBundle:
    """Load a bundle written by :func:`save_fix_bundle`.

    Older bundles also carry an ``engine_used`` meta key from when the
    direct Eq. 17 path was selectable; it is ignored, since every replay
    runs the steering engine.

    Raises:
        ConfigurationError: when the file is not a fix bundle or its
            schema version is unknown.
    """
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path, "r") as zf:
            names = zf.namelist()
            if "meta.json" not in names:
                raise ConfigurationError(
                    f"{path}: not a fix bundle (no meta.json member)"
                )
            meta = json.loads(zf.read("meta.json").decode("utf-8"))
            for name in names:
                if name.endswith(".npy"):
                    arrays[name[:-4]] = np.load(
                        io.BytesIO(zf.read(name)), allow_pickle=False
                    )
    except zipfile.BadZipFile as exc:
        raise ConfigurationError(f"{path}: not a zip file: {exc}") from exc
    if meta.get("format") != FIX_BUNDLE_FORMAT:
        raise ConfigurationError(
            f"{path}: format {meta.get('format')!r} is not "
            f"{FIX_BUNDLE_FORMAT!r}"
        )
    if meta.get("schema") != FIX_BUNDLE_SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported bundle schema {meta.get('schema')!r}"
        )
    result = meta.get("result") or {}
    diagnostics = None
    if meta.get("diagnostics") is not None:
        diagnostics = _diag_from_members(arrays, meta["diagnostics"])
    return FixBundle(
        label=meta["label"],
        fix_index=int(meta["fix_index"]),
        anchors=meta["anchors"],
        master_index=int(meta["master_index"]),
        frequencies_hz=arrays["obs_frequencies_hz"],
        tag_to_anchor=arrays["obs_tag_to_anchor"],
        master_to_anchor=arrays["obs_master_to_anchor"],
        band_snr_db=arrays.get("obs_band_snr_db"),
        ground_truth_xy=(
            tuple(meta["ground_truth_xy"])
            if meta.get("ground_truth_xy") is not None
            else None
        ),
        config=meta["config"],
        bounds=(
            tuple(meta["bounds"]) if meta.get("bounds") is not None else None
        ),
        estimate_xy=(
            tuple(result["estimate_xy"])
            if result.get("estimate_xy") is not None
            else None
        ),
        error_m=result.get("error_m"),
        failure_reason=result.get("failure_reason"),
        diagnostics=diagnostics,
    )


def bundle_filename(label: str, fix_index: int) -> str:
    """Canonical bundle file name; labels sanitised for the filesystem."""
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-") or "fix"
    return f"{slug}-{fix_index:05d}.npz"


# ---------------------------------------------------------------------------
# Rendering (the `repro diag` CLI)
# ---------------------------------------------------------------------------


def _fmt(value, digits: int = 3) -> str:
    """Compact numeric cell: fixed digits, '-' for missing."""
    if value is None:
        return "-"
    value = float(value)
    if not np.isfinite(value):
        return "-" if np.isnan(value) else ("inf" if value > 0 else "-inf")
    return f"{value:.{digits}f}"


def render_bundle_summary(bundle: FixBundle) -> str:
    """Header block: provenance, outcome, stage reached."""
    lines = [
        f"fix bundle  label={bundle.label or '(none)'}  "
        f"index={bundle.fix_index}  schema={FIX_BUNDLE_SCHEMA}",
        f"anchors: {', '.join(a['name'] or '?' for a in bundle.anchors)}  "
        f"(master: {bundle.anchors[bundle.master_index]['name'] or '?'})",
        f"bands: {bundle.frequencies_hz.size}  "
        f"span {bundle.frequencies_hz.min() / 1e6:.1f}-"
        f"{bundle.frequencies_hz.max() / 1e6:.1f} MHz",
    ]
    if bundle.ground_truth_xy is not None:
        lines.append(
            "truth: "
            f"({_fmt(bundle.ground_truth_xy[0])}, "
            f"{_fmt(bundle.ground_truth_xy[1])}) m"
        )
    if bundle.estimate_xy is not None:
        lines.append(
            "estimate: "
            f"({_fmt(bundle.estimate_xy[0])}, "
            f"{_fmt(bundle.estimate_xy[1])}) m  "
            f"error={_fmt(bundle.error_m)} m"
        )
    if bundle.failure_reason:
        lines.append(f"FAILED: {bundle.failure_reason}")
    if bundle.diagnostics is not None:
        lines.append(f"stage reached: {bundle.diagnostics.stage_reached}")
    return "\n".join(lines)


def render_anchor_table(diag: FixDiagnostics) -> str:
    """Per-anchor health roll-up: coverage, SNR, residual, worst seam."""
    bq = diag.band_quality
    corr = diag.correction
    rows = []
    for i, name in enumerate(diag.anchor_names):
        coverage = snr = flatness = residual = seam = None
        if bq is not None:
            coverage = bq.coverage()[i]
            snr = bq.anchor_snr_db()[i]
            flatness = bq.flatness_db[i]
        if corr is not None:
            residual = corr.residual_rms_rad[i]
            if corr.seam_jump_rad.shape[1]:
                seam = corr.seam_jump_rad[i].max()
        rows.append(
            [
                name,
                _fmt(coverage, 2),
                _fmt(snr, 1),
                _fmt(flatness, 1),
                _fmt(residual),
                _fmt(seam),
            ]
        )
    return format_table(
        [
            "anchor",
            "coverage",
            "snr dB",
            "flatness dB",
            "residual rad",
            "worst seam rad",
        ],
        rows,
    )


def render_band_table(diag: FixDiagnostics) -> str:
    """Per-band detail: frequency, per-anchor SNR (x marks missing)."""
    bq = diag.band_quality
    if bq is None:
        return "(no band quality captured)"
    headers = ["band", "MHz"] + [
        f"{name} snr" for name in diag.anchor_names
    ]
    rows = []
    for k in range(diag.num_bands):
        cells = [str(k), f"{diag.frequencies_hz[k] / 1e6:.0f}"]
        for i in range(diag.num_anchors):
            if bq.missing[i, k]:
                cells.append("x")
            else:
                cells.append(_fmt(bq.snr_db[i, k], 1))
        rows.append(cells)
    return format_table(headers, rows)


def render_score_table(diag: FixDiagnostics) -> str:
    """Eq. 18 decomposition table, ranked order (row 0 = chosen peak)."""
    sc = diag.scores
    if sc is None:
        return "(no scored peaks captured)"
    rows = []
    for p in range(sc.num_candidates):
        rows.append(
            [
                ("*" if p == 0 else " ") + str(p),
                _fmt(sc.positions_xy[p, 0]),
                _fmt(sc.positions_xy[p, 1]),
                _fmt(sc.likelihood[p]),
                _fmt(sc.entropy_nats[p]),
                _fmt(sc.distance_sum_m[p], 2),
                _fmt(sc.entropy_term[p]),
                _fmt(sc.path_term[p]),
                _fmt(sc.score[p]),
            ]
        )
    table = format_table(
        [
            "peak",
            "x m",
            "y m",
            "p_x",
            "H nats",
            "sum d m",
            "exp(bH)",
            "exp(-ad)",
            "score",
        ],
        rows,
    )
    return table + f"\nscore margin: {_fmt(sc.margin)}"


def render_replay(bundle: FixBundle, result, failure: Optional[str]) -> str:
    """--explain epilogue: replayed outcome vs the recorded one."""
    lines = ["", "== replay =="]
    if failure is not None:
        lines.append(f"replay FAILED: {failure}")
        lines.append(
            "matches recorded outcome"
            if bundle.failure_reason
            else "MISMATCH: original fix succeeded"
        )
        return "\n".join(lines)
    position = result.position
    lines.append(
        f"replayed estimate: ({position.x!r}, {position.y!r}) m"
    )
    if bundle.estimate_xy is not None:
        exact = (
            float(position.x) == bundle.estimate_xy[0]
            and float(position.y) == bundle.estimate_xy[1]
        )
        lines.append(
            "bit-exact match with recorded estimate"
            if exact
            else (
                "MISMATCH with recorded estimate "
                f"({bundle.estimate_xy[0]!r}, {bundle.estimate_xy[1]!r}) -- "
                "pipeline changed since capture"
            )
        )
    elif bundle.failure_reason:
        lines.append("MISMATCH: original fix failed, replay succeeded")
    if bundle.ground_truth_xy is not None:
        dx = position.x - bundle.ground_truth_xy[0]
        dy = position.y - bundle.ground_truth_xy[1]
        lines.append(f"replay error vs truth: {np.hypot(dx, dy):.3f} m")
    return "\n".join(lines)


def render_bundle(
    bundle: FixBundle, bands: bool = False, explain: bool = False
) -> str:
    """Full ``repro diag`` report for one bundle.

    Args:
        bundle: the loaded fix bundle.
        bands: include the per-band SNR table.
        explain: replay the fix offline and append the comparison of the
            replayed winning peak against the recorded one.
    """
    parts = [render_bundle_summary(bundle)]
    diag = bundle.diagnostics
    if diag is not None:
        parts += ["", "== anchors ==", render_anchor_table(diag)]
        if bands:
            parts += ["", "== bands ==", render_band_table(diag)]
        parts += ["", "== score decomposition ==", render_score_table(diag)]
    else:
        parts.append("(bundle carries no diagnostics)")
    if explain:
        from repro.errors import LocalizationError

        result, failure = None, None
        try:
            result = bundle.replay(keep_map=False, diagnostics=False)
        except LocalizationError as exc:
            failure = str(exc)
        parts.append(render_replay(bundle, result, failure))
    return "\n".join(parts)
