"""Phase-offset cancellation: the triple product of Eq. 10.

Every frequency hop gives the tag and each anchor fresh random oscillator
phases, garbling the cross-band channel phase (Section 5.1).  BLoc removes
them collaboratively (Section 5.2): slave anchor ``i`` overhears both sides
of the master <-> tag exchange, and

    alpha_ij = h-hat_ij * conj(H-hat_i0) * conj(h-hat_00)

is offset-free, because the tag offset enters ``h-hat_ij`` and
``h-hat_00`` identically and the anchor offsets cancel between the three
factors.  For the master anchor itself there is no overheard response;
``alpha_0j = h-hat_0j * conj(h-hat_00)`` suffices since one oscillator
drives all its antennas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.contracts import shaped
from repro.core.observations import ChannelObservations
from repro.errors import LocalizationError
from repro.obs import STANDARD_METRICS, get_observer
from repro.rf.antenna import Anchor
from repro.utils.geometry2d import Point, distance


@dataclass
class CorrectedChannels:
    """Offset-free corrected channels ``alpha`` plus their geometry.

    Attributes:
        anchors: anchor descriptors (same order as the alpha rows).
        master_index: index of the master anchor.
        frequencies_hz: band centre frequencies, shape ``(K,)``.
        alpha: corrected channels, shape ``(I, J, K)``.
        anchor_baselines_m: known distance from each anchor's antenna 0 to
            the master's antenna 0 (the paper's ``d^{i0}_{00}``, measured
            once at deployment); 0 for the master itself.
    """

    anchors: List[Anchor]
    master_index: int
    frequencies_hz: np.ndarray
    alpha: np.ndarray
    anchor_baselines_m: np.ndarray

    @property
    def num_anchors(self) -> int:
        """Number of anchors ``I``."""
        return len(self.anchors)

    @property
    def num_antennas(self) -> int:
        """Antennas per anchor ``J``."""
        return int(self.alpha.shape[1])

    @property
    def num_bands(self) -> int:
        """Number of frequency bands ``K``."""
        return int(self.frequencies_hz.size)

    @property
    def master(self) -> Anchor:
        """The master anchor."""
        return self.anchors[self.master_index]

    def master_reference_position(self) -> Point:
        """Position of the reference element (master anchor, antenna 0)."""
        return self.master.antenna_position(0)


def anchor_baselines(anchors: List[Anchor], master_index: int) -> np.ndarray:
    """Deployment-time baselines ``d^{i0}_{00}`` for each anchor."""
    reference = anchors[master_index].antenna_position(0)
    return np.array(
        [
            distance(anchor.antenna_position(0), reference)
            for anchor in anchors
        ]
    )


def correct_phase_offsets(
    observations: ChannelObservations,
) -> CorrectedChannels:
    """Apply Eq. 10 to a full observation set.

    Args:
        observations: measured (offset-garbled) channels.

    Returns:
        The corrected channels ``alpha`` ready for likelihood mapping.

    Raises:
        LocalizationError: NaN or Inf in either channel set, or CSI so
            far out of range that the product over- or underflows (see
            :func:`_reject_out_of_range`), naming the first anchor
            affected -- before any likelihood work, which would
            otherwise fail later with a misleading no-peak error or
            silently drop the anchor.
    """
    _reject_non_finite(observations)
    m = observations.master_index
    tag = observations.tag_to_anchor  # (I, J, K)
    master = observations.master_to_anchor  # (I, J, K)
    # Reference terms, broadcast over anchors and antennas.
    h00 = tag[m, 0, :]  # tag -> master antenna 0, shape (K,)
    alpha = np.empty_like(tag)
    for i in range(observations.num_anchors):
        if i == m:
            # Same oscillator on all master antennas: the h00 conjugate
            # cancels the (tag - master) offset common to every element.
            alpha[i] = tag[i] * np.conj(h00)[None, :]
        else:
            hi0 = master[i, 0, :]  # master ant0 -> slave ant0, shape (K,)
            alpha[i] = tag[i] * np.conj(hi0)[None, :] * np.conj(h00)[None, :]
    _reject_out_of_range(observations, alpha)
    observer = get_observer()
    if observer.enabled:
        _record_correction_metrics(observer, tag, alpha)
    return CorrectedChannels(
        anchors=list(observations.anchors),
        master_index=m,
        frequencies_hz=observations.frequencies_hz.copy(),
        alpha=alpha,
        anchor_baselines_m=anchor_baselines(observations.anchors, m),
    )


def _reject_non_finite(observations: ChannelObservations) -> None:
    """Raise :class:`LocalizationError` on NaN/Inf CSI (see caller)."""
    for name in ("tag_to_anchor", "master_to_anchor"):
        finite = np.isfinite(getattr(observations, name)).all(axis=(1, 2))
        if not finite.all():
            where = _anchor_label(observations, int(np.argmin(finite)))
            raise LocalizationError(f"non-finite CSI in {name} of {where}")


def _anchor_label(observations: ChannelObservations, i: int) -> str:
    """``anchor <i> (<name>)`` for error messages."""
    name = observations.anchors[i].name
    return f"anchor {i}" + (f" ({name})" if name else "")


def _reject_out_of_range(
    observations: ChannelObservations, alpha: np.ndarray
) -> None:
    """Raise :class:`LocalizationError` when Eq. 10 left float range.

    The slave triple product is cubic in the CSI amplitude: CSI scaled
    by 1e105 overflows alpha to Inf, and CSI scaled by 1e-110 underflows
    it to zero, where the anchor's map would go flat and the fix would
    silently rest on the master alone.  An anchor whose alpha peak is
    below the smallest normal float fails only if some band has every
    Eq. 10 factor non-zero; a dead anchor (all-zero CSI) stays allowed
    and contributes an all-zero map.
    """
    # Amplitude sink: the range check needs only |alpha|.
    peaks = np.abs(alpha).max(axis=(1, 2))  # repro: noqa[RPR001]
    tiny = np.finfo(float).tiny
    if np.all(np.isfinite(peaks) & (peaks >= tiny)):
        return
    m = observations.master_index
    tag = observations.tag_to_anchor
    h00 = tag[m, 0, :]
    for i, peak in enumerate(peaks):
        where = _anchor_label(observations, i)
        if not np.isfinite(peak):
            raise LocalizationError(
                f"corrected channels of {where} overflow (CSI amplitude "
                "too large for the Eq. 10 product)"
            )
        if peak >= tiny:
            continue
        factors = (tag[i] != 0).any(axis=0) & (h00 != 0)
        if i != m:
            factors &= observations.master_to_anchor[i, 0, :] != 0
        if factors.any():
            raise LocalizationError(
                f"corrected channels of {where} underflow (CSI amplitude "
                "too small for the Eq. 10 product)"
            )


@shaped(dtype=np.complexfloating, alpha=("I", "J", "K"))
def linear_phase_residual(alpha: np.ndarray) -> np.ndarray:
    """Deviation of the corrected cross-band phase from its linear trend.

    The paper's Fig. 8b shows that after Eq. 10 the phase across bands
    must be "clearly linear"; whatever is left after removing the
    per-(anchor, antenna) least-squares line is the *residual* the
    cancellation failed to remove -- oscillator drift between the two
    packets of an event, estimation noise, or a broken correction.

    Args:
        alpha: corrected channels, shape ``(I, J, K)``.

    Returns:
        Residual phase [rad], shape ``(I, J, K)``; all zeros when fewer
        than 3 bands are available (a line fits 2 points exactly).
    """
    num_bands = alpha.shape[2]
    phase = np.unwrap(np.angle(alpha), axis=2)
    if num_bands < 3:
        return np.zeros_like(phase)
    x = np.arange(num_bands, dtype=float)
    x = x - x.mean()
    denom = float(np.sum(x**2))
    flat = phase.reshape(-1, num_bands)
    slopes = flat @ x / denom
    fitted = slopes[:, None] * x[None, :] + flat.mean(axis=1, keepdims=True)
    return (flat - fitted).reshape(phase.shape)


@shaped(dtype=np.complexfloating, tag=("I", "J", "K"))
def usable_band_mask(tag: np.ndarray) -> np.ndarray:
    """Per-(anchor, band) mask of usable tag measurements, shape (I, K).

    A cell is usable when every antenna's measurement is finite and the
    anchor heard *something* on that band (non-zero total amplitude) --
    the same criterion the coverage metric and the diagnostics layer use,
    kept in one place so they can never disagree.
    """
    # Amplitude sink: the mask only needs magnitudes, the complex CSI
    # itself is untouched.
    total = np.abs(tag).sum(axis=1)  # repro: noqa[RPR001]
    return np.isfinite(tag).all(axis=1) & (total > 0)


def _record_correction_metrics(observer, tag: np.ndarray, alpha: np.ndarray):
    """Per-hop diagnostics for Eq. 10 (only runs when observability is on).

    * ``correction.hop_coverage`` -- fraction of (anchor, hop) cells with
      a usable (finite, non-zero) tag measurement; a hop the sweep never
      visited, or an anchor that lost the packet, shows up here.
    * ``correction.residual_phase_rad`` -- per-hop RMS deviation of the
      corrected cross-band phase from its per-(anchor, antenna) linear
      trend.  The paper's Fig. 8b shows this trend must be "clearly
      linear"; a drifting oscillator or broken correction inflates the
      residual long before the final error budget notices.
    """
    num_bands = tag.shape[2]
    usable = usable_band_mask(tag)
    coverage = float(np.mean(usable))
    metrics = observer.metrics
    metrics.gauge("correction.hop_coverage").set(coverage)
    metrics.counter("correction.hops_total").inc(num_bands)
    missing_hops = int(np.sum(~usable.all(axis=0)))
    if missing_hops:
        metrics.counter("correction.hops_missing").inc(missing_hops)
    if num_bands >= 3:
        residual = linear_phase_residual(alpha)  # (I, J, K)
        per_hop_rms = np.sqrt(np.mean(residual**2, axis=(0, 1)))
        histogram = metrics.histogram(
            "correction.residual_phase_rad",
            STANDARD_METRICS["correction.residual_phase_rad"][1],
        )
        for value in per_hop_rms:
            histogram.observe(float(value))
