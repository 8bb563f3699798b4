"""Searcher/provider chain: BLoc -> AoA baseline -> RSSI.

BLoc's accuracy rests on cross-band CSI phase; when a sweep comes back
with too many dead (anchor, band) cells -- interference bursts, a
desensed front end, a wedged radio -- Eq. 10's correction and the
Eq. 17 maps degrade ungracefully.  A production service must not turn
a degraded measurement into a 5xx, so requests run down a provider
chain in strict quality order, the way ichnaea's locate searcher falls
through its positioners:

1. **bloc** -- the full CSI pipeline, gated on CSI quality (band
   coverage overall and at the worst anchor).  Skipped when the gates
   fail, abandoned when it raises.
2. **aoa** -- the BT 5.1-style AoA-array baseline (Paulino et al.):
   per-anchor angle spectra survive dead bands because relative phase
   across one anchor's antennas needs no cross-band coherence.
3. **rssi** -- log-distance trilateration from channel magnitudes; the
   estimator of last resort, which only needs *some* finite power per
   anchor.

Every decision names the provider that produced the fix and the reasons
earlier providers were skipped or failed, so degraded operation is
visible in the response, the access log and the metrics -- never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.baselines.aoa import AoaLocalizer
from repro.baselines.rssi import RssiTrilateration
from repro.core.correction import usable_band_mask
from repro.core.localizer import BlocLocalizer
from repro.core.observations import ChannelObservations
from repro.errors import LocalizationError
from repro.obs import get_observer
from repro.utils.geometry2d import Point

#: Provider names in fallback order.
PROVIDER_CHAIN_ORDER = ("bloc", "aoa", "rssi")


@dataclass(frozen=True)
class QualityGates:
    """CSI-quality thresholds that admit a request to the BLoc path.

    Attributes:
        min_band_coverage: minimum usable fraction of all (anchor, band)
            cells.
        min_anchor_coverage: minimum usable band fraction at the *worst*
            anchor -- one dead anchor poisons the combined Eq. 17 map
            long before the overall coverage looks bad.
        min_anchors / min_antennas: geometry floor for the full
            pipeline.
    """

    min_band_coverage: float = 0.6
    min_anchor_coverage: float = 0.5
    min_anchors: int = 3
    min_antennas: int = 2


@dataclass(frozen=True)
class CsiQuality:
    """Measured CSI quality of one request's observations.

    Attributes:
        band_coverage: usable fraction of all (anchor, band) cells.
        worst_anchor_coverage: usable band fraction at the worst anchor.
        num_anchors / num_antennas / num_bands: observation shape.
    """

    band_coverage: float
    worst_anchor_coverage: float
    num_anchors: int
    num_antennas: int
    num_bands: int

    def to_dict(self) -> dict:
        """JSON-able form for responses and access logs."""
        return {
            "band_coverage": round(self.band_coverage, 4),
            "worst_anchor_coverage": round(
                self.worst_anchor_coverage, 4
            ),
            "num_anchors": self.num_anchors,
            "num_antennas": self.num_antennas,
            "num_bands": self.num_bands,
        }


def assess_quality(observations: ChannelObservations) -> CsiQuality:
    """Score a request's CSI against the shared usable-band criterion.

    Uses :func:`repro.core.correction.usable_band_mask` -- the same
    predicate the coverage metric and the diagnostics layer apply -- so
    the service gate can never disagree with the pipeline about which
    cells are dead.
    """
    usable = usable_band_mask(observations.tag_to_anchor)  # (I, K)
    per_anchor = usable.mean(axis=1)
    return CsiQuality(
        band_coverage=float(usable.mean()),
        worst_anchor_coverage=float(per_anchor.min()),
        num_anchors=observations.num_anchors,
        num_antennas=observations.num_antennas,
        num_bands=observations.num_bands,
    )


@dataclass(frozen=True)
class LocateDecision:
    """One request's outcome: a position plus full provider provenance.

    Attributes:
        position: the estimated tag position.
        provider: which chain member produced it (``"bloc"``, ``"aoa"``
            or ``"rssi"``).
        quality: the measured CSI quality that drove the gating.
        fallback_reasons: why each earlier provider did not produce the
            fix (empty when BLoc answered directly).
    """

    position: Point
    provider: str
    quality: CsiQuality
    fallback_reasons: List[str] = field(default_factory=list)


@dataclass
class ProviderChain:
    """The degrading locate chain over one scenario's warm localizers.

    Attributes:
        bloc: the warm (steering-cache-backed) BLoc localizer.
        aoa: the AoA-array fallback.
        rssi: the RSSI trilateration fallback of last resort.
        gates: CSI-quality thresholds for the BLoc path.
    """

    bloc: BlocLocalizer
    aoa: AoaLocalizer = field(default_factory=AoaLocalizer)
    rssi: RssiTrilateration = field(default_factory=RssiTrilateration)
    gates: QualityGates = field(default_factory=QualityGates)

    def gate_reason(self, quality: CsiQuality) -> Optional[str]:
        """Why the BLoc gate rejects this quality (None = admitted)."""
        g = self.gates
        if quality.num_anchors < g.min_anchors:
            return (
                f"only {quality.num_anchors} anchor(s) "
                f"(need >= {g.min_anchors})"
            )
        if quality.num_antennas < g.min_antennas:
            return (
                f"only {quality.num_antennas} antenna(s) "
                f"(need >= {g.min_antennas})"
            )
        if quality.band_coverage < g.min_band_coverage:
            return (
                f"band coverage {quality.band_coverage:.2f} "
                f"< {g.min_band_coverage:.2f}"
            )
        if quality.worst_anchor_coverage < g.min_anchor_coverage:
            return (
                f"worst-anchor coverage "
                f"{quality.worst_anchor_coverage:.2f} "
                f"< {g.min_anchor_coverage:.2f}"
            )
        return None

    def _fallback(
        self,
        observations: ChannelObservations,
        quality: CsiQuality,
        reasons: List[str],
    ) -> LocateDecision:
        """Run the post-BLoc chain members (AoA, then RSSI).

        Thread-safety: safe to call concurrently; the fallback
        localizers guard their own caches.

        Raises:
            LocalizationError: when both fallbacks failed too.
        """
        if quality.num_antennas >= 2 and quality.num_anchors >= 2:
            try:
                result = self.aoa.locate(observations, keep_map=False)
                return LocateDecision(
                    position=result.position,
                    provider="aoa",
                    quality=quality,
                    fallback_reasons=list(reasons),
                )
            except LocalizationError as exc:
                reasons.append(f"aoa: {exc}")
        else:
            reasons.append(
                "aoa: needs >= 2 anchors with >= 2 antennas, got "
                f"{quality.num_anchors} anchor(s) x "
                f"{quality.num_antennas} antenna(s)"
            )
        try:
            result = self.rssi.locate(observations, keep_map=False)
            return LocateDecision(
                position=result.position,
                provider="rssi",
                quality=quality,
                fallback_reasons=list(reasons),
            )
        except LocalizationError as exc:
            reasons.append(f"rssi: {exc}")
            raise LocalizationError(
                "every provider failed: " + "; ".join(reasons)
            ) from exc

    def locate(
        self, observations: ChannelObservations
    ) -> LocateDecision:
        """Locate one request through the chain, inside a
        ``service.provider_chain`` span.

        Requests that pass the quality gates run the BLoc pipeline;
        gated-out or BLoc-failed requests fall through the AoA/RSSI
        members.

        Thread-safety: safe to call concurrently from server threads;
        the underlying localizers document the same contract.

        Raises:
            LocalizationError: when every provider failed.
        """
        with get_observer().span("service.provider_chain") as chain_span:
            quality = assess_quality(observations)
            reasons: List[str] = []
            reason = self.gate_reason(quality)
            if chain_span is not None:
                chain_span.set(admitted=reason is None)
            if reason is not None:
                reasons.append(f"bloc: gated ({reason})")
            else:
                try:
                    result = self.bloc.locate(observations, keep_map=False)
                    return LocateDecision(
                        position=result.position,
                        provider="bloc",
                        quality=quality,
                    )
                except LocalizationError as exc:
                    reasons.append(f"bloc: {exc}")
            return self._fallback(observations, quality, reasons)
