"""Provider chain: quality gating and BLoc -> AoA -> RSSI degradation."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.errors import LocalizationError
from repro.service.providers import (
    PROVIDER_CHAIN_ORDER,
    LocateDecision,
    ProviderChain,
    QualityGates,
    assess_quality,
)
from repro.sim.interference import inject_band_outage


@pytest.fixture(scope="module")
def chain(service_pool):
    """The vicon scenario's provider chain from the shared warm pool."""
    return service_pool.get("vicon").chain


class TestAssessQuality:
    def test_clean_observations_have_full_coverage(self, observations):
        quality = assess_quality(observations)
        assert quality.band_coverage == pytest.approx(1.0)
        assert quality.worst_anchor_coverage == pytest.approx(1.0)
        assert quality.num_anchors == 4
        assert quality.num_bands == 37

    def test_outage_drops_worst_anchor_coverage(self, observations):
        degraded = inject_band_outage(
            observations, anchor_index=0, band_indices=list(range(30))
        )
        quality = assess_quality(degraded)
        assert quality.worst_anchor_coverage < 0.25
        # Overall coverage only loses 30 of 4*37 cells.
        assert quality.band_coverage > 0.7

    def test_to_dict_is_json_shaped(self, observations):
        as_dict = assess_quality(observations).to_dict()
        assert set(as_dict) == {
            "band_coverage",
            "worst_anchor_coverage",
            "num_anchors",
            "num_antennas",
            "num_bands",
        }


class TestProviderChain:
    def test_chain_order_constant(self):
        assert PROVIDER_CHAIN_ORDER == ("bloc", "aoa", "rssi")

    def test_clean_request_served_by_bloc(self, chain, observations):
        decision = chain.locate(observations)
        assert decision.provider == "bloc"
        assert decision.fallback_reasons == []

    def test_outage_falls_back_with_named_reason(
        self, chain, observations
    ):
        degraded = inject_band_outage(
            observations, anchor_index=0, band_indices=list(range(30))
        )
        decision = chain.locate(degraded)
        assert decision.provider in ("aoa", "rssi")
        assert any("bloc" in r for r in decision.fallback_reasons)

    @pytest.mark.parametrize("field", ["tag_to_anchor", "master_to_anchor"])
    def test_non_finite_csi_gets_typed_fallback(
        self, chain, observations, field
    ):
        broken = dataclasses.replace(
            observations, **{field: getattr(observations, field).copy()}
        )
        getattr(broken, field)[1, 0, 5] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning
            clean = chain.locate(observations)
            degraded = chain.locate(broken)
        assert clean.provider == "bloc"
        assert isinstance(degraded, LocateDecision)
        assert degraded.provider in ("aoa", "rssi")
        assert any(
            f"bloc: non-finite CSI in {field} of anchor 1" in reason
            for reason in degraded.fallback_reasons
        )

    def test_fallback_position_stays_in_room(self, chain, observations):
        degraded = inject_band_outage(
            observations, anchor_index=0, band_indices=list(range(30))
        )
        decision = chain.locate(degraded)
        assert -4.0 < decision.position.x < 4.0
        assert -3.0 < decision.position.y < 4.0

    def test_gate_thresholds_are_configurable(self, chain, observations):
        strict = ProviderChain(
            bloc=chain.bloc,
            gates=QualityGates(min_band_coverage=1.01),
        )
        decision = strict.locate(observations)
        assert decision.provider != "bloc"
        assert any("gated" in r for r in decision.fallback_reasons)

    def test_all_providers_dead_is_contained_error(
        self, chain, observations
    ):
        # Zero every channel: no provider can produce a fix.
        dead = inject_band_outage(
            observations,
            anchor_index=0,
            band_indices=list(range(observations.num_bands)),
        )
        for anchor in range(1, observations.num_anchors):
            dead = inject_band_outage(
                dead,
                anchor_index=anchor,
                band_indices=list(range(observations.num_bands)),
            )
        try:
            decision = chain.locate(dead)
        except LocalizationError as exc:
            # Every provider failed: one typed error naming them all.
            assert "every provider failed" in str(exc)
        else:
            # The fallback baselines may still return a (meaningless)
            # fix from all-zero channels; what matters is that BLoc was
            # gated out.
            assert decision.provider in ("aoa", "rssi")
            assert any("bloc" in r for r in decision.fallback_reasons)
