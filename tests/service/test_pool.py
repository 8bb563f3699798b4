"""The warm-pool contract: after ``prewarm()``, requests never build.

``LocalizerPool.prewarm`` warms each scenario from its geometry alone
(unit channels on the testbed's anchors and the full band plan), with
no synthesized measurement.  That is only sound if the entries it
builds are the very ones measured requests look up, so every fix after
the prewarm must be a cache hit: on the shared steering cache for a
fix BLoc admits, and on the scenario's AoA cache for a band-outage fix
the quality gate sends to AoA.
"""

from __future__ import annotations

import pytest

from repro.service import LocalizerPool
from repro.sim import ChannelMeasurementModel, inject_band_outage
from repro.utils.geometry2d import Point

#: Coarse grid: the contract is about cache keys, not accuracy.
RESOLUTION_M = 0.35
#: Dead bands at one anchor: 13 of 37 left, below the 0.5 worst-anchor
#: coverage gate, so BLoc is skipped.
OUTAGE_BANDS = 24


def _counts(pool: LocalizerPool, name: str) -> dict:
    aoa = pool.get(name).chain.aoa._steering
    return {
        "engine_hits": pool.engine.hits,
        "engine_misses": pool.engine.misses,
        "aoa_hits": aoa.hits,
        "aoa_misses": aoa.misses,
    }


@pytest.fixture(scope="module")
def warm_pool() -> LocalizerPool:
    pool = LocalizerPool(grid_resolution_m=RESOLUTION_M)
    pool.prewarm()
    return pool


@pytest.mark.parametrize("name", ["vicon", "open_room"])
class TestPrewarmedPoolOnlyHits:
    def _measured(self, pool: LocalizerPool, name: str):
        model = ChannelMeasurementModel(pool.get(name).testbed, seed=7)
        return model.measure(Point(0.9, 1.1))

    def test_admitted_fix_hits_the_steering_entry(self, warm_pool, name):
        observations = self._measured(warm_pool, name)
        before = _counts(warm_pool, name)
        decision = warm_pool.get(name).chain.locate(observations)
        after = _counts(warm_pool, name)
        assert decision.provider == "bloc"
        assert after["engine_hits"] > before["engine_hits"]
        assert after["engine_misses"] == before["engine_misses"]
        assert after["aoa_misses"] == before["aoa_misses"]

    def test_gated_outage_fix_hits_the_aoa_cache(self, warm_pool, name):
        observations = inject_band_outage(
            self._measured(warm_pool, name),
            anchor_index=1,
            band_indices=range(OUTAGE_BANDS),
        )
        before = _counts(warm_pool, name)
        decision = warm_pool.get(name).chain.locate(observations)
        after = _counts(warm_pool, name)
        assert decision.provider == "aoa"
        assert any("gated" in r for r in decision.fallback_reasons)
        assert after["aoa_hits"] > before["aoa_hits"]
        assert after["aoa_misses"] == before["aoa_misses"]
        assert after["engine_misses"] == before["engine_misses"]


def test_prewarm_builds_each_entry_once(warm_pool):
    # vicon and open_room deploy the same anchor ring, so they share one
    # steering entry; each scenario's AoA cache holds one band plan.
    assert warm_pool.engine.misses == 1
    for name in warm_pool.names():
        assert warm_pool.get(name).chain.aoa._steering.misses == 1
