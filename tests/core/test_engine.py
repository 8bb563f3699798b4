"""Tests for repro.core.engine: the range-profile steering cache."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eq17_oracle import DirectBlocLocalizer, direct_flats

from repro.core import (
    BlocLocalizer,
    SteeringCache,
    compute_likelihood_map,
    correct_phase_offsets,
)
from repro.constants import SPEED_OF_LIGHT
from repro.core.engine import (
    PROFILE_ERROR_TARGET,
    LruCache,
    steering_cache_key,
)
from repro.core.likelihood import LikelihoodMap
from repro.errors import ConfigurationError
from repro.sim import ChannelMeasurementModel, build_dataset, evaluate
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D


@pytest.fixture(scope="module")
def observations():
    model = ChannelMeasurementModel(testbed=open_room_testbed(), seed=7)
    return model.measure(Point(0.4, -0.3))


@pytest.fixture(scope="module")
def corrected(observations):
    return correct_phase_offsets(observations)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(-2.0, 2.0, -1.5, 1.5, 0.1)


def _block(entry, anchor_index, num_antennas):
    """Anchor ``anchor_index``'s ``(size, J * L)`` block of the stacked
    gather."""
    size, width = entry.grid.size, num_antennas * entry.samples.shape[0]
    rows, cols = anchor_index * size, anchor_index * width
    return entry.gather[rows:rows + size, cols:cols + width]


def _key(corrected, grid, anchors=None):
    return steering_cache_key(
        grid,
        corrected.anchors if anchors is None else anchors,
        corrected.master_index,
        corrected.anchor_baselines_m,
        corrected.frequencies_hz,
    )


#: Band plans the oracle covers: the full 37-band BLE plan, every 2nd
#: and 4th band, a single band, and an off-lattice plan.
BAND_PLANS = {
    "full": lambda f: f,
    "every_2nd": lambda f: f[::2],
    "every_4th": lambda f: f[::4],
    "single": lambda f: f[18:19],
    "off_lattice": lambda f: np.array([2.40e9, 2.41e9, 2.41e9 + 1.7e6]),
}


class TestRangeProfileOracle:
    @given(
        plan=st.sampled_from(sorted(BAND_PLANS)),
        resolution=st.sampled_from([0.06, 0.1, 0.3]),
        seed=st.integers(0, 2**16),
    )
    @example(plan="off_lattice", resolution=0.1, seed=0)
    @example(plan="single", resolution=0.06, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_maps_within_interpolation_bound(
        self, corrected, plan, resolution, seed
    ):
        # The bound holds for any channels, so random alphas stress it
        # harder than a clean fix would.
        freqs = BAND_PLANS[plan](corrected.frequencies_hz)
        rng = np.random.default_rng(seed)
        shape = corrected.alpha.shape[:2] + (freqs.size,)
        fix = dataclasses.replace(
            corrected,
            frequencies_hz=freqs,
            alpha=rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape),
        )
        grid = Grid2D(-2.0, 2.0, -1.5, 1.5, resolution)
        entry = SteeringCache().entry_for(fix, grid)
        for i, exact in enumerate(direct_flats(fix, grid)):
            bound = entry.error_bound(fix.alpha[i])
            engine = entry.anchor_likelihood(i, fix.alpha[i])
            # 1e-9 of the peak covers floating-point rounding of the
            # ~1e3 rad carrier phases, which the bound does not model.
            assert np.abs(engine - exact).max() <= bound + 1e-9 * exact.max()

    def test_step_meets_error_target(self, corrected, grid):
        entry = SteeringCache().entry_for(corrected, grid)
        alpha = corrected.alpha[0]
        relative = entry.error_bound(alpha) / np.abs(alpha).sum()
        assert relative <= PROFILE_ERROR_TARGET * (1 + 1e-12)

    def test_single_band_is_exact(self, corrected, grid):
        fix = dataclasses.replace(
            corrected,
            frequencies_hz=corrected.frequencies_hz[:1],
            alpha=corrected.alpha[:, :, :1],
        )
        entry = SteeringCache().entry_for(fix, grid)
        assert entry.samples.shape == (2, 1)
        assert entry.error_bound(fix.alpha[1]) == 0.0
        assert np.allclose(
            entry.anchor_likelihood(1, fix.alpha[1]),
            direct_flats(fix, grid)[1],
            rtol=1e-9,
        )

    def test_gathers_are_two_taps_per_antenna(self, corrected, grid):
        entry = SteeringCache().entry_for(corrected, grid)
        num_antennas = corrected.num_antennas
        width = num_antennas * entry.samples.shape[0]
        assert entry.gather.shape == (
            corrected.num_anchors * grid.size,
            corrected.num_anchors * width,
        )
        for i in range(corrected.num_anchors):
            block = _block(entry, i, num_antennas)
            assert block.shape == (grid.size, width)
            assert np.all(np.diff(block.indptr) == 2 * num_antennas)
        # Block-diagonal: every tap of anchor i's rows reads its profiles.
        anchor_of_row = np.arange(entry.gather.shape[0]) // grid.size
        anchor_of_tap = entry.gather.indices // width
        assert np.all(
            np.repeat(anchor_of_row, np.diff(entry.gather.indptr))
            == anchor_of_tap
        )

    def test_nbytes_covers_every_array(self, corrected, grid):
        entry = SteeringCache().entry_for(corrected, grid)
        g = entry.gather
        arrays = [entry.samples, g.data, g.indices, g.indptr]
        assert entry.nbytes == sum(a.nbytes for a in arrays)


class TestCachedMapMatchesDirect:
    def test_allclose_to_direct_path(self, corrected, grid):
        cache = SteeringCache()
        exact = direct_flats(corrected, grid)
        direct = LikelihoodMap.from_anchor_maps(exact, grid)
        cached = compute_likelihood_map(corrected, grid, cache)
        entry = cache.entry_for(corrected, grid)
        # Peak normalisation at most doubles the raw error relative to
        # the peak: |a/pa - b/pb| <= 2 * bound / pa.
        tolerances = [
            2.0 * entry.error_bound(alpha) / flat.max()
            for alpha, flat in zip(corrected.alpha, exact)
        ]
        for a, b, tol in zip(direct.per_anchor, cached.per_anchor, tolerances):
            assert np.abs(a - b).max() <= tol
        assert np.abs(direct.combined - cached.combined).max() <= sum(
            tolerances
        )

    def test_locate_matches_direct_path(self, observations):
        with_engine = BlocLocalizer().locate(observations, keep_map=False)
        without = DirectBlocLocalizer().locate(observations, keep_map=False)
        # Map errors of ~1e-5 of the peak move the refined position by
        # micrometres; 1e-4 m is the stated tolerance.
        assert with_engine.position.x == pytest.approx(
            without.position.x, abs=1e-4
        )
        assert with_engine.position.y == pytest.approx(
            without.position.y, abs=1e-4
        )

    def test_non_lattice_band_plan_builds_densely(self, grid, corrected):
        # Off-lattice band spacings need no special path: the entry covers
        # every grid point and its maps match the direct Eq. 17 path.
        freqs = np.array([2.40e9, 2.41e9, 2.41e9 + 1.7e6])
        fix = dataclasses.replace(
            corrected,
            frequencies_hz=freqs,
            alpha=corrected.alpha[:, :, :3],
        )
        entry = SteeringCache().entry_for(fix, grid)
        assert entry.gather.shape[0] == fix.num_anchors * grid.size
        for i, exact in enumerate(direct_flats(fix, grid)):
            assert _block(entry, i, fix.num_antennas).shape[0] == grid.size
            engine = entry.anchor_likelihood(i, fix.alpha[i])
            assert np.abs(engine - exact).max() <= (
                entry.error_bound(fix.alpha[i]) + 1e-9 * exact.max()
            )


def _view(corrected, bands, one_antenna):
    """A band subset, optionally cut to one antenna per anchor -- the
    reductions Fig. 6 uses for its angle-only and distance-only views."""
    bands = sorted(bands)
    fix = dataclasses.replace(
        corrected,
        frequencies_hz=corrected.frequencies_hz[bands],
        alpha=corrected.alpha[:, :, bands],
    )
    if one_antenna:
        fix = dataclasses.replace(
            fix,
            anchors=[a.truncated(1) for a in fix.anchors],
            alpha=fix.alpha[:, :1, :],
        )
    return fix


class TestEngineMatchesOracleOnViews:
    @given(
        bands=st.lists(
            st.integers(0, 36), min_size=1, max_size=37, unique=True
        ),
        one_antenna=st.booleans(),
    )
    @example(bands=[18], one_antenna=False)  # Fig. 6a: one band
    @example(bands=list(range(37)), one_antenna=True)  # Fig. 6b
    @settings(max_examples=25, deadline=None)
    def test_normalised_maps_within_bound(
        self, corrected, grid, bands, one_antenna
    ):
        fix = _view(corrected, bands, one_antenna)
        cache = SteeringCache()
        engine = compute_likelihood_map(fix, grid, cache)
        entry = cache.entry_for(fix, grid)
        exact = direct_flats(fix, grid)
        for alpha, mapped, flat in zip(fix.alpha, engine.per_anchor, exact):
            # Peak normalisation at most doubles the relative error; 1e-9
            # covers floating-point rounding, which the bound omits.
            peak = flat.max()
            tolerance = 2.0 * entry.error_bound(alpha) / peak
            assert np.abs(mapped.ravel() - flat / peak).max() <= (
                tolerance + 1e-9
            )


class TestBlockwiseBuild:
    def test_recurrence_matches_dense_exp(self, corrected, grid):
        # The gather applied to the sampled profile reproduces the complex
        # dense steering sum sum_k alpha_k * exp(1j * k_k * d), phase
        # included, within the interpolation bound.
        entry = SteeringCache().entry_for(corrected, grid)
        points = grid.points()
        wavenumbers = (
            2.0 * np.pi * corrected.frequencies_hz / SPEED_OF_LIGHT
        )
        reference = corrected.master_reference_position().as_array()
        refd = np.linalg.norm(points - reference[None, :], axis=1)
        element = corrected.anchors[1].antenna_position(2).as_array()
        relative = (
            np.linalg.norm(points - element[None, :], axis=1)
            - refd
            - float(corrected.anchor_baselines_m[1])
        )
        alpha = np.zeros_like(corrected.alpha[1])
        alpha[2] = corrected.alpha[1, 2]
        dense = np.exp(1j * np.outer(relative, wavenumbers)) @ alpha[2]
        engine = _block(entry, 1, corrected.num_antennas) @ (
            alpha @ entry.samples.T
        ).ravel()
        assert np.abs(engine - dense).max() <= (
            entry.error_bound(alpha) + 1e-9 * np.abs(dense).max()
        )


class TestEntryLikelihoods:
    def test_rows_match_anchor_likelihood(self, corrected, grid):
        entry = SteeringCache().entry_for(corrected, grid)
        stacked = entry.likelihoods(corrected.alpha)
        assert stacked.shape == (corrected.num_anchors, grid.size)
        for anchor in range(corrected.num_anchors):
            single = entry.anchor_likelihood(anchor, corrected.alpha[anchor])
            np.testing.assert_allclose(
                stacked[anchor], single, rtol=1e-12, atol=1e-12
            )


class TestCacheKeying:
    def test_repeat_lookup_hits(self, corrected, grid):
        cache = SteeringCache()
        first = cache.entry_for(corrected, grid)
        second = cache.entry_for(corrected, grid)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_grid_change_invalidates(self, corrected, grid):
        cache = SteeringCache()
        cache.entry_for(corrected, grid)
        cache.entry_for(corrected, grid.coarsened(2))
        assert cache.misses == 2
        assert len(cache) == 2

    def test_frequency_change_invalidates(self, observations, grid):
        cache = SteeringCache()
        cache.entry_for(correct_phase_offsets(observations), grid)
        narrower = observations.select_bandwidth(20e6)
        cache.entry_for(correct_phase_offsets(narrower), grid)
        assert cache.misses == 2

    def test_geometry_change_invalidates(self, observations, grid):
        cache = SteeringCache()
        cache.entry_for(correct_phase_offsets(observations), grid)
        # Truncating the arrays keeps the kept elements' physical
        # positions but drops one, changing the antenna geometry.
        truncated = observations.select_antennas(3)
        cache.entry_for(correct_phase_offsets(truncated), grid)
        assert cache.misses == 2

    def test_anchor_name_is_not_geometry(self, corrected, grid):
        cache = SteeringCache()
        first = cache.entry_for(corrected, grid)
        renamed = dataclasses.replace(
            corrected,
            anchors=[
                dataclasses.replace(a, name=f"renamed-{k}")
                for k, a in enumerate(corrected.anchors)
            ],
        )
        assert cache.entry_for(renamed, grid) is first
        assert cache.misses == 1 and cache.hits == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"position": Point(0.05, -1.9)},
            {"boresight_rad": 1.5},
            {"spacing_m": 0.05},
            {"num_antennas": 3},
        ],
        ids=["position", "boresight", "spacing", "antenna-count"],
    )
    def test_anchor_field_change_is_a_miss(self, corrected, grid, change):
        anchors = list(corrected.anchors)
        anchors[0] = dataclasses.replace(anchors[0], **change)
        key = _key(corrected, grid)
        assert _key(corrected, grid, anchors=anchors) != key
        if "num_antennas" not in change:  # alpha keeps J = 4 antennas
            cache = SteeringCache()
            cache.entry_for(corrected, grid)
            cache.entry_for(
                dataclasses.replace(corrected, anchors=anchors), grid
            )
            assert cache.misses == 2

    def test_key_pickles(self, corrected, grid):
        key = _key(corrected, grid)
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key and hash(clone) == hash(key)

    def test_rejects_bad_max_entries(self):
        with pytest.raises(ConfigurationError):
            SteeringCache(max_entries=0)

    def test_lru_eviction(self, corrected, grid):
        cache = SteeringCache(max_entries=1)
        cache.entry_for(corrected, grid)
        cache.entry_for(corrected, grid.coarsened(2))
        assert len(cache) == 1
        assert cache.evictions == 1
        # The first grid was evicted: looking it up again is a miss.
        cache.entry_for(corrected, grid)
        assert cache.misses == 3

    def test_cache_pickles_empty(self, corrected, grid):
        cache = SteeringCache(max_entries=2)
        cache.entry_for(corrected, grid)
        clone = pickle.loads(pickle.dumps(cache))
        assert type(clone) is SteeringCache
        assert len(clone) == 0 and clone.max_entries == 2
        assert clone.entry_for(corrected, grid) is not None
        assert clone.misses == 1

    def test_info_reports_bytes(self, corrected, grid):
        cache = SteeringCache()
        assert cache.info()["bytes"] == 0
        cache.entry_for(corrected, grid)
        info = cache.info()
        assert info["entries"] == 1
        assert info["bytes"] == cache.nbytes > 0


class TestLruCacheUnderThreads:
    def test_concurrent_get_or_build_loses_no_update(self):
        """More threads than cores hammer a 3-entry LRU over 5 keys with
        a fast switch interval: every lookup is counted exactly once,
        every miss is exactly one build, and a caller always gets the
        value built for its key."""
        import sys
        import threading

        cache = LruCache(3)
        builds = []
        build_lock = threading.Lock()
        errors = []

        def build_for(key):
            def build():
                with build_lock:
                    builds.append(key)
                return np.full(4, key)

            return build

        def worker(seed):
            rng = np.random.default_rng(seed)
            for key in rng.integers(0, 5, 400).tolist():
                value = cache.get_or_build(key, build_for(key))
                if value[0] != key:
                    errors.append((key, value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = cache.info()
        assert info["hits"] + info["misses"] == 8 * 400
        assert info["misses"] == len(builds)
        assert info["evictions"] == len(builds) - info["entries"]
        assert info["entries"] <= 3


class TestEngineObservability:
    def test_cache_metrics_recorded(self, corrected, grid):
        from repro.obs import observed

        with observed() as obs:
            cache = SteeringCache()
            cache.entry_for(corrected, grid)
            cache.entry_for(corrected, grid)
        assert obs.metrics.get("engine.cache_misses").value == 1
        assert obs.metrics.get("engine.cache_hits").value == 1
        assert obs.metrics.get("engine.build_s").count == 1


class TestParallelEvaluationWithSharedCache:
    def test_workers_share_one_cache_and_match_serial(self):
        dataset = build_dataset(
            open_room_testbed(), num_positions=4, seed=5
        )
        serial = evaluate(BlocLocalizer(), dataset, label="serial")
        parallel_localizer = BlocLocalizer()
        parallel = evaluate(
            parallel_localizer, dataset, label="parallel", workers=4
        )
        assert [r.error_m for r in serial.records] == [
            r.error_m for r in parallel.records
        ]
        # One geometry across the whole sweep: a single build, shared by
        # every worker thread.
        assert parallel_localizer.engine.misses == 1
        assert parallel_localizer.engine.hits == len(dataset) - 1
