"""Tests for repro.obs.diag: fix diagnostics, bundles, replay."""

from __future__ import annotations

import hashlib
import json
import zipfile

import numpy as np
import pytest

from repro import (
    BlocConfig,
    BlocLocalizer,
    ChannelMeasurementModel,
    Point,
    vicon_testbed,
)
from repro.errors import ConfigurationError, LocalizationError
from repro.obs.diag import (
    FIX_STAGES,
    FixDiagnostics,
    bundle_filename,
    bundle_from_fix,
    load_fix_bundle,
    render_bundle,
    save_fix_bundle,
)
from repro.sim import inject_band_outage


@pytest.fixture(scope="module")
def observations():
    model = ChannelMeasurementModel(testbed=vicon_testbed(), seed=3)
    return model.measure(Point(0.6, 0.3))


@pytest.fixture(scope="module")
def localizer():
    # Coarse grid keeps the module-scoped fixtures fast.
    return BlocLocalizer(config=BlocConfig(grid_resolution_m=0.15))


@pytest.fixture(scope="module")
def located(observations, localizer):
    return localizer.locate(observations, diagnostics=True)


@pytest.fixture(scope="module")
def bundle(observations, localizer, located):
    return bundle_from_fix(
        observations,
        localizer,
        label="BLoc test",
        fix_index=7,
        estimate=located.position,
        error_m=located.error_m(observations.ground_truth),
        diagnostics=located.diagnostics,
    )


class TestFixDiagnostics:
    def test_all_stages_filled_on_success(self, located):
        diag = located.diagnostics
        assert isinstance(diag, FixDiagnostics)
        assert diag.stage_reached == FIX_STAGES[-1] == "located"
        assert diag.band_quality is not None
        assert diag.correction is not None
        assert diag.likelihood_map is not None
        assert diag.scores is not None
        assert diag.estimate_xy == (
            float(located.position.x),
            float(located.position.y),
        )

    def test_band_quality_shapes(self, located, observations):
        bq = located.diagnostics.band_quality
        shape = (observations.num_anchors, observations.num_bands)
        assert bq.snr_db.shape == shape
        assert bq.amplitude_db.shape == shape
        assert bq.missing.shape == shape
        assert bq.flatness_db.shape == (observations.num_anchors,)
        assert np.all(bq.coverage() >= 0) and np.all(bq.coverage() <= 1)

    def test_score_breakdown_reconstructs_eq18(self, located):
        scores = located.diagnostics.scores
        assert scores.num_candidates >= 1
        # Eq. 18: s = p * exp(b*H) * exp(-a * sum d)
        np.testing.assert_allclose(
            scores.score,
            scores.likelihood * scores.entropy_term * scores.path_term,
            rtol=1e-9,
        )
        # The chosen candidate (index 0) wins under the score strategy.
        assert scores.score[0] == pytest.approx(scores.score.max())
        assert 0.0 <= scores.margin <= 1.0

    def test_disabled_by_default(self, observations, localizer):
        assert localizer.locate(observations).diagnostics is None

    def test_failure_attaches_partial_diagnostics(self, observations):
        # Degenerate peak config: nothing survives, scoring never runs.
        strict = BlocLocalizer(
            config=BlocConfig(grid_resolution_m=0.15, refine_peaks=False)
        )
        object.__setattr__(strict.config.peak, "min_relative_value", 1.1)
        with pytest.raises(LocalizationError) as excinfo:
            strict.locate(observations, diagnostics=True)
        diag = excinfo.value.diagnostics
        assert isinstance(diag, FixDiagnostics)
        assert diag.stage_reached in FIX_STAGES
        assert diag.stage_reached != "located"
        assert diag.band_quality is not None


class TestBundleRoundTrip:
    def test_save_load_save_is_byte_stable(self, bundle, tmp_path):
        first = tmp_path / "a.npz"
        second = tmp_path / "b.npz"
        save_fix_bundle(first, bundle)
        save_fix_bundle(second, load_fix_bundle(first))
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest(first) == digest(second)

    def test_repeated_save_identical(self, bundle, tmp_path):
        paths = [tmp_path / "x.npz", tmp_path / "y.npz"]
        blobs = {save_fix_bundle(p, bundle).read_bytes() for p in paths}
        assert len(blobs) == 1

    def test_round_trip_preserves_payload(self, bundle, tmp_path):
        path = save_fix_bundle(tmp_path / "fix.npz", bundle)
        loaded = load_fix_bundle(path)
        assert loaded.label == bundle.label
        assert loaded.fix_index == bundle.fix_index
        assert loaded.estimate_xy == bundle.estimate_xy
        assert loaded.error_m == bundle.error_m
        assert loaded.config == bundle.config
        np.testing.assert_array_equal(
            loaded.tag_to_anchor, bundle.tag_to_anchor
        )
        np.testing.assert_array_equal(
            loaded.frequencies_hz, bundle.frequencies_hz
        )
        diag = loaded.diagnostics
        assert diag.stage_reached == bundle.diagnostics.stage_reached
        np.testing.assert_array_equal(
            diag.band_quality.missing, bundle.diagnostics.band_quality.missing
        )

    def test_replay_is_bit_exact(self, bundle, tmp_path, located):
        loaded = load_fix_bundle(save_fix_bundle(tmp_path / "fix.npz", bundle))
        replayed = loaded.replay()
        assert float(replayed.position.x) == float(located.position.x)
        assert float(replayed.position.y) == float(located.position.y)

    def test_legacy_engine_used_key_is_ignored(
        self, bundle, tmp_path, located
    ):
        # Bundles written while the direct Eq. 17 path was selectable
        # carry an "engine_used" meta key; they still load and replay.
        path = save_fix_bundle(tmp_path / "fix.npz", bundle)
        legacy = tmp_path / "legacy.npz"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(
            legacy, "w", zipfile.ZIP_DEFLATED
        ) as dst:
            for info in src.infolist():
                data = src.read(info)
                if info.filename == "meta.json":
                    meta = json.loads(data)
                    meta["engine_used"] = True
                    data = json.dumps(meta).encode("utf-8")
                dst.writestr(info, data)
        replayed = load_fix_bundle(legacy).replay()
        assert float(replayed.position.x) == float(located.position.x)
        assert float(replayed.position.y) == float(located.position.y)

    def test_load_rejects_non_zip(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(ConfigurationError):
            load_fix_bundle(path)

    def test_load_rejects_foreign_zip(self, tmp_path):
        path = tmp_path / "foreign.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("something.txt", "hello")
        with pytest.raises(ConfigurationError):
            load_fix_bundle(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises((ConfigurationError, OSError)):
            load_fix_bundle(tmp_path / "absent.npz")


class TestBundleFilename:
    def test_sanitizes_label(self):
        assert bundle_filename("BLoc run #2", 4) == "BLoc-run-2-00004.npz"

    def test_empty_label_falls_back(self):
        assert bundle_filename("///", 0) == "fix-00000.npz"


class TestRendering:
    def test_render_bundle_mentions_anchors_and_score(self, bundle):
        text = render_bundle(bundle)
        for anchor in bundle.anchors:
            assert anchor["name"] in text
        assert "score" in text.lower()

    def test_render_explain_reports_bit_exact(self, bundle):
        text = render_bundle(bundle, explain=True)
        assert "bit-exact match with recorded estimate" in text

    def test_render_bands_lists_every_band(self, bundle):
        text = render_bundle(bundle, bands=True)
        assert str(bundle.frequencies_hz.size - 1) in text


class TestBandOutageDiagnostics:
    def test_outage_visible_in_band_quality(self, observations, localizer):
        bands = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
        broken = inject_band_outage(observations, 1, bands)
        diag = localizer.locate(broken, diagnostics=True).diagnostics
        missing = diag.band_quality.missing
        assert missing[1, bands].all()
        healthy = [i for i in range(missing.shape[0]) if i != 1]
        assert not missing[healthy][:, bands].any()
