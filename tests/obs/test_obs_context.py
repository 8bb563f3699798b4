"""Tests for repro.obs.context: observer switching and the no-op path.

The headline guarantee is at the bottom: ``BlocLocalizer.locate`` output
is bit-identical with observability enabled vs disabled, because the
instrumentation only ever *reads* pipeline state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlocLocalizer
from repro.obs import (
    Observability,
    STANDARD_METRICS,
    get_observer,
    install,
    observed,
)


class TestSwitchboard:
    def test_default_observer_is_disabled(self):
        assert get_observer().enabled is False

    def test_install_and_restore(self):
        live = Observability(enabled=True)
        previous = install(live)
        try:
            assert get_observer() is live
        finally:
            install(previous)
        assert get_observer().enabled is False

    def test_observed_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with observed():
                assert get_observer().enabled is True
                raise RuntimeError
        assert get_observer().enabled is False

    def test_observed_preregisters_standard_metrics(self):
        with observed() as obs:
            for name in STANDARD_METRICS:
                assert name in obs.metrics

    def test_disabled_span_is_noop(self):
        disabled = Observability(enabled=False)
        cm = disabled.span("anything")
        with cm as span:
            assert span is None
        # The no-op context is shared and reusable.
        assert disabled.span("other") is cm
        assert len(disabled.tracer) == 0


class TestNoopBitIdentical:
    def test_locate_identical_with_observability_on_vs_off(
        self, observations
    ):
        localizer = BlocLocalizer()
        baseline = localizer.locate(observations)
        with observed():
            traced_result = localizer.locate(observations)
        again = localizer.locate(observations)

        for other in (traced_result, again):
            assert other.position.x == baseline.position.x
            assert other.position.y == baseline.position.y
            assert len(other.scored_peaks) == len(baseline.scored_peaks)
            for a, b in zip(other.scored_peaks, baseline.scored_peaks):
                assert a.score == b.score
                assert a.entropy == b.entropy
                assert a.distance_sum_m == b.distance_sum_m
                assert a.peak.position.x == b.peak.position.x
                assert a.peak.position.y == b.peak.position.y
            assert np.array_equal(
                other.likelihood.combined, baseline.likelihood.combined
            )

    def test_observed_locate_records_all_stage_spans(self, observations):
        with observed() as obs:
            BlocLocalizer().locate(observations)
        names = {s.name for s in obs.tracer.finished()}
        assert {
            "correct",
            "map_likelihood",
            "pick_peak",
            "find_peaks",
            "score_peaks",
            "refine",
        } <= names

    def test_observed_locate_records_pipeline_metrics(self, observations):
        with observed() as obs:
            BlocLocalizer().locate(observations)
        metrics = obs.metrics
        assert metrics.get("correction.hops_total").value == 37
        assert metrics.get("correction.hop_coverage").value == 1.0
        assert metrics.get("correction.residual_phase_rad").count == 37
        assert metrics.get("peaks.candidates").count == 1
        assert metrics.get("peaks.score_margin").count == 1
