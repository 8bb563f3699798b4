"""Failure-injection tests: the pipeline must fail loudly, not wrongly.

A production localization system meets broken inputs: dead anchors,
all-zero channels, absurd SNR, packets lost in noise.  These tests pin
down the behaviour: clean errors from the library's exception hierarchy,
never NaN positions or silent garbage.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.ble.channels import ChannelMap
from repro.core import BlocConfig, BlocLocalizer
from repro.errors import (
    LocalizationError,
    MeasurementError,
    ReproError,
)
from repro.sim import ChannelMeasurementModel, IqMeasurementModel
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point


@pytest.fixture(scope="module")
def model():
    return ChannelMeasurementModel(testbed=open_room_testbed(), seed=17)


class TestDegenerateObservations:
    def test_all_zero_channels_raise_localization_error(self, model):
        observations = model.measure(Point(0.5, 0.5))
        broken = dataclasses.replace(
            observations,
            tag_to_anchor=np.zeros_like(observations.tag_to_anchor),
            master_to_anchor=np.zeros_like(observations.master_to_anchor),
        )
        with pytest.raises(LocalizationError):
            BlocLocalizer().locate(broken)

    def test_dead_slave_anchor_still_produces_fix(self, model):
        """One anchor reporting zeros must not crash the fix (its map is
        flat and contributes nothing); accuracy may degrade."""
        observations = model.measure(Point(0.5, 0.5))
        tag = observations.tag_to_anchor.copy()
        master = observations.master_to_anchor.copy()
        tag[2] = 0.0
        master[2] = 0.0
        broken = dataclasses.replace(
            observations, tag_to_anchor=tag, master_to_anchor=master
        )
        result = BlocLocalizer().locate(broken, keep_map=False)
        assert np.isfinite(result.position.x)
        assert np.isfinite(result.position.y)

    @pytest.mark.parametrize(
        "scale, kind",
        [(1e-110, "underflow"), (1e105, "overflow")],
        ids=["underflow", "overflow"],
    )
    def test_out_of_range_csi_raises_naming_the_anchor(
        self, testbed, scale, kind
    ):
        """Eq. 10's slave triple product is cubic in amplitude: at 1e-110
        it underflows to zero and the fix used to rest silently on the
        master alone (metres off); at 1e105 it overflows and the fix
        used to fail with a misleading no-peak error."""
        observations = ChannelMeasurementModel(
            testbed=testbed, seed=3
        ).measure(Point(0.5, 0.4))
        scaled = dataclasses.replace(
            observations,
            tag_to_anchor=observations.tag_to_anchor * scale,
            master_to_anchor=observations.master_to_anchor * scale,
        )
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            with pytest.raises(
                LocalizationError, match=rf"anchor 1 \(AP2\) {kind}"
            ):
                BlocLocalizer().locate(scaled, keep_map=False)

    def test_result_is_always_finite(self, model):
        """Even at hopeless SNR the position must be a finite point."""
        hopeless = ChannelMeasurementModel(
            testbed=model.testbed, seed=18, snr_db=-20.0
        )
        observations = hopeless.measure(Point(0.5, 0.5))
        try:
            result = BlocLocalizer().locate(observations, keep_map=False)
        except LocalizationError:
            return  # refusing is acceptable
        assert np.isfinite(result.position.x)
        assert np.isfinite(result.position.y)

    def test_position_inside_grid(self, model):
        observations = model.measure(Point(0.5, 0.5))
        localizer = BlocLocalizer(config=BlocConfig(grid_margin_m=0.5))
        result = localizer.locate(observations, keep_map=False)
        grid = localizer.grid_for(observations)
        assert grid.contains(result.position)


class TestIqPacketLoss:
    def test_hopeless_snr_raises_measurement_error(self):
        testbed = open_room_testbed()
        iq_model = IqMeasurementModel(
            testbed=testbed,
            seed=19,
            snr_db=-30.0,
            channel_map=ChannelMap((0, 18)),
        )
        with pytest.raises(MeasurementError):
            iq_model.measure(Point(0.5, 0.5))


class TestExceptionHierarchy:
    def test_every_library_error_is_reproerror(self):
        from repro import errors

        for name in (
            "ConfigurationError",
            "ProtocolError",
            "CrcError",
            "DemodulationError",
            "CsiExtractionError",
            "GeometryError",
            "MeasurementError",
            "LocalizationError",
        ):
            assert issubclass(getattr(errors, name), ReproError)

    def test_single_except_clause_catches_pipeline_errors(self, model):
        observations = model.measure(Point(0.5, 0.5))
        broken = dataclasses.replace(
            observations,
            tag_to_anchor=np.zeros_like(observations.tag_to_anchor),
            master_to_anchor=np.zeros_like(observations.master_to_anchor),
        )
        try:
            BlocLocalizer().locate(broken)
        except ReproError:
            pass  # the whole pipeline surfaces through one base class
        else:
            pytest.fail("expected a ReproError")
