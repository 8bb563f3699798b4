"""Tests for repro.core.parallel: shared-memory steering publication."""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.core import build_steering_entry, correct_phase_offsets
from repro.core.parallel import (
    active_segments,
    attach_steering,
    publish_steering_entry,
)
from repro.errors import ConfigurationError
from repro.sim import ChannelMeasurementModel
from repro.sim.testbed import open_room_testbed
from repro.utils.geometry2d import Point
from repro.utils.gridmap import Grid2D


@pytest.fixture(scope="module")
def corrected():
    model = ChannelMeasurementModel(testbed=open_room_testbed(), seed=7)
    return correct_phase_offsets(model.measure(Point(0.4, -0.3)))


@pytest.fixture(scope="module")
def grid():
    return Grid2D(-2.0, 2.0, -1.5, 1.5, 0.25)


@pytest.fixture(scope="module")
def entry(corrected, grid):
    return build_steering_entry(
        grid,
        corrected.anchors,
        corrected.master_index,
        corrected.anchor_baselines_m,
        corrected.frequencies_hz,
    )


def _shm_names():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _entry_arrays(entry):
    arrays = [entry.samples]
    for gather in entry.gathers:
        arrays += [gather.data, gather.indices, gather.indptr]
    return arrays


class TestPublishAttach:
    def test_round_trip_is_bit_exact(self, entry, corrected):
        owner = publish_steering_entry(entry, "key")
        try:
            attached = attach_steering(owner.handle)
            clone = attached.entry
            assert np.array_equal(
                clone.frequencies_hz, entry.frequencies_hz
            )
            assert clone.sample_step_m == entry.sample_step_m
            assert len(clone.gathers) == len(entry.gathers)
            for ours, theirs in zip(
                _entry_arrays(clone), _entry_arrays(entry)
            ):
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs)
            for ours, theirs in zip(clone.gathers, entry.gathers):
                assert ours.shape == theirs.shape
            assert clone.grid.shape == entry.grid.shape
            assert clone.nbytes == entry.nbytes
            alpha = np.stack([corrected.alpha, 2j * corrected.alpha])
            assert np.array_equal(
                clone.likelihoods(alpha), entry.likelihoods(alpha)
            )
            attached.close()
        finally:
            owner.close()

    def test_attached_views_are_read_only(self, entry):
        owner = publish_steering_entry(entry, "key")
        try:
            attached = attach_steering(owner.handle)
            for array in _entry_arrays(attached.entry):
                with pytest.raises(ValueError):
                    array[0] = 0
            attached.close()
        finally:
            owner.close()

    def test_handle_carries_shape_facts(self, entry, grid, corrected):
        owner = publish_steering_entry(entry, "key")
        try:
            handle = owner.handle
            assert handle.cache_key == "key"
            assert handle.layout[0] == (entry.samples.shape, "<c16")
            # First gather's CSR data: two taps per antenna per point.
            nnz = 2 * corrected.num_antennas * grid.size
            assert handle.layout[1] == ((nnz,), "<c16")
            assert len(handle.layout) == 1 + 3 * corrected.num_anchors
            assert handle.gather_shape == entry.gathers[0].shape
            assert handle.nbytes >= entry.nbytes
        finally:
            owner.close()


class TestLifecycle:
    def test_refcounted_unlink(self, entry):
        owner = publish_steering_entry(entry, "key")
        name = owner.handle.name
        assert name in active_segments()
        owner.retain()
        owner.close()  # one reference left: still attachable
        attach_steering(owner.handle).close()
        owner.close()  # last reference: unlinks
        assert name not in active_segments()
        with pytest.raises(ConfigurationError):
            attach_steering(owner.handle)

    def test_close_is_idempotent(self, entry):
        owner = publish_steering_entry(entry, "key")
        owner.close()
        owner.close()
        with pytest.raises(ConfigurationError):
            owner.retain()

    def test_attachment_survives_owner_unlink(self, entry, corrected):
        # POSIX shm semantics: unlink removes the name, the pages live
        # until the last mapping drops.  An attached reader must keep
        # working after the owner is gone.
        owner = publish_steering_entry(entry, "key")
        attached = attach_steering(owner.handle)
        owner.close()
        alpha = corrected.alpha[None]
        assert np.array_equal(
            attached.entry.likelihoods(alpha), entry.likelihoods(alpha)
        )
        attached.close()

    def test_entry_keeps_mapping_alive_without_attachment_ref(self, entry):
        # The regression behind the worker segfault: numpy views over
        # shm.buf do not pin the mapping, so the entry itself must.
        owner = publish_steering_entry(entry, "key")
        try:
            clone = attach_steering(owner.handle).entry
            gc.collect()  # drops the AttachedSteering wrapper
            assert np.array_equal(
                clone.gathers[-1].data, entry.gathers[-1].data
            )
        finally:
            owner.close()

    def test_no_segments_leak(self, entry):
        before = _shm_names()
        owner = publish_steering_entry(entry, "key")
        attached = attach_steering(owner.handle)
        attached.close()
        owner.close()
        assert active_segments() == ()
        assert _shm_names() <= before
