"""Tests for repro.utils.rng: deterministic stream derivation."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import derive_rng, make_rng


class TestMakeRng:
    def test_from_int_is_deterministic(self):
        a = make_rng(42).integers(0, 1000, 10)
        b = make_rng(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        g = np.random.default_rng(1)
        assert make_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveRng:
    def test_same_labels_same_stream(self):
        a = derive_rng(7, "noise", 3).integers(0, 10**6, 5)
        b = derive_rng(7, "noise", 3).integers(0, 10**6, 5)
        assert np.array_equal(a, b)

    def test_different_labels_different_streams(self):
        a = derive_rng(7, "noise", 3).integers(0, 10**6, 5)
        b = derive_rng(7, "noise", 4).integers(0, 10**6, 5)
        assert not np.array_equal(a, b)

    def test_different_parent_different_streams(self):
        a = derive_rng(7, "x").integers(0, 10**6, 5)
        b = derive_rng(8, "x").integers(0, 10**6, 5)
        assert not np.array_equal(a, b)

    def test_string_and_int_labels_coexist(self):
        a = derive_rng(1, "anchor", 0)
        b = derive_rng(1, "anchor", "0")
        # These may or may not collide in principle; they must both work.
        assert isinstance(a, np.random.Generator)
        assert isinstance(b, np.random.Generator)
