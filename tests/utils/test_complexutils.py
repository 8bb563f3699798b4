"""Tests for repro.utils.complexutils: phases and circular statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.complexutils import (
    circular_mean,
    combine_amplitude_phase,
    normalize_peak,
    wrap_phase,
)

angles = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestWrap:
    def test_wrap_inside_range_unchanged(self):
        assert wrap_phase(1.0) == pytest.approx(1.0)

    def test_wrap_large_angle(self):
        assert wrap_phase(2 * np.pi + 0.3) == pytest.approx(0.3)

    def test_wrap_negative(self):
        assert wrap_phase(-2 * np.pi - 0.3) == pytest.approx(-0.3)

    @given(angles)
    @settings(max_examples=60)
    def test_wrap_range(self, phi):
        wrapped = float(wrap_phase(phi))
        assert -np.pi - 1e-9 <= wrapped <= np.pi + 1e-9

    @given(angles)
    @settings(max_examples=60)
    def test_wrap_preserves_phasor(self, phi):
        assert np.exp(1j * float(wrap_phase(phi))) == pytest.approx(
            np.exp(1j * phi), abs=1e-9
        )

    def test_unwrap_recovers_line(self):
        true = np.linspace(0, 20, 50)
        recovered = np.unwrap(wrap_phase(true))
        assert np.allclose(recovered, true, atol=1e-9)


class TestCircularMean:
    def test_simple_average(self):
        assert circular_mean(np.array([0.1, 0.3])) == pytest.approx(0.2)

    def test_wraparound_average(self):
        phases = np.radians([179.0, -179.0])
        mean = np.degrees(circular_mean(phases))
        assert abs(abs(mean) - 180.0) < 1e-6

    def test_axis(self):
        phases = np.array([[0.0, 0.2], [0.0, 0.4]])
        means = circular_mean(phases, axis=0)
        assert means[1] == pytest.approx(0.3)


class TestNormalizePeak:
    def test_peak_becomes_one(self):
        out = normalize_peak(np.array([1.0, 4.0, 2.0]))
        assert out.max() == pytest.approx(1.0)
        assert out[0] == pytest.approx(0.25)

    def test_all_zero_unchanged(self):
        out = normalize_peak(np.zeros(5))
        assert np.all(out == 0)

    def test_empty(self):
        assert normalize_peak(np.array([])).size == 0


class TestPhasors:

    def test_combine_amplitude_phase(self):
        h = combine_amplitude_phase(2.0, np.pi / 2)
        assert abs(h) == pytest.approx(2.0)
        assert np.angle(h) == pytest.approx(np.pi / 2)
