"""Tests for repro.rf.paths: path phasors and channel synthesis (Eq. 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.rf.paths import (
    PathKind,
    PropagationPath,
    paths_to_channel,
)


def make_path(length, gain=1.0, kind=PathKind.DIRECT):
    return PropagationPath(length_m=length, gain=complex(gain), kind=kind)


class TestPhasor:
    def test_phase_matches_eq1(self):
        f = 2.44e9
        d = 3.0
        path = make_path(d, gain=1.0 / d)
        h = path.phasor(f)
        expected_phase = -2 * np.pi * f * d / SPEED_OF_LIGHT
        assert np.angle(h) == pytest.approx(
            np.angle(np.exp(1j * expected_phase))
        )
        assert abs(h) == pytest.approx(1.0 / 3.0)

    def test_vectorised_over_frequency(self):
        path = make_path(2.0)
        freqs = np.array([2.40e9, 2.44e9, 2.48e9])
        h = path.phasor(freqs)
        assert h.shape == (3,)


class TestChannelSynthesis:
    def test_single_path(self):
        path = make_path(1.5, gain=0.5)
        h = paths_to_channel([path], 2.44e9)
        assert complex(h) == pytest.approx(complex(path.phasor(2.44e9)))

    def test_superposition(self):
        p1, p2 = make_path(1.0, 0.7), make_path(2.5, 0.3)
        f = np.array([2.41e9, 2.47e9])
        combined = paths_to_channel([p1, p2], f)
        assert np.allclose(combined, p1.phasor(f) + p2.phasor(f))

    def test_destructive_interference(self):
        f = 2.4e9
        wavelength = SPEED_OF_LIGHT / f
        p1 = make_path(10 * wavelength, 1.0)
        p2 = make_path(10.5 * wavelength, 1.0)
        h = paths_to_channel([p1, p2], f)
        assert abs(complex(h)) < 1e-6

    def test_phase_slope_encodes_distance(self):
        """The Section 2.2 'Measuring Distances' principle."""
        d = 4.2
        path = make_path(d)
        delta_f = 1e6
        freqs = np.array([2.4e9, 2.4e9 + delta_f])
        h = paths_to_channel([path], freqs)
        phase_step = np.angle(h[1] * np.conj(h[0]))
        expected = -2 * np.pi * delta_f * d / SPEED_OF_LIGHT
        assert phase_step == pytest.approx(expected, abs=1e-9)

    def test_empty_paths(self):
        h = paths_to_channel([], np.array([2.4e9, 2.41e9]))
        assert np.all(h == 0)

    def test_scalar_in_scalar_out(self):
        h = paths_to_channel([make_path(1.0)], 2.4e9)
        assert np.ndim(h) == 0
