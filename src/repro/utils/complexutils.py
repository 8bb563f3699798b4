"""Helpers for complex-valued channel math: phases and averaging.

The paper manipulates complex wireless channels ``h = |h| e^{j phase}``
throughout Section 5; these helpers keep that manipulation readable.
"""

from __future__ import annotations

import numpy as np


def wrap_phase(phase_rad: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    phase = np.asarray(phase_rad, dtype=float)
    return np.angle(np.exp(1j * phase))


def circular_mean(phase_rad: np.ndarray, axis=None) -> np.ndarray:
    """Circular mean of phases, immune to 2-pi wrapping.

    Used when the paper averages "the channel phase" of the bit-0 and bit-1
    CSI samples of one band (Section 5 preamble): a naive arithmetic mean of
    +179 and -179 degrees would give 0 instead of 180.
    """
    phase = np.asarray(phase_rad, dtype=float)
    return np.angle(np.mean(np.exp(1j * phase), axis=axis))


def combine_amplitude_phase(amplitude, phase_rad) -> np.ndarray:
    """Build a complex channel from separately averaged amplitude and phase."""
    return np.asarray(amplitude, dtype=float) * np.exp(
        1j * np.asarray(phase_rad, dtype=float)
    )


def normalize_peak(values: np.ndarray) -> np.ndarray:
    """Scale a non-negative map so its maximum is 1 (no-op for all-zero)."""
    arr = np.asarray(values, dtype=float)
    peak = arr.max() if arr.size else 0.0
    if peak <= 0.0:
        return arr.copy()
    return arr / peak
