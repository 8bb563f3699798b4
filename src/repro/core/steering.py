"""The 1-D angle spectrum (Eq. 3/15) and the resolution formulas.

Steering a linear array over candidate angles is the building block the
paper introduces before the joint 2-D map.  The AoA baseline steers
through :func:`angle_steering` / :func:`steered_spectrum` with the
steering tensor cached.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError


def angle_steering(
    num_antennas: int,
    spacing_m: float,
    frequencies_hz: np.ndarray,
    angles_rad: np.ndarray,
) -> np.ndarray:
    """ULA steering exponentials of Eq. 3, shape ``(K, J, A)``.

    Depends only on the array (element count and spacing), the band
    plan and the candidate angles -- never on the channels -- so a
    caller that steers many fixes through one geometry builds it once
    (see :class:`~repro.baselines.aoa.AoaLocalizer`).

    Steering phase: undo the per-element phase the geometry imprinted.
    In this library's convention element index grows towards the +array
    axis and theta is measured towards that same axis, so element j is
    *closer* to a +theta source and carries phase
    +2*pi*j*l*sin(theta)/lambda; the steering conjugates it.  (The
    paper's Eq. 3 writes the opposite sign because its Fig. 2 indexes
    elements away from the target -- same physics, reversed element
    order.)  One broadcast covers every band: the per-band phase is the
    element/angle geometry scaled by that band's frequency.
    """
    j = np.arange(num_antennas)
    geometry = (
        -2.0 * np.pi * spacing_m * np.outer(j, np.sin(angles_rad))
    )  # (J, A)
    cycles_per_m = np.asarray(frequencies_hz, dtype=float) / SPEED_OF_LIGHT
    phases = cycles_per_m[:, None, None] * geometry[None, :, :]
    return np.exp(1j * phases)


def steered_spectrum(channels: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Eq. 3 over a prebuilt :func:`angle_steering` tensor.

    Coherent sum over antennas per band, non-coherent over bands (the
    paper's Eq. 15 applies per frequency); normalised to peak 1.

    Args:
        channels: per-antenna, per-band channels, shape ``(J, K)``.
        steering: the ``(K, J, A)`` steering exponentials.
    """
    spectrum = np.abs(np.einsum("jk,kja->ka", channels, steering)).sum(
        axis=0
    )
    peak = spectrum.max()
    if peak > 0:
        spectrum = spectrum / peak
    return spectrum


def range_resolution_m(bandwidth_hz: float) -> float:
    """Smallest resolvable path separation, Eq. 6: ``c / BW``."""
    if bandwidth_hz <= 0:
        raise ConfigurationError("bandwidth must be > 0")
    return SPEED_OF_LIGHT / bandwidth_hz


def aliasing_distance_m(frequency_gap_hz: float) -> float:
    """Unambiguous range of a band stack with gaps (Section 8.6):
    ``c / gap``."""
    if frequency_gap_hz <= 0:
        raise ConfigurationError("frequency gap must be > 0")
    return SPEED_OF_LIGHT / frequency_gap_hz
