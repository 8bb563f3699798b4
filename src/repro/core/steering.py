"""1-D likelihood spectra: angle (Eq. 3/15) and relative distance (Eq. 4/16).

These are the building blocks the paper introduces before the joint 2-D
map: steering a linear array over candidate angles and steering the band
stack over candidate (relative) distances.  The AoA baseline steers
through :func:`angle_steering` / :func:`steered_spectrum` with the
steering tensor cached; the microbenchmarks (Fig. 6a/6b) plot both.
"""

from __future__ import annotations

from typing import Optional

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


def angle_spectrum(
    channels: np.ndarray,
    spacing_m: float,
    frequency_hz: float,
    angles_rad: Optional[np.ndarray] = None,
) -> tuple:
    """Angle-of-arrival likelihood ``Pa(theta)`` for one antenna array.

    Implements Eq. 3 of the paper: coherently combine per-antenna channels
    against the ULA steering vector for each candidate angle.

    Args:
        channels: per-antenna channels, shape ``(J,)`` or ``(J, K)``; with
            multiple bands the per-band spectra are combined
            non-coherently (summed magnitudes), since the paper's Eq. 15
            applies per frequency.
        spacing_m: element separation ``l``.
        frequency_hz: scalar carrier, or shape ``(K,)`` matching bands.
        angles_rad: candidate angles (defaults to 181 points over
            [-pi/2, pi/2]).

    Returns:
        ``(angles_rad, spectrum)`` with spectrum normalised to peak 1.
    """
    h = np.asarray(channels, dtype=complex)
    if h.ndim == 0 or h.ndim == 1:
        h = np.atleast_1d(h).reshape(-1, 1)
    elif h.ndim != 2:
        raise ConfigurationError(
            f"channels must be (J,) or (J, K), got {h.ndim}-D "
            f"shape {h.shape}"
        )
    num_antennas, num_bands = h.shape
    freqs = np.broadcast_to(
        np.atleast_1d(np.asarray(frequency_hz, dtype=float)), (num_bands,)
    )
    if angles_rad is None:
        angles_rad = np.linspace(-np.pi / 2.0, np.pi / 2.0, 181)
    steering = angle_steering(num_antennas, spacing_m, freqs, angles_rad)
    return np.asarray(angles_rad), steered_spectrum(h, steering)


def distance_spectrum(
    channels: np.ndarray,
    frequencies_hz: np.ndarray,
    distances_m: Optional[np.ndarray] = None,
) -> tuple:
    """Relative-distance likelihood ``Pt(d)`` for one antenna (Eq. 4/16).

    Args:
        channels: per-band channels of one antenna, shape ``(K,)``.  For
            corrected channels these encode *relative* distance
            ``d_ij - d_00 - baseline`` and the spectrum peaks there.
        frequencies_hz: band centre frequencies, shape ``(K,)``.
        distances_m: candidate (relative) distances; defaults to
            [-15 m, +15 m] at 5 cm steps, generous for indoor spans.

    Returns:
        ``(distances_m, spectrum)`` with spectrum normalised to peak 1.
    """
    h = np.asarray(channels, dtype=complex).ravel()
    freqs = np.asarray(frequencies_hz, dtype=float).ravel()
    if h.size != freqs.size:
        raise ConfigurationError(
            f"{h.size} channels but {freqs.size} frequencies"
        )
    if distances_m is None:
        distances_m = np.arange(-15.0, 15.0 + 1e-9, 0.05)
    phases = (
        2.0 * np.pi * np.outer(freqs, distances_m) / SPEED_OF_LIGHT
    )
    spectrum = np.abs(np.sum(h[:, None] * np.exp(1j * phases), axis=0))
    peak = spectrum.max()
    if peak > 0:
        spectrum = spectrum / peak
    return np.asarray(distances_m), spectrum


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
