"""Propagation paths: the geometric rays the channel model sums over.

A path is fully described by its length, its complex gain (everything that
multiplies the ``e^{-j 2 pi f d / c}`` phasor: spreading loss, reflection
coefficients, obstruction losses) and bookkeeping about how it was formed.
The channel at frequency ``f`` is then Eq. 2 of the paper:

    h(f) = sum_paths gain_p * exp(-j 2 pi f d_p / c)

where ``gain_p`` already includes the ``A_p / d_p`` spreading factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.utils.geometry2d import Point


class PathKind:
    """Classification of how a propagation path was formed."""

    DIRECT = "direct"
    SPECULAR = "specular"
    SCATTER = "scatter"


@dataclass(frozen=True)
class PropagationPath:
    """One ray from a transmitter to a receiver.

    Attributes:
        length_m: total travelled distance.
        gain: complex amplitude (includes spreading and reflection losses).
        kind: one of :class:`PathKind`.
        bounce_point: reflection/scatter point, if any.
        reflector_name: face the path bounced off, if any.
    """

    length_m: float
    gain: complex
    kind: str = PathKind.DIRECT
    bounce_point: Optional[Point] = None
    reflector_name: str = ""

    def phasor(self, frequency_hz) -> np.ndarray:
        """Complex channel contribution of this path at the frequencies."""
        f = np.asarray(frequency_hz, dtype=float)
        return self.gain * np.exp(
            -2j * np.pi * f * self.length_m / SPEED_OF_LIGHT
        )


def paths_to_channel(
    paths: Sequence[PropagationPath], frequency_hz
) -> np.ndarray:
    """Sum path phasors into a channel value per frequency (Eq. 2).

    Args:
        paths: the rays between one tx/rx pair.
        frequency_hz: scalar or array of frequencies.

    Returns:
        Complex channel, with the same shape as ``frequency_hz``.
    """
    f = np.atleast_1d(np.asarray(frequency_hz, dtype=float))
    if not paths:
        return np.zeros(f.shape, dtype=complex) if f.size > 1 else np.zeros(
            (), dtype=complex
        )
    lengths = np.array([p.length_m for p in paths])
    gains = np.array([p.gain for p in paths], dtype=complex)
    phases = -2j * np.pi * np.outer(f, lengths) / SPEED_OF_LIGHT
    h = (gains[None, :] * np.exp(phases)).sum(axis=1)
    if np.isscalar(frequency_hz) or np.asarray(frequency_hz).ndim == 0:
        return h[0]
    return h
