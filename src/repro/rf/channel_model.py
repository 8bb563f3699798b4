"""Channel synthesis: geometry in, complex channels out (paper Eq. 2).

:class:`ChannelSimulator` is the bridge between the ray tracer and
everything downstream.  Given an :class:`~repro.rf.environment.Environment`
it produces the *true physical* channel ``h`` between any two points at any
set of frequencies -- no oscillator offsets, no noise; those are applied by
the measurement layer (:mod:`repro.sim.measurement`) and the radio front
end (:mod:`repro.sdr.frontend`), which own the imperfections.

Paths depend only on geometry, so they are memoised per (tx, rx) pair;
sweeping 40 BLE channels re-uses one trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rf.antenna import Anchor
from repro.rf.environment import Environment
from repro.rf.imaging import ImagingConfig, trace_paths
from repro.rf.paths import PropagationPath, paths_to_channel
from repro.utils.geometry2d import Point


def _key(p: Point) -> Tuple[float, float]:
    return (round(p.x, 9), round(p.y, 9))


@dataclass
class ChannelSimulator:
    """Synthesises physical channels over an environment.

    Attributes:
        environment: the room and its contents.
        imaging: ray-tracing configuration.
    """

    environment: Environment
    imaging: ImagingConfig = field(default_factory=ImagingConfig)
    _path_cache: Dict[tuple, List[PropagationPath]] = field(
        init=False, default_factory=dict, repr=False
    )

    def paths(self, tx: Point, rx: Point) -> List[PropagationPath]:
        """Propagation paths from ``tx`` to ``rx`` (memoised).

        Reciprocity holds in this model (every mechanism is symmetric), so
        the cache is keyed on the unordered point pair.
        """
        key = tuple(sorted([_key(tx), _key(rx)]))
        cached = self._path_cache.get(key)
        if cached is None:
            cached = trace_paths(self.environment, tx, rx, self.imaging)
            self._path_cache[key] = cached
        return cached

    def channel(
        self, tx: Point, rx: Point, frequency_hz
    ) -> np.ndarray:
        """Physical channel between two points at given frequencies.

        Args:
            tx: transmitter position.
            rx: receiver position.
            frequency_hz: scalar or array of carrier frequencies.

        Returns:
            Complex channel with the shape of ``frequency_hz``.
        """
        return paths_to_channel(self.paths(tx, rx), frequency_hz)

    def channels_to_anchor(
        self, tx: Point, anchor: Anchor, frequencies_hz: Sequence[float]
    ) -> np.ndarray:
        """Channels from ``tx`` to every antenna of ``anchor``.

        Returns:
            Complex array of shape ``(num_antennas, num_frequencies)``.
        """
        freqs = np.asarray(list(frequencies_hz), dtype=float)
        out = np.empty((anchor.num_antennas, freqs.size), dtype=complex)
        for j, rx in enumerate(anchor.antenna_positions()):
            out[j] = np.atleast_1d(self.channel(tx, rx, freqs))
        return out

    def rssi_dbm(
        self,
        tx: Point,
        rx: Point,
        frequency_hz: float,
        tx_power_dbm: float = 0.0,
    ) -> float:
        """Received signal strength for the RSSI baseline.

        The multipath channel magnitude directly gives the fade: this is
        exactly the |h| quantity the paper's Section 2.2 critiques.
        """
        h = self.channel(tx, rx, frequency_hz)
        magnitude = abs(complex(h))
        if magnitude <= 0:
            return float("-inf")
        return tx_power_dbm + 20.0 * np.log10(magnitude)
