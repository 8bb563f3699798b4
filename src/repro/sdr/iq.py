"""IQ capture containers for the software-radio layer.

A capture is what one anchor records for one packet: a block of complex
baseband samples per antenna, tagged with the channel it was tuned to.
All antennas of an anchor share one clock (paper Section 7), so a single
sample index aligns across antennas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class IqCapture:
    """Complex baseband samples recorded by one multi-antenna receiver.

    Attributes:
        samples: array of shape ``(num_antennas, num_samples)``.
        sample_rate: [Hz].
        channel_index: BLE channel the radio was tuned to.
        carrier_frequency_hz: RF centre frequency of the capture.
        source: label of the transmitter ("tag", "master", ...).
        start_sample_offset: index of the first packet sample within the
            capture, if known (simulator ground truth; receivers must find
            it themselves via correlation).
    """

    samples: np.ndarray
    sample_rate: float
    channel_index: int
    carrier_frequency_hz: float
    source: str = ""
    start_sample_offset: Optional[int] = None

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=complex))
        if self.sample_rate <= 0:
            raise ConfigurationError("sample rate must be > 0")

    @property
    def num_antennas(self) -> int:
        """Number of receive antennas in the capture."""
        return int(self.samples.shape[0])

    @property
    def num_samples(self) -> int:
        """Samples per antenna."""
        return int(self.samples.shape[1])

    @property
    def duration_s(self) -> float:
        """Capture duration."""
        return self.num_samples / self.sample_rate

    def antenna(self, index: int) -> np.ndarray:
        """Samples of one antenna."""
        if not 0 <= index < self.num_antennas:
            raise ConfigurationError(
                f"antenna index {index} out of range [0, {self.num_antennas})"
            )
        return self.samples[index]

    def sliced(self, start: int, stop: int) -> "IqCapture":
        """A view-like capture restricted to a sample range."""
        if not 0 <= start <= stop <= self.num_samples:
            raise ConfigurationError(
                f"slice [{start}, {stop}) out of range for "
                f"{self.num_samples} samples"
            )
        offset = None
        if self.start_sample_offset is not None:
            offset = self.start_sample_offset - start
        return IqCapture(
            samples=self.samples[:, start:stop],
            sample_rate=self.sample_rate,
            channel_index=self.channel_index,
            carrier_frequency_hz=self.carrier_frequency_hz,
            source=self.source,
            start_sample_offset=offset,
        )
