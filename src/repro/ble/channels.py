"""BLE channel map: indices, centre frequencies, and channel roles.

BLE divides the 2.4 GHz ISM band into 40 channels of 2 MHz (paper Fig. 1a).
Three of them (37, 38, 39) are advertising channels interleaved with the 37
data channels in frequency:

    index 37 -> 2402 MHz          (advertising)
    data 0..10 -> 2404..2424 MHz
    index 38 -> 2426 MHz          (advertising)
    data 11..36 -> 2428..2478 MHz
    index 39 -> 2480 MHz          (advertising)

Terminology used throughout this library:

* *channel index* -- the spec's 0..39 numbering above.
* *data channel*  -- index 0..36, the hopping channels BLoc stitches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.constants import (
    BLE_BAND_END_HZ,
    BLE_BAND_START_HZ,
    BLE_CHANNEL_38_FREQ_HZ,
    BLE_CHANNEL_WIDTH_HZ,
    BLE_DATA_HIGH_BASE_HZ,
    BLE_DATA_LOW_BASE_HZ,
    BLE_NUM_CHANNELS,
    BLE_NUM_DATA_CHANNELS,
)
from repro.errors import ProtocolError


def data_channel_to_frequency(data_channel: int) -> float:
    """Centre frequency [Hz] of data channel ``0..36``.

    Raises:
        ProtocolError: for indices outside the data-channel range.
    """
    if not 0 <= data_channel < BLE_NUM_DATA_CHANNELS:
        raise ProtocolError(
            f"data channel must be 0..36, got {data_channel}"
        )
    if data_channel <= 10:
        return BLE_DATA_LOW_BASE_HZ + BLE_CHANNEL_WIDTH_HZ * data_channel
    return BLE_DATA_HIGH_BASE_HZ + BLE_CHANNEL_WIDTH_HZ * (data_channel - 11)


def channel_index_to_frequency(channel_index: int) -> float:
    """Centre frequency [Hz] of any channel index ``0..39``."""
    if not 0 <= channel_index < BLE_NUM_CHANNELS:
        raise ProtocolError(
            f"channel index must be 0..39, got {channel_index}"
        )
    if channel_index == 37:
        return BLE_BAND_START_HZ
    if channel_index == 38:
        return BLE_CHANNEL_38_FREQ_HZ
    if channel_index == 39:
        return BLE_BAND_END_HZ
    return data_channel_to_frequency(channel_index)


@dataclass(frozen=True)
class ChannelMap:
    """The set of data channels a connection may use.

    BLE lets a master blacklist channels that suffer Wi-Fi interference
    (paper Section 8.6); the remaining "used" channels must number >= 2.

    Attributes:
        used: sorted tuple of usable data-channel indices.
    """

    used: tuple

    def __post_init__(self):
        channels = tuple(sorted(set(int(c) for c in self.used)))
        if len(channels) < 2:
            raise ProtocolError("a channel map needs at least 2 channels")
        for channel in channels:
            if not 0 <= channel < BLE_NUM_DATA_CHANNELS:
                raise ProtocolError(
                    f"channel map entry out of range: {channel}"
                )
        object.__setattr__(self, "used", channels)

    @property
    def num_used(self) -> int:
        """Number of usable channels."""
        return len(self.used)

    def contains(self, data_channel: int) -> bool:
        """Whether ``data_channel`` is usable under this map."""
        return data_channel in self.used

    def remap(self, unmapped_channel: int) -> int:
        """Spec remapping: replace an unused channel by ``used[ch mod N]``.

        This is how Channel Selection Algorithm #1 handles blacklisted
        channels (Core spec Vol 6 Part B 4.5.8.2).
        """
        if self.contains(unmapped_channel):
            return unmapped_channel
        return self.used[unmapped_channel % self.num_used]

    def frequencies(self) -> List[float]:
        """Centre frequencies [Hz] of the usable channels."""
        return [data_channel_to_frequency(ch) for ch in self.used]

    @staticmethod
    def all_channels() -> "ChannelMap":
        """Map with every data channel usable (the common case)."""
        return ChannelMap(tuple(range(BLE_NUM_DATA_CHANNELS)))

    @staticmethod
    def subsampled(factor: int) -> "ChannelMap":
        """Every ``factor``-th data channel, for the Fig. 11 experiment."""
        if factor < 1:
            raise ProtocolError("subsample factor must be >= 1")
        return ChannelMap(tuple(range(0, BLE_NUM_DATA_CHANNELS, factor)))

    @staticmethod
    def from_blacklist(blacklisted: Sequence[int]) -> "ChannelMap":
        """Map excluding the given data channels."""
        excluded = set(int(c) for c in blacklisted)
        used = tuple(
            ch for ch in range(BLE_NUM_DATA_CHANNELS) if ch not in excluded
        )
        return ChannelMap(used)
