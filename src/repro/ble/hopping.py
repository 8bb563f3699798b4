"""Channel Selection Algorithm #1: the frequency-hop sequence of BLE.

After connection establishment, master and slave hop by ``hop_increment``
data channels per connection event:

    unmapped(n+1) = (unmapped(n) + hop_increment) mod 37

Because 37 is prime, any ``hop_increment`` in 5..16 walks through *all* 37
data channels before repeating (paper Section 2.1) -- the property BLoc
exploits to stitch an 80 MHz aperture out of 2 MHz channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.constants import BLE_NUM_DATA_CHANNELS
from repro.errors import ProtocolError
from repro.ble.channels import ChannelMap

#: Range the spec allows for the hop increment.
MIN_HOP_INCREMENT = 5
MAX_HOP_INCREMENT = 16


@dataclass
class HopSequence:
    """Stateful CSA#1 hop sequence generator.

    Attributes:
        hop_increment: per-event channel advance (spec: 5..16).
        channel_map: usable channels; unusable ones get remapped.
        start_channel: unmapped channel of the first connection event.
    """

    hop_increment: int = 7
    channel_map: ChannelMap = field(default_factory=ChannelMap.all_channels)
    start_channel: int = 0

    def __post_init__(self):
        if not MIN_HOP_INCREMENT <= self.hop_increment <= MAX_HOP_INCREMENT:
            raise ProtocolError(
                "hop increment must be in "
                f"[{MIN_HOP_INCREMENT}, {MAX_HOP_INCREMENT}], "
                f"got {self.hop_increment}"
            )
        if not 0 <= self.start_channel < BLE_NUM_DATA_CHANNELS:
            raise ProtocolError(
                f"start channel must be 0..36, got {self.start_channel}"
            )
        self._unmapped = self.start_channel

    def current(self) -> int:
        """Data channel of the current connection event (after remapping)."""
        return self.channel_map.remap(self._unmapped)

    def advance(self) -> int:
        """Hop to the next connection event; return its (mapped) channel."""
        self._unmapped = (
            self._unmapped + self.hop_increment
        ) % BLE_NUM_DATA_CHANNELS
        return self.current()

    def reset(self) -> None:
        """Rewind to the first connection event."""
        self._unmapped = self.start_channel

    def events(self, count: int) -> Iterator[int]:
        """Yield the channels of the next ``count`` connection events.

        The current event is yielded first, then the sequence advances.
        """
        for _ in range(count):
            yield self.current()
            self.advance()
