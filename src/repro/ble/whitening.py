"""BLE data whitening (Core spec Vol 6, Part B, 3.2).

BLE scrambles PDU+CRC bits with a 7-bit LFSR (polynomial x^7 + x^4 + 1)
seeded from the channel index, to avoid long runs of identical bits on air.

This matters to BLoc: the paper's localization packets *need* long runs of
identical bits on air (Section 4), which standard whitening would destroy.
:mod:`repro.ble.localization` therefore chooses payloads whose *whitened*
image contains the runs, or disables whitening for raw-PHY experiments; both
paths go through this module.

The LFSR follows the spec figure exactly: positions 0..6 shift towards
position 6, whose output is the whitening bit; it feeds back into position 0
and XORs into the input of position 4.  Position 0 is initialised to 1 and
positions 1..6 hold the channel index, MSB in position 1.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ProtocolError

#: Period of the x^7 + x^4 + 1 LFSR (primitive, so maximal length).
WHITENING_PERIOD = 127


def whitening_initial_state(channel_index: int) -> Tuple[int, ...]:
    """Initial LFSR state (position 0, ..., position 6) for a channel."""
    if not 0 <= channel_index < 40:
        raise ProtocolError(
            f"channel index must be 0..39, got {channel_index}"
        )
    state = [1] + [(channel_index >> (5 - k)) & 1 for k in range(6)]
    return tuple(state)


def whitening_sequence(channel_index: int, num_bits: int) -> np.ndarray:
    """The first ``num_bits`` of the whitening bit stream for a channel."""
    if num_bits < 0:
        raise ProtocolError("num_bits must be >= 0")
    s = list(whitening_initial_state(channel_index))
    out = np.empty(num_bits, dtype=np.uint8)
    for i in range(num_bits):
        bit = s[6]
        out[i] = bit
        s = [bit, s[0], s[1], s[2], s[3] ^ bit, s[4], s[5]]
    return out


def whiten(bits: Sequence[int], channel_index: int) -> np.ndarray:
    """XOR ``bits`` with the whitening stream of ``channel_index``.

    Whitening is an involution: ``whiten(whiten(b, ch), ch) == b``.
    """
    arr = np.asarray(bits, dtype=np.uint8) & 1
    stream = whitening_sequence(channel_index, arr.size)
    return arr ^ stream


#: De-whitening is the same operation.
dewhiten = whiten


def runs(bits: Sequence[int]) -> List[tuple]:
    """Run-length encoding: list of ``(bit_value, run_length)`` tuples."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.size == 0:
        return []
    change = np.flatnonzero(np.diff(arr))
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [arr.size]])
    return [
        (int(arr[s]), int(e - s)) for s, e in zip(starts, ends)
    ]
