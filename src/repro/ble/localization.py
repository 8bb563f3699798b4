"""Localization packet design: long 0/1 runs that survive the PHY.

Section 4 of the paper: to measure CSI despite GFSK's ever-moving
frequency, BLoc sends packets whose payload contains long runs of 0 bits
(so the transmitter settles on the f0 tone) followed by long runs of 1
bits (settling on f1).  Two practical wrinkles this module handles:

* **Whitening.**  The spec whitens PDU bits per channel, which would
  scramble a constant payload.  Since the whitening stream is known and
  deterministic per channel, we pre-compensate: the payload is chosen as
  ``desired_air_bits XOR whitening_stream`` so the *on-air* bits contain
  the runs.  (The paper is silent on this detail; pre-compensation keeps
  the packets fully spec-compliant.)
* **Settling.**  The Gaussian filter needs ~1-2 symbols to settle after a
  transition, so only the interior of each run is usable for CSI.  The
  stable-segment finder returns those interiors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.ble.pdu import DataPdu, bits_to_bytes
from repro.ble.whitening import whitening_sequence


@dataclass(frozen=True)
class ToneSegment:
    """A run of identical on-air bits usable for a CSI measurement.

    Attributes:
        bit_value: 0 (f0 tone) or 1 (f1 tone).
        start_bit: index of the first *stable* bit within the packet bits.
        num_bits: number of stable bits in the segment.
    """

    bit_value: int
    start_bit: int
    num_bits: int

    def sample_slice(self, samples_per_symbol: int) -> slice:
        """The IQ sample range covered by the stable bits."""
        start = self.start_bit * samples_per_symbol
        stop = (self.start_bit + self.num_bits) * samples_per_symbol
        return slice(start, stop)


def tone_pattern(run_length: int, num_pairs: int) -> np.ndarray:
    """The desired on-air payload bits: alternating 0-runs and 1-runs.

    Args:
        run_length: bits per run (the paper demonstrates 5; at 1 Mbps the
            8 us dwell of Section 6 corresponds to run_length = 8).
        num_pairs: how many (0-run, 1-run) pairs to emit.
    """
    if run_length < 2:
        raise ConfigurationError("run_length must be >= 2")
    if num_pairs < 1:
        raise ConfigurationError("num_pairs must be >= 1")
    pair = np.concatenate(
        [np.zeros(run_length, dtype=np.uint8), np.ones(run_length, dtype=np.uint8)]
    )
    return np.tile(pair, num_pairs)


def design_payload(
    channel_index: int,
    run_length: int = 8,
    num_pairs: int = 8,
    header_bits: int = 16,
) -> bytes:
    """Payload octets whose *whitened* image is the tone pattern.

    The whitening stream position for the payload starts after the 16
    header bits (the header is whitened too, but we only control the
    payload).  The pattern length is rounded up to whole octets; the tail
    padding repeats the final run value.

    Args:
        channel_index: channel the packet will be sent on.
        run_length: bits per 0/1 run on air.
        num_pairs: number of run pairs.
        header_bits: whitening-stream offset of the payload (16 for data
            PDUs).
    """
    desired = tone_pattern(run_length, num_pairs)
    remainder = (-desired.size) % 8
    if remainder:
        pad_value = desired[-1]
        desired = np.concatenate(
            [desired, np.full(remainder, pad_value, dtype=np.uint8)]
        )
    stream = whitening_sequence(channel_index, header_bits + desired.size)
    payload_bits = desired ^ stream[header_bits:]
    return bits_to_bytes(payload_bits)


def localization_pdu(
    channel_index: int,
    run_length: int = 8,
    num_pairs: int = 8,
) -> DataPdu:
    """A ready-to-send data PDU carrying the localization tone pattern."""
    payload = design_payload(
        channel_index, run_length=run_length, num_pairs=num_pairs
    )
    return DataPdu(payload=payload)


def find_tone_segments(
    air_bits: Sequence[int],
    min_run: int = 4,
    settle_bits: int = 2,
) -> List[ToneSegment]:
    """Locate stable tone segments in an on-air bit stream.

    Args:
        air_bits: the transmitted (whitened) bits, in air order.
        min_run: shortest run considered usable.
        settle_bits: bits trimmed from the start of each run to let the
            Gaussian filter settle; one extra bit is trimmed from the end
            because the filter starts slewing *before* the transition.

    Returns:
        Segments ordered by position; possibly empty for random data.
    """
    if min_run <= settle_bits + 1:
        raise ConfigurationError(
            "min_run must exceed settle_bits + 1 to leave stable bits"
        )
    arr = np.asarray(air_bits, dtype=np.uint8) & 1
    segments: List[ToneSegment] = []
    if arr.size == 0:
        return segments
    run_start = 0
    for i in range(1, arr.size + 1):
        at_end = i == arr.size
        if at_end or arr[i] != arr[run_start]:
            run_len = i - run_start
            if run_len >= min_run:
                stable_start = run_start + settle_bits
                stable_len = run_len - settle_bits - 1
                if at_end:
                    stable_len += 1  # no trailing transition to slew into
                if stable_len > 0:
                    segments.append(
                        ToneSegment(
                            bit_value=int(arr[run_start]),
                            start_bit=stable_start,
                            num_bits=stable_len,
                        )
                    )
            run_start = i
    return segments
