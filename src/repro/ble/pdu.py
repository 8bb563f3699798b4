"""BLE PDU framing and on-air packet assembly.

An on-air BLE (1M PHY) packet is:

    preamble (1 octet) | access address (4 octets) | PDU | CRC (3 octets)

with the PDU and CRC whitened.  Octets go on air least-significant bit
first.  BLoc uses standard data-channel PDUs whose payload is crafted to
contain long 0/1 runs (Section 4); the framing here is what both the master
anchor and the tag transmit in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.constants import (
    BLE_CRC_INIT_ADVERTISING,
    BLE_MAX_PAYLOAD_OCTETS,
)
from repro.errors import ProtocolError
from repro.ble.access_address import address_to_bits, bits_to_address
from repro.ble.crc import append_crc, check_crc
from repro.ble.whitening import whiten


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Octets to air-order bits (LSB of each octet first)."""
    if not data:
        return np.zeros(0, dtype=np.uint8)
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr, bitorder="little")


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Air-order bits back to octets.

    Raises:
        ProtocolError: if the bit count is not a multiple of 8.
    """
    arr = np.asarray(bits, dtype=np.uint8) & 1
    if arr.size % 8 != 0:
        raise ProtocolError(f"bit count {arr.size} is not a whole octet count")
    return np.packbits(arr, bitorder="little").tobytes()


class Llid:
    """LLID values of the data-channel PDU header."""

    CONTINUATION = 0b01
    START = 0b10
    CONTROL = 0b11


@dataclass
class DataPdu:
    """A data-channel PDU: 16-bit header + payload octets.

    Attributes:
        payload: the payload octets.
        llid: 2-bit logical-link identifier.
        nesn: next-expected-sequence-number bit.
        sn: sequence-number bit.
        md: more-data bit.
    """

    payload: bytes = b""
    llid: int = Llid.START
    nesn: int = 0
    sn: int = 0
    md: int = 0

    def __post_init__(self):
        if not 0 <= self.llid <= 3 or self.llid == 0:
            raise ProtocolError(f"invalid LLID {self.llid}")
        for name in ("nesn", "sn", "md"):
            if getattr(self, name) not in (0, 1):
                raise ProtocolError(f"{name} must be 0 or 1")
        if len(self.payload) > BLE_MAX_PAYLOAD_OCTETS:
            raise ProtocolError(
                f"payload too long: {len(self.payload)} > "
                f"{BLE_MAX_PAYLOAD_OCTETS} octets"
            )

    def header_bytes(self) -> bytes:
        """The 2 header octets (flags + length)."""
        first = (
            self.llid
            | (self.nesn << 2)
            | (self.sn << 3)
            | (self.md << 4)
        )
        return bytes([first, len(self.payload)])

    def to_bits(self) -> np.ndarray:
        """Whole PDU (header + payload) in air order."""
        return bytes_to_bits(self.header_bytes() + self.payload)

    @staticmethod
    def from_bits(bits: Sequence[int]) -> "DataPdu":
        """Parse a PDU from air-order bits.

        Raises:
            ProtocolError: for malformed headers or truncated payloads.
        """
        data = bits_to_bytes(bits)
        if len(data) < 2:
            raise ProtocolError("PDU shorter than its header")
        first, length = data[0], data[1]
        if len(data) != 2 + length:
            raise ProtocolError(
                f"PDU length field says {length} octets, got {len(data) - 2}"
            )
        return DataPdu(
            payload=data[2:],
            llid=first & 0b11,
            nesn=(first >> 2) & 1,
            sn=(first >> 3) & 1,
            md=(first >> 4) & 1,
        )


#: Preamble bits for the 1M PHY.  The spec alternates starting with the
#: complement of the access address LSB; we compute it per packet.
def preamble_bits(access_address: int) -> np.ndarray:
    """8 alternating preamble bits matching the access address LSB."""
    first = access_address & 1
    pattern = [(first + k) % 2 for k in range(1, 9)]
    # Spec: preamble alternates and its last bit differs from AA bit 0,
    # i.e. the sequence ...b7 with b7 != AA[0] and alternation back.
    return np.array(pattern[::-1], dtype=np.uint8)


@dataclass
class OnAirPacket:
    """A fully assembled on-air bit stream plus its framing metadata.

    Attributes:
        bits: all bits in transmission order (preamble..whitened CRC).
        access_address: the connection's access address.
        channel_index: channel the packet is sent on (drives whitening).
        pdu: the framed PDU.
    """

    bits: np.ndarray
    access_address: int
    channel_index: int
    pdu: DataPdu

    @property
    def num_bits(self) -> int:
        """Total transmitted bit count."""
        return int(self.bits.size)


def assemble_packet(
    pdu: DataPdu,
    access_address: int,
    channel_index: int,
    crc_init: int = BLE_CRC_INIT_ADVERTISING,
    whitening_enabled: bool = True,
) -> OnAirPacket:
    """Frame a PDU into the on-air bit stream.

    Whitening can be disabled for raw-PHY localization experiments (see
    :mod:`repro.ble.localization` for why); the spec always whitens, and
    the default reflects that.
    """
    pdu_crc = append_crc(pdu.to_bits(), crc_init)
    if whitening_enabled:
        pdu_crc = whiten(pdu_crc, channel_index)
    bits = np.concatenate(
        [
            preamble_bits(access_address),
            address_to_bits(access_address),
            pdu_crc,
        ]
    )
    return OnAirPacket(
        bits=bits,
        access_address=access_address,
        channel_index=channel_index,
        pdu=pdu,
    )


def disassemble_packet(
    bits: Sequence[int],
    channel_index: int,
    crc_init: int = BLE_CRC_INIT_ADVERTISING,
    whitening_enabled: bool = True,
) -> OnAirPacket:
    """Parse and CRC-check an on-air bit stream back into a PDU.

    Raises:
        ProtocolError / CrcError: on framing or integrity failures.
    """
    arr = np.asarray(bits, dtype=np.uint8) & 1
    if arr.size < 8 + 32 + 16 + 24:
        raise ProtocolError("bit stream too short for a BLE packet")
    access_address = bits_to_address(arr[8:40])
    body = arr[40:]
    if whitening_enabled:
        body = whiten(body, channel_index)
    pdu_bits = check_crc(body, crc_init)
    pdu = DataPdu.from_bits(pdu_bits)
    return OnAirPacket(
        bits=arr,
        access_address=access_address,
        channel_index=channel_index,
        pdu=pdu,
    )
