"""Tests for repro.ble.pdu: framing, whitening integration, CRC checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ble.pdu import (
    DataPdu,
    Llid,
    assemble_packet,
    bits_to_bytes,
    bytes_to_bits,
    disassemble_packet,
    preamble_bits,
)
from repro.errors import CrcError, ProtocolError

payloads = st.binary(max_size=60)
channels = st.integers(min_value=0, max_value=36)

AA = 0x5A3B9C71


class TestBitBytes:
    def test_lsb_first_per_octet(self):
        bits = bytes_to_bits(b"\x01\x80")
        assert bits[0] == 1
        assert bits[15] == 1
        assert bits[1:8].sum() == 0

    @given(payloads)
    @settings(max_examples=50)
    def test_roundtrip(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_rejects_partial_octet(self):
        with pytest.raises(ProtocolError):
            bits_to_bytes([1, 0, 1])

    def test_empty(self):
        assert bytes_to_bits(b"").size == 0


class TestDataPdu:
    def test_header_encodes_flags_and_length(self):
        pdu = DataPdu(payload=b"abc", llid=Llid.START, nesn=1, sn=0, md=1)
        header = pdu.header_bytes()
        assert header[1] == 3
        assert header[0] & 0b11 == Llid.START
        assert (header[0] >> 2) & 1 == 1  # nesn
        assert (header[0] >> 4) & 1 == 1  # md

    def test_rejects_reserved_llid(self):
        with pytest.raises(ProtocolError):
            DataPdu(llid=0)

    def test_rejects_bad_flag(self):
        with pytest.raises(ProtocolError):
            DataPdu(sn=2)

    def test_rejects_oversized_payload(self):
        with pytest.raises(ProtocolError):
            DataPdu(payload=bytes(252))

    @given(payloads)
    @settings(max_examples=50)
    def test_bits_roundtrip(self, payload):
        pdu = DataPdu(payload=payload, llid=Llid.CONTINUATION, sn=1)
        recovered = DataPdu.from_bits(pdu.to_bits())
        assert recovered.payload == payload
        assert recovered.sn == 1
        assert recovered.llid == Llid.CONTINUATION

    def test_from_bits_rejects_truncated(self):
        pdu = DataPdu(payload=b"hello")
        bits = pdu.to_bits()[:-8]
        with pytest.raises(ProtocolError):
            DataPdu.from_bits(bits)

    def test_from_bits_rejects_short_header(self):
        with pytest.raises(ProtocolError):
            DataPdu.from_bits([0] * 8)


class TestPreamble:
    def test_alternating(self):
        for aa in (AA, AA ^ 1):
            pre = preamble_bits(aa)
            assert pre.size == 8
            assert all(pre[i] != pre[i + 1] for i in range(7))


class TestPacketAssembly:
    @given(payloads, channels)
    @settings(max_examples=40)
    def test_assemble_disassemble_roundtrip(self, payload, channel):
        pdu = DataPdu(payload=payload)
        packet = assemble_packet(pdu, access_address=AA, channel_index=channel)
        back = disassemble_packet(packet.bits, channel_index=channel)
        assert back.pdu.payload == payload
        assert back.access_address == AA

    def test_bit_budget(self):
        pdu = DataPdu(payload=b"xyz")
        packet = assemble_packet(pdu, access_address=AA, channel_index=0)
        expected = 8 + 32 + (16 + 24) + 24
        assert packet.num_bits == expected

    def test_wrong_channel_dewhitening_fails_crc(self):
        pdu = DataPdu(payload=b"payload")
        packet = assemble_packet(pdu, access_address=AA, channel_index=3)
        with pytest.raises(CrcError):
            disassemble_packet(packet.bits, channel_index=4)

    def test_whitening_disabled_roundtrip(self):
        pdu = DataPdu(payload=b"raw")
        packet = assemble_packet(
            pdu, access_address=AA, channel_index=3, whitening_enabled=False
        )
        back = disassemble_packet(
            packet.bits, channel_index=3, whitening_enabled=False
        )
        assert back.pdu.payload == b"raw"

    def test_corruption_detected(self):
        pdu = DataPdu(payload=b"data!")
        packet = assemble_packet(pdu, access_address=AA, channel_index=0)
        bits = packet.bits.copy()
        bits[60] ^= 1  # inside the whitened PDU region
        with pytest.raises(CrcError):
            disassemble_packet(bits, channel_index=0)

    def test_too_short_stream(self):
        with pytest.raises(ProtocolError):
            disassemble_packet(np.zeros(40, dtype=np.uint8), channel_index=0)
