"""BLE protocol substrate: channels, hopping, framing, GFSK, link layer.

Implements the subset of the Bluetooth Core Specification that BLoc
(CoNEXT '18) depends on, faithfully enough that the CSI-measurement code
operates on realistic on-air bit streams and baseband IQ.
"""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.ble.access_address": (
            "is_valid_access_address",
            "random_access_address",
        ),
        "repro.ble.channels": (
            "ChannelMap",
            "all_data_channel_frequencies",
            "channel_index_to_frequency",
            "data_channel_to_frequency",
            "frequency_to_data_channel",
            "is_advertising_channel",
        ),
        "repro.ble.crc": ("append_crc", "check_crc", "crc24"),
        "repro.ble.gfsk": (
            "GfskDemodulator",
            "GfskModulator",
            "gaussian_pulse",
        ),
        "repro.ble.hopping": ("HopSequence", "hop_cycle"),
        "repro.ble.link_layer": (
            "Connection",
            "ConnectionEvent",
            "establish_connection",
        ),
        "repro.ble.localization": (
            "ToneSegment",
            "design_payload",
            "find_tone_segments",
            "localization_pdu",
            "tone_pattern",
        ),
        "repro.ble.pdu": (
            "DataPdu",
            "OnAirPacket",
            "assemble_packet",
            "bits_to_bytes",
            "bytes_to_bits",
            "disassemble_packet",
        ),
        "repro.ble.throughput": (
            "ThroughputReport",
            "localization_packet_duration_s",
            "throughput_with_localization",
        ),
        "repro.ble.whitening": ("dewhiten", "longest_run", "whiten"),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
