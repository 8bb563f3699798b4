"""Throughput accounting for localization overhead (paper Section 6).

The paper argues BLoc barely dents BLE throughput: "BLE hops through all
channels 40 times every second.  Thus, even if one complete hop is used
for localization, the other hops can be used to communicate data as
usual", and a CSI estimate needs only ~8 us per tone.  This module makes
that argument computable: given a connection configuration and a
localization duty (sweeps per second), it reports the airtime the
localization packets cost and the data throughput that remains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    BLE_CRC_LENGTH_BITS,
    BLE_NUM_DATA_CHANNELS,
    BLE_SYMBOL_RATE,
)
from repro.errors import ConfigurationError

#: Framing overhead bits: preamble + access address + data PDU header.
FRAMING_BITS = 8 + 32 + 16

#: Inter-frame space between the two packets of an event [s] (spec T_IFS).
T_IFS_S = 150e-6


@dataclass(frozen=True)
class ThroughputReport:
    """Airtime budget of a connection running BLoc localization.

    Attributes:
        localization_airtime_fraction: share of airtime spent on
            localization packets.
        data_throughput_bps: application payload throughput that remains.
        sweeps_per_second: localization position-fix rate achieved.
        localization_packet_us: duration of one localization packet.
    """

    localization_airtime_fraction: float
    data_throughput_bps: float
    sweeps_per_second: float
    localization_packet_us: float


def localization_packet_duration_s(
    run_length: int = 8, num_pairs: int = 8
) -> float:
    """On-air duration of one localization packet.

    The payload carries ``num_pairs`` pairs of ``run_length``-bit tones;
    8 us per tone at 1 Mbps is exactly ``run_length = 8`` (Section 6).
    """
    if run_length < 2 or num_pairs < 1:
        raise ConfigurationError("invalid tone pattern")
    payload_bits = 2 * run_length * num_pairs
    # Round up to whole octets like the packet builder does.
    payload_bits += (-payload_bits) % 8
    total_bits = FRAMING_BITS + payload_bits + BLE_CRC_LENGTH_BITS
    return total_bits / BLE_SYMBOL_RATE


def throughput_with_localization(
    connection_interval_s: float = 7.5e-3,
    sweeps_per_second: float = 1.0,
    data_payload_octets: int = 100,
    run_length: int = 8,
    num_pairs: int = 8,
) -> ThroughputReport:
    """Airtime/throughput budget for a connection that localizes.

    Args:
        connection_interval_s: BLE connection interval (7.5 ms is the
            minimum; the paper's "40 hops per second" corresponds to a
            full 37-event cycle every ~25 ms... i.e. back-to-back events).
        sweeps_per_second: full 37-channel localization sweeps per second
            (1 sweep = 1 position fix).
        data_payload_octets: payload of a normal data event.
        run_length / num_pairs: localization packet shape.
    """
    if connection_interval_s <= 0:
        raise ConfigurationError("connection interval must be > 0")
    if sweeps_per_second < 0:
        raise ConfigurationError("sweep rate must be >= 0")
    events_per_second = 1.0 / connection_interval_s
    localization_events = sweeps_per_second * BLE_NUM_DATA_CHANNELS
    if localization_events > events_per_second:
        raise ConfigurationError(
            f"{sweeps_per_second} sweeps/s needs "
            f"{localization_events:.0f} events/s but the interval only "
            f"provides {events_per_second:.0f}"
        )
    data_events = events_per_second - localization_events
    # Each event carries master + slave packets separated by T_IFS.
    localization_packet = localization_packet_duration_s(
        run_length, num_pairs
    )
    data_packet = (
        FRAMING_BITS + 8 * data_payload_octets + BLE_CRC_LENGTH_BITS
    ) / BLE_SYMBOL_RATE
    localization_airtime = localization_events * (
        2 * localization_packet + T_IFS_S
    )
    data_airtime = data_events * (2 * data_packet + T_IFS_S)
    total_airtime = localization_airtime + data_airtime
    fraction = (
        localization_airtime / total_airtime if total_airtime > 0 else 0.0
    )
    # Application throughput: payload bits of the data events (both ways).
    throughput = data_events * 2 * 8 * data_payload_octets
    return ThroughputReport(
        localization_airtime_fraction=fraction,
        data_throughput_bps=throughput,
        sweeps_per_second=sweeps_per_second,
        localization_packet_us=localization_packet * 1e6,
    )
