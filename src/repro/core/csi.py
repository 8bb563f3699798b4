"""CSI measurement for BLE: from GFSK IQ samples to per-band channels.

Section 4 of the paper: the transmitted frequency is only stable during
long runs of identical bits, so CSI is measured on those stable tone
segments.  For each segment the channel is the least-squares ratio of
received to ideal transmitted samples:

    h_tone = sum(y * conj(x)) / sum(|x|^2)

which equals the paper's ``h = y / x`` averaged over the segment.  The
bit-0 segments give the channel at ``f0``, the bit-1 segments at ``f1``;
the two are combined into one per-band value by averaging amplitude and
phase separately (Section 5, notation paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.contracts import shaped
from repro.ble.gfsk import GfskModulator
from repro.ble.localization import ToneSegment, find_tone_segments
from repro.ble.pdu import OnAirPacket
from repro.errors import CsiExtractionError
from repro.sdr.iq import IqCapture
from repro.utils.complexutils import circular_mean, combine_amplitude_phase


@dataclass(frozen=True)
class BandCsi:
    """CSI of one frequency band at one anchor.

    Attributes:
        channel_index: BLE channel the band corresponds to.
        frequency_hz: band centre frequency.
        channels: complex channel per antenna, shape ``(num_antennas,)``.
        tone0: raw f0-tone channel per antenna (diagnostics).
        tone1: raw f1-tone channel per antenna (diagnostics).
    """

    channel_index: int
    frequency_hz: float
    channels: np.ndarray
    tone0: np.ndarray
    tone1: np.ndarray


@shaped(received=("M",), ideal=("L",))
def measure_segment_channel(
    received: np.ndarray,
    ideal: np.ndarray,
    segment: ToneSegment,
    samples_per_symbol: int,
) -> complex:
    """Least-squares channel estimate over one stable tone segment."""
    sl = segment.sample_slice(samples_per_symbol)
    y = np.asarray(received[sl], dtype=complex)
    x = np.asarray(ideal[sl], dtype=complex)
    if y.size == 0 or y.size != x.size:
        raise CsiExtractionError(
            f"segment samples unavailable: got {y.size}, want {x.size}"
        )
    energy = float(np.sum(np.abs(x) ** 2))
    if energy <= 0:
        raise CsiExtractionError("ideal segment has zero energy")
    return complex(np.sum(y * np.conj(x)) / energy)


def combine_tone_channels(tone0: complex, tone1: complex) -> complex:
    """Per-band channel from the f0 and f1 tone channels.

    The paper combines "the two values into a single value per band by
    averaging the channel amplitude and channel phase separately"; the
    phase average is circular.
    """
    amplitude = (abs(tone0) + abs(tone1)) / 2.0
    phase = float(circular_mean(np.angle([tone0, tone1])))
    return complex(combine_amplitude_phase(amplitude, phase))


def extract_band_csi(
    capture: IqCapture,
    packet: OnAirPacket,
    min_run: int = 4,
    settle_bits: int = 2,
    modulator: Optional[GfskModulator] = None,
) -> BandCsi:
    """Measure one band's CSI from an *aligned* capture of a known packet.

    Args:
        capture: IQ aligned so sample 0 is the packet's first sample
            (see :class:`repro.sdr.receiver.PacketDetector`).
        packet: the packet that was transmitted (known to the anchors:
            they follow the connection, Section 3).
        min_run / settle_bits: stable-segment extraction parameters.
        modulator: the reference modulator; defaults to one matching the
            capture sample rate.

    Raises:
        CsiExtractionError: when the packet contains no usable tone runs
            of one of the two frequencies.
    """
    samples_per_symbol = int(round(capture.sample_rate / 1e6))
    if modulator is None:
        modulator = GfskModulator(samples_per_symbol=samples_per_symbol)
    ideal = modulator.modulate(packet.bits)
    segments = find_tone_segments(
        packet.bits, min_run=min_run, settle_bits=settle_bits
    )
    zero_segments = [s for s in segments if s.bit_value == 0]
    one_segments = [s for s in segments if s.bit_value == 1]
    if not zero_segments or not one_segments:
        raise CsiExtractionError(
            "packet has no stable runs of both bit values; use "
            "localization packets (repro.ble.localization)"
        )
    usable = capture.num_samples
    tone0 = np.empty(capture.num_antennas, dtype=complex)
    tone1 = np.empty(capture.num_antennas, dtype=complex)
    for antenna in range(capture.num_antennas):
        received = capture.antenna(antenna)
        for tones, segs in ((tone0, zero_segments), (tone1, one_segments)):
            estimates = [
                measure_segment_channel(
                    received, ideal, segment, samples_per_symbol
                )
                for segment in segs
                if segment.sample_slice(samples_per_symbol).stop <= usable
            ]
            if not estimates:
                raise CsiExtractionError(
                    "capture too short to cover any stable segment"
                )
            tones[antenna] = np.mean(estimates)
    channels = np.array(
        [
            combine_tone_channels(t0, t1)
            for t0, t1 in zip(tone0, tone1)
        ]
    )
    return BandCsi(
        channel_index=capture.channel_index,
        frequency_hz=capture.carrier_frequency_hz,
        channels=channels,
        tone0=tone0,
        tone1=tone1,
    )
