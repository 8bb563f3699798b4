"""Packet acquisition: find and align a BLE packet inside an IQ capture.

An overhearing anchor does not know when the tag or the master transmits;
it correlates the capture against the ideal modulated waveform of the
preamble + access address (both known once the connection is being
followed) and aligns on the correlation peak.  The aligned capture is what
the CSI extractor consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.ble.gfsk import GfskModulator
from repro.ble.pdu import OnAirPacket
from repro.errors import DemodulationError
from repro.sdr.iq import IqCapture

#: Number of leading packet bits used as the acquisition reference
#: (preamble + access address).
SYNC_BITS = 8 + 32


@dataclass
class PacketDetector:
    """Correlation-based packet acquisition.

    Attributes:
        samples_per_symbol: oversampling of the capture.
        threshold: minimum normalised correlation magnitude (0..1) for a
            detection to be accepted.
    """

    samples_per_symbol: int = 8
    threshold: float = 0.5

    def reference_waveform(self, packet: OnAirPacket) -> np.ndarray:
        """Ideal modulated sync waveform (preamble + access address)."""
        modulator = GfskModulator(samples_per_symbol=self.samples_per_symbol)
        return modulator.modulate(packet.bits[:SYNC_BITS])

    def detect(
        self, capture: IqCapture, packet: OnAirPacket
    ) -> Tuple[int, float]:
        """Locate the packet start in the capture.

        Uses antenna 0 (any would do; one oscillator drives them all).

        Returns:
            ``(start_sample, quality)`` where quality is the normalised
            correlation magnitude at the peak.

        Raises:
            DemodulationError: when no correlation peak clears the
                threshold (packet lost in noise, wrong channel, ...).
        """
        reference = self.reference_waveform(packet)
        received = capture.antenna(0)
        if received.size < reference.size:
            raise DemodulationError("capture shorter than the sync waveform")
        # Normalised cross-correlation: the GFSK waveform has constant
        # modulus, so a sliding energy normalisation suffices.
        correlation = np.correlate(received, reference, mode="valid")
        window_energy = np.convolve(
            np.abs(received) ** 2, np.ones(reference.size), mode="valid"
        )
        ref_energy = float(np.sum(np.abs(reference) ** 2))
        denom = np.sqrt(np.maximum(window_energy * ref_energy, 1e-30))
        quality = np.abs(correlation) / denom
        peak = int(np.argmax(quality))
        peak_quality = float(quality[peak])
        if peak_quality < self.threshold:
            raise DemodulationError(
                f"no packet found: best correlation {peak_quality:.3f} "
                f"below threshold {self.threshold}"
            )
        return peak, peak_quality

    def align(self, capture: IqCapture, packet: OnAirPacket) -> IqCapture:
        """Capture cropped so sample 0 is the first packet sample."""
        start, _ = self.detect(capture, packet)
        needed = packet.num_bits * self.samples_per_symbol
        stop = min(start + needed, capture.num_samples)
        aligned = capture.sliced(start, stop)
        aligned.start_sample_offset = 0
        return aligned
