"""GFSK modulation and demodulation for the BLE 1M PHY.

BLE encodes bits as frequency: bit 1 is a +250 kHz tone, bit 0 a -250 kHz
tone relative to the channel centre, with a Gaussian filter (BT = 0.5)
smoothing the transitions (paper Section 4, Fig. 4).  Because of that
filter the instantaneous frequency is *never* static for random data --
the very obstacle BLoc's long-run localization packets work around.

The modulator produces complex baseband IQ; the demodulator is a classic
quadrature frequency discriminator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.constants import (
    BLE_FREQ_DEVIATION_HZ,
    BLE_GAUSSIAN_BT,
    BLE_SYMBOL_RATE,
)
from repro.errors import ConfigurationError, DemodulationError
from repro.obs import STANDARD_METRICS, get_observer


def gaussian_pulse(
    bt: float = BLE_GAUSSIAN_BT,
    samples_per_symbol: int = 8,
    span_symbols: int = 3,
) -> np.ndarray:
    """Unit-area Gaussian pulse used as the GFSK pre-modulation filter.

    Args:
        bt: bandwidth-time product (0.5 for BLE).
        samples_per_symbol: oversampling factor.
        span_symbols: filter length in symbols on each side of the centre.

    Returns:
        Impulse response normalised to unit sum, so convolving the NRZ
        sequence with it keeps the plateau level at exactly +-1.
    """
    if bt <= 0:
        raise ConfigurationError(f"BT must be > 0, got {bt}")
    if samples_per_symbol < 2:
        raise ConfigurationError("need at least 2 samples per symbol")
    if span_symbols < 1:
        raise ConfigurationError("filter span must be >= 1 symbol")
    # Standard GMSK pulse: g(t) = (1/2T) * [Q(a(t - T/2)) - Q(a(t + T/2))]
    # with a = 2 pi BT / (T sqrt(ln 2)); implemented via the Gaussian
    # impulse response h(t) ~ exp(-t^2 a^2 / 2) convolved with a T-wide
    # rectangle, which is what sampling + normalisation below achieves.
    t = (
        np.arange(-span_symbols * samples_per_symbol,
                  span_symbols * samples_per_symbol + 1, dtype=float)
        / samples_per_symbol
    )
    alpha = 2.0 * math.pi * bt / math.sqrt(math.log(2.0))
    h = np.exp(-0.5 * (alpha * t) ** 2)
    # Convolve with one-symbol rectangle so a single bit reaches full level.
    rect = np.ones(samples_per_symbol, dtype=float)
    pulse = np.convolve(h, rect)
    return pulse / pulse.sum()


def nrz(bits: Sequence[int]) -> np.ndarray:
    """Map bits {0, 1} to NRZ levels {-1.0, +1.0}."""
    arr = np.asarray(bits, dtype=np.uint8) & 1
    return arr.astype(float) * 2.0 - 1.0


@dataclass
class GfskModulator:
    """Bits -> complex-baseband GFSK IQ.

    Attributes:
        samples_per_symbol: oversampling factor (sample rate = this x 1 MHz).
        bt: Gaussian filter bandwidth-time product.
        deviation_hz: peak frequency deviation.
        span_symbols: Gaussian filter span.
    """

    samples_per_symbol: int = 8
    bt: float = BLE_GAUSSIAN_BT
    deviation_hz: float = BLE_FREQ_DEVIATION_HZ
    span_symbols: int = 3
    _pulse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._pulse = gaussian_pulse(
            bt=self.bt,
            samples_per_symbol=self.samples_per_symbol,
            span_symbols=self.span_symbols,
        )

    @property
    def sample_rate(self) -> float:
        """Baseband sample rate [Hz]."""
        return BLE_SYMBOL_RATE * self.samples_per_symbol

    def filtered_levels(self, bits: Sequence[int]) -> np.ndarray:
        """Gaussian-filtered NRZ waveform (the curve plotted in Fig. 4).

        The returned array has ``samples_per_symbol`` samples per bit and
        is aligned so sample ``k * samples_per_symbol`` is the start of
        bit ``k``.  Edge bits are extended to avoid filter roll-off at the
        packet boundaries.
        """
        levels = nrz(bits)
        if levels.size == 0:
            return np.zeros(0)
        pad = self.span_symbols
        padded = np.concatenate(
            [np.full(pad, levels[0]), levels, np.full(pad, levels[-1])]
        )
        upsampled = np.repeat(padded, self.samples_per_symbol)
        filtered = np.convolve(upsampled, self._pulse, mode="same")
        start = pad * self.samples_per_symbol
        return filtered[start:start + levels.size * self.samples_per_symbol]

    def instantaneous_frequency(self, bits: Sequence[int]) -> np.ndarray:
        """Per-sample frequency offset [Hz] the modulator will transmit."""
        return self.filtered_levels(bits) * self.deviation_hz

    def modulate(self, bits: Sequence[int], amplitude: float = 1.0) -> np.ndarray:
        """Produce complex baseband IQ for a bit sequence.

        The phase is the running integral of the instantaneous frequency,
        starting from zero phase at the first sample.
        """
        freq = self.instantaneous_frequency(bits)
        if freq.size == 0:
            return np.zeros(0, dtype=complex)
        phase_increments = 2.0 * np.pi * freq / self.sample_rate
        phase = np.cumsum(phase_increments)
        return amplitude * np.exp(1j * phase)


@dataclass
class GfskDemodulator:
    """Complex-baseband GFSK IQ -> bits, via a frequency discriminator.

    Attributes:
        samples_per_symbol: must match the modulator / receiver decimation.
    """

    samples_per_symbol: int = 8
    #: Decision-level SNR [dB] of the most recent :meth:`demodulate` call
    #: (None before the first call).  The measurement layer reads this to
    #: attach per-(anchor, band) demodulation quality to its observations.
    last_snr_db: Optional[float] = field(init=False, default=None)

    def __post_init__(self):
        if self.samples_per_symbol < 2:
            raise ConfigurationError("need at least 2 samples per symbol")

    @property
    def sample_rate(self) -> float:
        """Baseband sample rate [Hz]."""
        return BLE_SYMBOL_RATE * self.samples_per_symbol

    def discriminate(self, iq: np.ndarray) -> np.ndarray:
        """Instantaneous frequency estimate [Hz] per sample.

        Uses the arg of the one-sample lag product, the standard polar
        discriminator; the first sample repeats the second so the output
        length matches the input.
        """
        samples = np.asarray(iq, dtype=complex)
        if samples.size < 2:
            raise DemodulationError("need at least 2 IQ samples")
        lag = samples[1:] * np.conj(samples[:-1])
        freq = np.angle(lag) * self.sample_rate / (2.0 * np.pi)
        return np.concatenate([[freq[0]], freq])

    def demodulate(self, iq: np.ndarray, num_bits: int) -> np.ndarray:
        """Recover ``num_bits`` hard decisions from IQ aligned at sample 0.

        Each bit is decided from the discriminator output averaged over the
        central half of its symbol period, which tolerates moderate noise
        and residual filtering ISI.
        """
        midspan = self._midspan(iq, num_bits)
        snr_db = self._decision_snr_db(midspan)
        self.last_snr_db = snr_db
        observer = get_observer()
        if observer.enabled:
            observer.metrics.histogram(
                "ble.demod_snr_db", STANDARD_METRICS["ble.demod_snr_db"][1]
            ).observe(snr_db)
            observer.metrics.counter("ble.demod_symbols").inc(num_bits)
        return (midspan[:, 0] > 0).astype(np.uint8)

    def decision_snr_db(self, iq: np.ndarray, num_bits: int) -> float:
        """Decision-level SNR estimate [dB] without committing to bits.

        Mean squared decision value vs in-symbol scatter around it: a
        clean loopback saturates the estimate; interference/noise drags
        it down long before the hard decisions start flipping.  Used by
        the measurement layer to tag each (anchor, band) CSI cell with
        the demodulation quality it was measured at.
        """
        return self._decision_snr_db(self._midspan(iq, num_bits))

    def _midspan(self, iq: np.ndarray, num_bits: int) -> np.ndarray:
        """Central-half discriminator samples per symbol + their means.

        Returns an ``(num_bits, 1 + span)`` array whose first column is
        the per-symbol decision value and remaining columns the raw
        central-half samples it was averaged from.
        """
        freq = self.discriminate(iq)
        sps = self.samples_per_symbol
        needed = num_bits * sps
        if freq.size < needed:
            raise DemodulationError(
                f"need {needed} samples for {num_bits} bits, got {freq.size}"
            )
        per_symbol = freq[:needed].reshape(num_bits, sps)
        lo = sps // 4
        hi = sps - lo
        central = per_symbol[:, lo:hi]
        return np.column_stack([central.mean(axis=1), central])

    @staticmethod
    def _decision_snr_db(midspan: np.ndarray) -> float:
        decisions = midspan[:, 0]
        central = midspan[:, 1:]
        signal_power = float(np.mean(decisions**2))
        noise_power = float(np.mean((central - decisions[:, None]) ** 2))
        if signal_power <= 0.0:
            return -60.0
        return 10.0 * math.log10(
            signal_power / max(noise_power, 1e-12 * signal_power)
        )
