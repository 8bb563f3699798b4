"""Noise models: AWGN for IQ streams and estimation noise for channels.

Two entry points, one per simulation fidelity:

* :func:`add_awgn` corrupts complex baseband samples at a target SNR, for
  the IQ-level PHY pipeline.
* :func:`channel_estimation_noise` perturbs directly-synthesised channel
  values the way averaging a tone over ``n`` samples at a given SNR would,
  for the fast channel-level campaigns.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.contracts import arr, shaped
from repro.errors import ConfigurationError
from repro.utils.rng import RngLike, make_rng


def snr_to_noise_std(signal_power: float, snr_db: float) -> float:
    """Per-component (I or Q) noise standard deviation for a target SNR."""
    if signal_power < 0:
        raise ConfigurationError("signal power must be >= 0")
    noise_power = signal_power / (10.0 ** (snr_db / 10.0))
    return float(np.sqrt(noise_power / 2.0))


def add_awgn(
    iq: np.ndarray, snr_db: float, rng: RngLike = None
) -> np.ndarray:
    """Add complex white Gaussian noise at ``snr_db`` relative to the
    *average* power of ``iq``."""
    samples = np.asarray(iq, dtype=complex)
    if samples.size == 0:
        return samples.copy()
    power = float(np.mean(np.abs(samples) ** 2))
    std = snr_to_noise_std(power, snr_db)
    generator = make_rng(rng)
    noise = generator.normal(0.0, std, samples.shape) + 1j * generator.normal(
        0.0, std, samples.shape
    )
    return samples + noise


@shaped(channels=arr(None, np.complexfloating))
def channel_estimation_noise(
    channels: np.ndarray,
    snr_db: float,
    averaging_gain: float = 1.0,
    rng: RngLike = None,
    reference_power: Optional[float] = None,
) -> np.ndarray:
    """Perturb channel estimates with the noise a tone estimator would see.

    Estimating ``h = y / x`` from a tone averaged over ``n`` samples at
    per-sample SNR ``snr_db`` leaves complex Gaussian error with power
    ``noise_power / n``; ``averaging_gain`` is that ``n``.

    Args:
        channels: complex channel values (any shape).
        snr_db: per-sample SNR, relative to ``reference_power`` (or to the
            mean power of ``channels`` if not given).  Using a fixed
            reference makes weak (heavily obstructed) channels noisier
            than strong ones, as in reality.
        averaging_gain: number of coherently averaged samples.
        rng: random source.
    """
    arr = np.asarray(channels, dtype=complex)
    if averaging_gain <= 0:
        raise ConfigurationError("averaging gain must be > 0")
    if arr.size == 0:
        return arr.copy()
    if reference_power is None:
        reference_power = float(np.mean(np.abs(arr) ** 2))
    noise_power = reference_power / (10.0 ** (snr_db / 10.0)) / averaging_gain
    std = float(np.sqrt(noise_power / 2.0))
    generator = make_rng(rng)
    noise = generator.normal(0.0, std, arr.shape) + 1j * generator.normal(
        0.0, std, arr.shape
    )
    return arr + noise
