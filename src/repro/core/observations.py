"""Channel observations: the data interface between measurement and DSP.

One BLoc measurement round (a full hop sweep, Section 5.1) yields, for
every frequency band ``k``:

* ``tag_to_anchor[i, j, k]`` -- the channel from the tag to antenna ``j``
  of anchor ``i``, measured from the tag's packet (``h-hat`` in Eq. 7/8);
* ``master_to_anchor[i, j, k]`` -- the channel from the master anchor's
  antenna 0 to antenna ``j`` of anchor ``i``, measured from the master's
  response packet (``H-hat`` in Eq. 9).  The master's own rows are unused.

Both carry whatever oscillator phase offsets the measurement process
imprinted; removing them is :mod:`repro.core.correction`'s job.

:class:`ChannelObservations` also owns the evaluation-time subsetting the
paper's Section 8 sweeps rely on: fewer anchors (8.3), fewer antennas
(8.4), narrower bandwidth (8.5), subsampled channels (8.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, MeasurementError
from repro.rf.antenna import Anchor
from repro.utils.geometry2d import Point


@dataclass
class ChannelObservations:
    """Measured channels of one localization round.

    Attributes:
        anchors: the anchor descriptors (geometry, antenna counts).
        master_index: which anchor is the master (index into ``anchors``).
        frequencies_hz: centre frequency per band, shape ``(K,)``.
        tag_to_anchor: complex array, shape ``(I, J, K)``.
        master_to_anchor: complex array, shape ``(I, J, K)``.
        ground_truth: true tag position, when the testbed knows it.
        band_snr_db: optional measured demodulation SNR per (anchor,
            band) cell, shape ``(I, K)`` -- filled by the IQ-fidelity
            measurement model, None at channel fidelity (the diagnostics
            layer then estimates quality from the channels themselves).
    """

    anchors: List[Anchor]
    master_index: int
    frequencies_hz: np.ndarray
    tag_to_anchor: np.ndarray
    master_to_anchor: np.ndarray
    ground_truth: Optional[Point] = None
    band_snr_db: Optional[np.ndarray] = None

    def __post_init__(self):
        self.frequencies_hz = np.asarray(self.frequencies_hz, dtype=float)
        if self.frequencies_hz.size < 1:
            raise MeasurementError("need at least one frequency band")
        if not np.all(
            np.isfinite(self.frequencies_hz) & (self.frequencies_hz > 0)
        ):
            raise MeasurementError("frequencies must be finite and positive")
        self.tag_to_anchor = np.asarray(self.tag_to_anchor, dtype=complex)
        self.master_to_anchor = np.asarray(self.master_to_anchor, dtype=complex)
        if self.band_snr_db is not None:
            self.band_snr_db = np.asarray(self.band_snr_db, dtype=float)
            expected_quality = (len(self.anchors), self.frequencies_hz.size)
            if self.band_snr_db.shape != expected_quality:
                raise MeasurementError(
                    f"band_snr_db shape {self.band_snr_db.shape} != "
                    f"expected {expected_quality}"
                )
        num_anchors = len(self.anchors)
        if num_anchors < 1:
            raise ConfigurationError("need at least one anchor")
        if not 0 <= self.master_index < num_anchors:
            raise ConfigurationError(
                f"master index {self.master_index} out of range"
            )
        expected = (
            num_anchors,
            max(a.num_antennas for a in self.anchors),
            self.frequencies_hz.size,
        )
        for name, arr in (
            ("tag_to_anchor", self.tag_to_anchor),
            ("master_to_anchor", self.master_to_anchor),
        ):
            if arr.shape != expected:
                raise MeasurementError(
                    f"{name} shape {arr.shape} != expected {expected}"
                )

    # -- shapes -------------------------------------------------------------

    @property
    def num_anchors(self) -> int:
        """Number of anchors ``I``."""
        return len(self.anchors)

    @property
    def num_antennas(self) -> int:
        """Antennas per anchor ``J`` (uniform across anchors)."""
        return int(self.tag_to_anchor.shape[1])

    @property
    def num_bands(self) -> int:
        """Number of frequency bands ``K``."""
        return int(self.frequencies_hz.size)

    @property
    def master(self) -> Anchor:
        """The master anchor."""
        return self.anchors[self.master_index]

    def bandwidth_hz(self) -> float:
        """Span of the measured bands (max - min centre frequency)."""
        if self.num_bands < 2:
            return 0.0
        return float(self.frequencies_hz.max() - self.frequencies_hz.min())

    # -- evaluation-time subsetting -----------------------------------------

    def select_bands(self, band_indices: Sequence[int]) -> "ChannelObservations":
        """Restrict to a subset of frequency bands (Sections 8.5, 8.6)."""
        idx = np.asarray(list(band_indices), dtype=int)
        if idx.size < 1:
            raise ConfigurationError("need at least one band")
        if idx.min() < 0 or idx.max() >= self.num_bands:
            raise ConfigurationError("band index out of range")
        return replace(
            self,
            frequencies_hz=self.frequencies_hz[idx],
            tag_to_anchor=self.tag_to_anchor[:, :, idx],
            master_to_anchor=self.master_to_anchor[:, :, idx],
            band_snr_db=(
                self.band_snr_db[:, idx]
                if self.band_snr_db is not None
                else None
            ),
        )

    def select_bandwidth(self, bandwidth_hz: float) -> "ChannelObservations":
        """Keep only bands within a contiguous window of the given width,
        anchored at the lowest measured frequency (Section 8.5)."""
        if bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth must be > 0")
        f0 = float(self.frequencies_hz.min())
        keep = np.flatnonzero(self.frequencies_hz <= f0 + bandwidth_hz)
        return self.select_bands(keep)

    def subsample_bands(self, factor: int) -> "ChannelObservations":
        """Every ``factor``-th band over the full span (Section 8.6)."""
        if factor < 1:
            raise ConfigurationError("factor must be >= 1")
        order = np.argsort(self.frequencies_hz)
        keep = order[::factor]
        return self.select_bands(np.sort(keep))

    def select_antennas(self, num_antennas: int) -> "ChannelObservations":
        """Keep the first ``num_antennas`` elements per anchor (Section 8.4)."""
        if not 1 <= num_antennas <= self.num_antennas:
            raise ConfigurationError(
                f"num_antennas must be in [1, {self.num_antennas}]"
            )
        anchors = [a.truncated(num_antennas) for a in self.anchors]
        return replace(
            self,
            anchors=anchors,
            tag_to_anchor=self.tag_to_anchor[:, :num_antennas, :],
            master_to_anchor=self.master_to_anchor[:, :num_antennas, :],
        )

    def select_anchors(
        self, anchor_indices: Sequence[int]
    ) -> "ChannelObservations":
        """Keep a subset of anchors (Section 8.3).

        The master must stay in the subset: Eq. 10's correction needs its
        packets.
        """
        idx = list(dict.fromkeys(int(i) for i in anchor_indices))
        if self.master_index not in idx:
            raise ConfigurationError(
                "the master anchor must be part of every anchor subset"
            )
        for i in idx:
            if not 0 <= i < self.num_anchors:
                raise ConfigurationError(f"anchor index {i} out of range")
        arr = np.asarray(idx, dtype=int)
        return replace(
            self,
            anchors=[self.anchors[i] for i in idx],
            master_index=idx.index(self.master_index),
            tag_to_anchor=self.tag_to_anchor[arr],
            master_to_anchor=self.master_to_anchor[arr],
            band_snr_db=(
                self.band_snr_db[arr]
                if self.band_snr_db is not None
                else None
            ),
        )
