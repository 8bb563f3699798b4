"""Fault injection: receive-side band outages at one anchor.

:func:`inject_band_outage` zeroes chosen bands at one anchor of a
measured sweep, so the service's provider gating and the health
monitor's ``band_outage`` detector can be exercised on otherwise clean
observations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core.observations import ChannelObservations
from repro.errors import ConfigurationError


def inject_band_outage(
    observations: ChannelObservations,
    anchor_index: int,
    band_indices: Sequence[int],
) -> ChannelObservations:
    """Knock out specific bands at *one* anchor (fault injection).

    This simulates a receive-side fault: anchor ``anchor_index`` records
    nothing usable on the given bands (front-end desense, a wedged
    radio) while the other anchors keep theirs.  The affected cells are
    zeroed, which :func:`repro.core.correction.usable_band_mask` and the
    diagnostics layer treat as missing; the health monitor's
    ``band_outage`` detector exists to catch exactly this signature.

    Returns:
        A new :class:`ChannelObservations`; the input is not modified.
    """
    if not 0 <= anchor_index < observations.num_anchors:
        raise ConfigurationError(
            f"anchor index {anchor_index} out of range "
            f"[0, {observations.num_anchors})"
        )
    bands = np.asarray(list(band_indices), dtype=int)
    if bands.size and (
        bands.min() < 0 or bands.max() >= observations.num_bands
    ):
        raise ConfigurationError("band index out of range")
    tag = observations.tag_to_anchor.copy()
    master = observations.master_to_anchor.copy()
    tag[anchor_index, :, bands] = 0.0
    master[anchor_index, :, bands] = 0.0
    snr = observations.band_snr_db
    if snr is not None:
        snr = snr.copy()
        snr[anchor_index, bands] = np.nan
    return replace(
        observations,
        tag_to_anchor=tag,
        master_to_anchor=master,
        band_snr_db=snr,
    )
