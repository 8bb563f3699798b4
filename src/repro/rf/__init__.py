"""RF propagation substrate: rooms, rays, antennas, oscillators, noise.

Simulates the 2.4 GHz indoor radio environment the paper measures with
USRPs: image-method multipath with non-ideal (scattering) reflectors,
per-retune oscillator phase offsets, and AWGN.
"""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.rf.antenna": ("Anchor", "default_anchor_ring"),
        "repro.rf.channel_model": ("ChannelSimulator",),
        "repro.rf.environment": ("Environment", "Reflector"),
        "repro.rf.imaging": ("ImagingConfig", "trace_paths"),
        "repro.rf.materials": (
            "ABSORBER",
            "CONCRETE",
            "DRYWALL",
            "GLASS",
            "MATERIALS",
            "METAL",
            "Material",
        ),
        "repro.rf.noise": (
            "add_awgn",
            "channel_estimation_noise",
        ),
        "repro.rf.oscillator": ("Oscillator",),
        "repro.rf.paths": (
            "PathKind",
            "PropagationPath",
            "paths_to_channel",
        ),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
