"""repro: a full reproduction of BLoc (CoNEXT 2018) in Python.

BLoc is a CSI-based localization system for BLE tags.  This package
implements the paper's contribution (:mod:`repro.core`) together with every
substrate it depends on: the BLE PHY/link layer (:mod:`repro.ble`), an
indoor RF propagation simulator (:mod:`repro.rf`), a software-radio front
end (:mod:`repro.sdr`), baselines (:mod:`repro.baselines`) and the
evaluation harness (:mod:`repro.sim`).

Quickstart::

    from repro import vicon_testbed, ChannelMeasurementModel, BlocLocalizer
    from repro.utils.geometry2d import Point

    testbed = vicon_testbed()
    model = ChannelMeasurementModel(testbed=testbed, seed=1)
    observations = model.measure(Point(0.8, 0.4))
    result = BlocLocalizer().locate(observations)
    print(result.position, result.error_m(Point(0.8, 0.4)))
"""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.baselines.aoa": ("AoaLocalizer",),
        "repro.baselines.rssi": ("RssiTrilateration",),
        "repro.baselines.shortest": (
            "ShortestDistanceLocalizer",
            "shortest_distance_localizer",
        ),
        "repro.core.correction": (
            "CorrectedChannels",
            "correct_phase_offsets",
        ),
        "repro.core.engine": ("SteeringCache",),
        "repro.core.localizer": (
            "BlocConfig",
            "BlocLocalizer",
            "LocalizationResult",
        ),
        "repro.core.observations": ("ChannelObservations",),
        "repro.sim.dataset": ("EvaluationDataset", "build_dataset"),
        "repro.sim.measurement": (
            "ChannelMeasurementModel",
            "IqMeasurementModel",
        ),
        "repro.sim.metrics": ("ErrorStats",),
        "repro.sim.runner": ("evaluate", "evaluate_anchor_subsets"),
        "repro.sim.scenario": ("sample_tag_positions",),
        "repro.sim.testbed": ("Testbed", "open_room_testbed", "vicon_testbed"),
        "repro.utils.geometry2d": ("Point",),
    }
)

__version__ = "1.0.0"

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
