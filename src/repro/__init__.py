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

from repro.baselines import (
    AoaLocalizer,
    RssiTrilateration,
    ShortestDistanceLocalizer,
    shortest_distance_localizer,
)
from repro.core import (
    BlocConfig,
    BlocLocalizer,
    ChannelObservations,
    CorrectedChannels,
    LocalizationResult,
    SteeringCache,
    correct_phase_offsets,
)
from repro.sim import (
    ChannelMeasurementModel,
    ErrorStats,
    EvaluationDataset,
    IqMeasurementModel,
    Testbed,
    build_dataset,
    evaluate,
    evaluate_anchor_subsets,
    open_room_testbed,
    sample_tag_positions,
    vicon_testbed,
)
from repro.utils.geometry2d import Point

__version__ = "1.0.0"

__all__ = [
    "AoaLocalizer",
    "BlocConfig",
    "BlocLocalizer",
    "ChannelMeasurementModel",
    "ChannelObservations",
    "CorrectedChannels",
    "ErrorStats",
    "EvaluationDataset",
    "IqMeasurementModel",
    "LocalizationResult",
    "Point",
    "RssiTrilateration",
    "ShortestDistanceLocalizer",
    "SteeringCache",
    "Testbed",
    "build_dataset",
    "correct_phase_offsets",
    "evaluate",
    "evaluate_anchor_subsets",
    "open_room_testbed",
    "sample_tag_positions",
    "shortest_distance_localizer",
    "vicon_testbed",
    "__version__",
]
