"""Evaluation harness: testbeds, scenarios, measurements, metrics, runs.

Reproduces the paper's Section 7 methodology: the VICON-room testbed, the
1700-placement dataset, and the error statistics of Section 8.
"""

from repro.sim.dataset import EvaluationDataset, build_dataset
from repro.sim.interference import inject_band_outage
from repro.sim.measurement import ChannelMeasurementModel, IqMeasurementModel
from repro.sim.metrics import (
    ErrorStats,
    cdf_table,
    errors_from_fixes,
    format_comparison_row,
    spatial_rmse_map,
)
from repro.sim.runner import (
    DiagnosticsCapture,
    EvaluationRecord,
    EvaluationRun,
    evaluate,
    evaluate_anchor_subsets,
)
from repro.sim.scenario import grid_tag_positions, sample_tag_positions
from repro.sim.testbed import Testbed, open_room_testbed, vicon_testbed

__all__ = [
    "ChannelMeasurementModel",
    "DiagnosticsCapture",
    "ErrorStats",
    "EvaluationDataset",
    "EvaluationRecord",
    "EvaluationRun",
    "IqMeasurementModel",
    "Testbed",
    "build_dataset",
    "cdf_table",
    "errors_from_fixes",
    "evaluate",
    "evaluate_anchor_subsets",
    "format_comparison_row",
    "grid_tag_positions",
    "inject_band_outage",
    "open_room_testbed",
    "sample_tag_positions",
    "spatial_rmse_map",
    "vicon_testbed",
]
