"""Evaluation harness: testbeds, scenarios, measurements, metrics, runs.

Reproduces the paper's Section 7 methodology: the VICON-room testbed, the
1700-placement dataset, and the error statistics of Section 8.
"""

from typing import Any

from repro._lazy import export_table, load_export

_EXPORTS = export_table(
    {
        "repro.sim.dataset": ("EvaluationDataset", "build_dataset"),
        "repro.sim.interference": ("inject_band_outage",),
        "repro.sim.measurement": (
            "ChannelMeasurementModel",
            "IqMeasurementModel",
        ),
        "repro.sim.metrics": (
            "ErrorStats",
            "spatial_rmse_map",
        ),
        "repro.sim.runner": (
            "DiagnosticsCapture",
            "EvaluationRecord",
            "EvaluationRun",
            "evaluate",
            "evaluate_anchor_subsets",
        ),
        "repro.sim.scenario": ("sample_tag_positions",),
        "repro.sim.testbed": ("Testbed", "open_room_testbed", "vicon_testbed"),
    }
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
