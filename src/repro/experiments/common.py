"""Shared infrastructure for the figure-reproduction experiments.

Every experiment runner returns an :class:`ExperimentResult` made of
``paper vs measured`` rows, so the benchmark harness and the
EXPERIMENTS.md generator print identical reports.

Dataset and evaluation-run caching lives here: the Section 8 figures all
evaluate over the *same* measured dataset (like the paper, which records
1700 placements once), so one pytest session builds the dataset once and
each (scheme, transform) evaluation once.

Environment knobs:

* ``REPRO_EVAL_POINTS`` -- number of tag placements (default 60; the
  paper's full scale is 1700, which takes a few hours).
* ``REPRO_GRID_RES`` -- localizer grid resolution in metres (default 0.06).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.baselines import AoaLocalizer
from repro.constants import BLE_TOTAL_SPAN_HZ
from repro.core import BlocConfig, BlocLocalizer
from repro.core.observations import ChannelObservations
from repro.sim import (
    ChannelMeasurementModel,
    ErrorStats,
    EvaluationDataset,
    EvaluationRun,
    Testbed,
    build_dataset,
    evaluate,
    evaluate_anchor_subsets,
    vicon_testbed,
)

#: Paper's headline numbers (Section 8), in centimetres.
PAPER = {
    "bloc_median": 86.0,
    "bloc_p90": 170.0,
    "aoa_median": 242.0,
    "aoa_p90": 340.0,
    "bloc3_median": 91.5,
    "bloc3_p90": 175.0,
    "aoa3_median": 247.0,
    "aoa3_p90": 350.0,
    "bloc_3ant_median": 90.0,
    "bloc_3ant_p90": 171.0,
    "aoa_3ant_median": 241.0,
    "aoa_3ant_p90": 320.0,
    "bw_2mhz": 160.0,
    "bw_20mhz": 134.0,
    "bw_40mhz": 110.0,
    "bw_80mhz": 86.0,
    "shortest_median": 195.0,
    "shortest_p90": 331.0,
    "bloc_fig12_p90": 178.0,
}

#: Default evaluation-campaign size (paper: 1700).
DEFAULT_EVAL_POINTS = 60

#: Seed used by all default experiment datasets.
DEFAULT_SEED = 2018  # the paper's year


def eval_points() -> int:
    """Number of evaluation placements, from the environment or default."""
    return int(os.environ.get("REPRO_EVAL_POINTS", DEFAULT_EVAL_POINTS))


def grid_resolution() -> float:
    """Localizer grid resolution, from the environment or default."""
    return float(os.environ.get("REPRO_GRID_RES", 0.06))


@dataclass
class ExperimentRow:
    """One paper-vs-measured comparison line.

    Attributes:
        label: what the line reports.
        paper: the paper's value (None when the figure is qualitative).
        measured: our value.
        units: unit string for the report.
    """

    label: str
    measured: float
    paper: Optional[float] = None
    units: str = "cm"

    def format(self) -> str:
        """Fixed-width report line."""
        paper = f"{self.paper:8.1f}" if self.paper is not None else "       -"
        return (
            f"  {self.label:<44} paper={paper} {self.units:<4} "
            f"measured={self.measured:8.1f} {self.units}"
        )


@dataclass
class ExperimentResult:
    """Everything one figure reproduction produced.

    Attributes:
        experiment_id: e.g. ``"fig9a"``.
        title: human-readable description.
        rows: paper-vs-measured comparisons.
        notes: free-form caveats / observations.
    """

    experiment_id: str
    title: str
    rows: List[ExperimentRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def format_report(self) -> str:
        """Multi-line report block."""
        lines = [f"[{self.experiment_id}] {self.title}"]
        lines.extend(row.format() for row in self.rows)
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)

    def measured(self, label: str) -> float:
        """Measured value of the row with the given label."""
        for row in self.rows:
            if row.label == label:
                return row.measured
        raise KeyError(label)


# ---------------------------------------------------------------------------
# Cached testbed / dataset / evaluation runs
# ---------------------------------------------------------------------------

_CACHE: Dict[tuple, object] = {}


def default_testbed() -> Testbed:
    """The shared VICON-room testbed."""
    key = ("testbed",)
    if key not in _CACHE:
        _CACHE[key] = vicon_testbed()
    return _CACHE[key]


def default_dataset(num_positions: Optional[int] = None) -> EvaluationDataset:
    """The shared evaluation dataset (one measurement per placement)."""
    n = num_positions or eval_points()
    key = ("dataset", n)
    if key not in _CACHE:
        testbed = default_testbed()
        model = ChannelMeasurementModel(testbed=testbed, seed=DEFAULT_SEED)
        _CACHE[key] = build_dataset(
            testbed,
            num_positions=n,
            seed=DEFAULT_SEED,
            model=model,
            min_separation_m=0.1,
        )
    return _CACHE[key]


def make_bloc() -> BlocLocalizer:
    """A BLoc localizer at the experiment grid resolution."""
    return BlocLocalizer(
        config=BlocConfig(grid_resolution_m=grid_resolution())
    )


def make_aoa() -> AoaLocalizer:
    """The AoA-combining baseline at the experiment grid resolution."""
    return AoaLocalizer(grid_resolution_m=grid_resolution())


#: Named observation transforms usable as cache keys.
TRANSFORMS: Dict[str, Callable[[ChannelObservations], ChannelObservations]] = {
    "full": lambda o: o,
    "bw2": lambda o: o.select_bandwidth(2e6),
    "bw20": lambda o: o.select_bandwidth(20e6),
    "bw40": lambda o: o.select_bandwidth(40e6),
    "bw80": lambda o: o.select_bandwidth(BLE_TOTAL_SPAN_HZ),
    "sub2": lambda o: o.subsample_bands(2),
    "sub4": lambda o: o.subsample_bands(4),
    "ant3": lambda o: o.select_antennas(3),
    "ant2": lambda o: o.select_antennas(2),
}

_SCHEMES = {
    "bloc": make_bloc,
    "aoa": make_aoa,
    "shortest": lambda: BlocLocalizer(
        config=BlocConfig(
            grid_resolution_m=grid_resolution(), selection="shortest"
        )
    ),
    "maxlik": lambda: BlocLocalizer(
        config=BlocConfig(
            grid_resolution_m=grid_resolution(), selection="max_likelihood"
        )
    ),
}


def run_scheme(
    scheme: str,
    transform: str = "full",
    anchor_subset_size: Optional[int] = None,
    num_positions: Optional[int] = None,
) -> EvaluationRun:
    """Evaluate a named scheme over the shared dataset (cached).

    Args:
        scheme: "bloc", "aoa", "shortest" or "maxlik".
        transform: a key of :data:`TRANSFORMS`.
        anchor_subset_size: when given, average over all master-containing
            anchor subsets of this size (Section 8.3 protocol).
        num_positions: dataset size override.
    """
    n = num_positions or eval_points()
    key = ("run", scheme, transform, anchor_subset_size, n)
    if key not in _CACHE:
        dataset = default_dataset(n)
        if transform != "full":
            dataset = dataset.transformed(TRANSFORMS[transform])
        localizer = _SCHEMES[scheme]()
        if anchor_subset_size is not None and anchor_subset_size < len(
            dataset.testbed.anchors
        ):
            run = evaluate_anchor_subsets(
                localizer,
                dataset,
                subset_size=anchor_subset_size,
                label=f"{scheme}/{transform}/{anchor_subset_size}anchors",
            )
        else:
            run = evaluate(
                localizer, dataset, label=f"{scheme}/{transform}"
            )
        _CACHE[key] = run
    return _CACHE[key]


def stats_of(run: EvaluationRun) -> ErrorStats:
    """Error statistics of a run with the standard failure padding."""
    return run.stats()
