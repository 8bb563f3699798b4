"""Golden records: warm-fix perf work must not move a single bit.

``data/golden_records.json`` holds, for 20 seed-2018 VICON fixes on a
0.12 m grid and each selection strategy, the fix position (as
``float.hex``) and the ``(row, col)`` list of its scored peaks, recorded
before the peak-selection, Eq. 18 scoring and Eq. 17 gather code was
vectorised.  ``locate`` must reproduce them exactly.

Regenerate (only on purpose, from a commit whose records are the
reference) with::

    PYTHONPATH=src python tests/core/test_golden_records.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import BlocConfig, BlocLocalizer
from repro.core.localizer import SELECTION_STRATEGIES
from repro.sim import ChannelMeasurementModel
from repro.sim.dataset import build_dataset
from repro.sim.testbed import vicon_testbed

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_records.json"
SEED = 2018
NUM_FIXES = 20
GRID_M = 0.12


def _dataset():
    testbed = vicon_testbed()
    model = ChannelMeasurementModel(testbed=testbed, seed=SEED)
    return build_dataset(
        testbed,
        num_positions=NUM_FIXES,
        seed=SEED,
        model=model,
        min_separation_m=0.1,
    )


def _localizer(selection: str) -> BlocLocalizer:
    return BlocLocalizer(
        config=BlocConfig(grid_resolution_m=GRID_M, selection=selection)
    )


def _record(result) -> dict:
    return {
        "x": result.position.x.hex(),
        "y": result.position.y.hex(),
        "peaks": [[s.peak.row, s.peak.col] for s in result.scored_peaks],
    }


@pytest.fixture(scope="module")
def observations():
    return _dataset().observations


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("selection", SELECTION_STRATEGIES)
def test_locate_reproduces_golden_records(selection, observations, golden):
    localizer = _localizer(selection)
    records = [
        _record(localizer.locate(obs, keep_map=False)) for obs in observations
    ]
    assert records == golden[selection]


if __name__ == "__main__":
    fixes = _dataset().observations
    records = {
        selection: [
            _record(_localizer(selection).locate(obs, keep_map=False))
            for obs in fixes
        ]
        for selection in SELECTION_STRATEGIES
    }
    # One fix per line keeps the file small and its diffs readable.
    blocks = [
        f"{json.dumps(selection)}: [\n"
        + ",\n".join(json.dumps(r) for r in rows)
        + "\n]"
        for selection, rows in records.items()
    ]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
