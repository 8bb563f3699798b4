"""Helper process: measure one slice of a campaign and save it as .npz.

Usage: ``python3 perfbench/gen_worker.py CAMPAIGN_JSON START STOP OUT``

Every worker samples the campaign's full position list (cheap, and
deterministic per seed) and measures fixes ``START..STOP-1`` with
``round_index = round_offset + k``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

import harness


def main(argv) -> int:
    spec = json.loads(argv[1])
    start, stop, out = int(argv[2]), int(argv[3]), Path(argv[4])
    harness.pin_environment()
    harness.import_program()
    from repro.ble.channels import ChannelMap
    from repro.sim.measurement import ChannelMeasurementModel
    from repro.sim.scenario import sample_tag_positions

    testbed = harness.testbed_named(spec["testbed"])
    positions = sample_tag_positions(
        testbed,
        spec["count"],
        seed=spec["position_seed"],
        min_separation_m=spec["min_separation_m"],
        margin_m=0.35,
    )
    model = ChannelMeasurementModel(
        testbed=testbed,
        snr_db=spec["snr_db"],
        channel_map=ChannelMap.all_channels(),
        seed=spec["model_seed"],
    )
    fixes = [
        model.measure(positions[k], round_index=spec["round_offset"] + k)
        for k in range(start, stop)
    ]
    tmp = out.with_name(out.name + ".tmp.npz")
    np.savez(
        tmp,
        positions=np.array([[p.x, p.y] for p in positions]),
        frequencies_hz=model.frequencies(),
        tag=np.stack([f.tag_to_anchor for f in fixes]),
        master=np.stack([f.master_to_anchor for f in fixes]),
    )
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
