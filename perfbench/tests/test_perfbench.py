"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
(about two minutes; not part of the tier-1 suite).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

harness.pin_environment()
harness.import_program()

from layers import PER_LAYER, TARGETS, per_layer_metrics  # noqa: E402
from spans import Recorder, Span, SpanIndex, Target, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# BENCHMARK.json's workloads, then those run.py also runs by hand.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["ablation_cold"]


def run_bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    out = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)
        assert math.isfinite(entry["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=tmp_path,
                    timeout=170)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


# ------------------------------------------------------------ in-process


@pytest.fixture(scope="module")
def fixes():
    from repro.ble.channels import ChannelMap
    from repro.sim.measurement import ChannelMeasurementModel

    testbed = harness.testbed_named("vicon")
    model = ChannelMeasurementModel(
        testbed=testbed, snr_db=18.0, channel_map=ChannelMap.all_channels(),
        seed=harness.DEPLOYMENT_SEED,
    )
    from repro.utils.geometry2d import Point

    positions = [Point(-1.0, 0.0), Point(0.5, 1.0), Point(1.2, -0.6),
                 Point(-0.4, 1.8)]
    return testbed, [model.measure(p, round_index=k)
                     for k, p in enumerate(positions)]


def traced_sweep(fixes, targets=TARGETS):
    """Spans of a tiny 0.2 m sweep with the wrappers installed."""
    from repro.core import BlocConfig, BlocLocalizer
    from repro.sim import runner
    from repro.sim.dataset import EvaluationDataset

    testbed, observations = fixes
    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install(targets)
    try:
        runner.evaluate(
            BlocLocalizer(config=BlocConfig(grid_resolution_m=0.2)),
            EvaluationDataset(testbed=testbed, observations=observations),
        )
    finally:
        tracer.uninstall()
    return tracer, SpanIndex(recorder.spans)


def test_child_self_time_within_parent_span(fixes):
    _, index = traced_sweep(fixes)
    assert index.named("localizer.locate")
    nested = 0
    for span in index.spans:
        parent = index.by_id.get(span.parent)
        if parent is None:
            continue
        nested += 1
        assert span.duration <= parent.duration
        assert 0.0 <= index.self_time(span) <= parent.duration
        assert index.self_time(parent) >= 0.0
    assert nested > 0


def test_wrappers_are_removed_after_the_traced_run(fixes):
    import repro.core.localizer as localizer
    import repro.core.peaks as peaks

    before = (peaks.find_peaks, localizer.find_peaks,
              vars(localizer.BlocLocalizer)["locate"])
    traced_sweep(fixes)
    after = (peaks.find_peaks, localizer.find_peaks,
             vars(localizer.BlocLocalizer)["locate"])
    assert before == after


def test_planted_slowdown_shows_in_its_layer(fixes, monkeypatch):
    import repro.core.localizer as localizer
    import repro.core.peaks as peaks

    baseline = per_layer_metrics(traced_sweep(fixes)[1])
    original = peaks.refine_peak_position

    def slow_refine(*args, **kwargs):
        time.sleep(0.02)
        return original(*args, **kwargs)

    for module in (peaks, localizer):
        monkeypatch.setattr(module, "refine_peak_position", slow_refine)
    planted = per_layer_metrics(traced_sweep(fixes)[1])
    assert baseline["peaks.refine_s_p50"] < 0.01
    assert planted["peaks.refine_s_p50"] >= 0.02
    assert planted["correction.self_s_p50"] < 0.01
    assert planted["localizer.locate.self_s_p50"] < 0.01


def test_absent_targets_read_zero_instead_of_failing(fixes, monkeypatch):
    import repro.core.likelihood as likelihood
    import repro.core.localizer as localizer

    for module in (likelihood, localizer):
        monkeypatch.delattr(module, "compute_likelihood_maps_batched")
    extra = [
        Target("repro.core.engine", "no_such_kernel", "engine.build"),
        Target("repro.no_such_module", "anything", "engine.build"),
        Target("repro.core.engine", "SteeringCache.no_such_method",
               "engine.entry_for"),
    ]
    tracer, index = traced_sweep(fixes, TARGETS + extra)
    absent = {k for k, v in tracer.status.items() if v == "absent"}
    assert absent == {
        "repro.core.likelihood.compute_likelihood_maps_batched",
        "repro.core.engine.no_such_kernel",
        "repro.no_such_module.anything",
        "repro.core.engine.SteeringCache.no_such_method",
    }
    values = per_layer_metrics(index)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["likelihood.self_s_p50"] > 0
    assert values["batcher.batches"] == 0.0


# ------------------------------------------------------------ helpers


def test_tail_keeps_ten_samples_beyond():
    result = harness.tail([float(v) for v in range(100)])
    assert result.value == 89.0 and result.samples == 100
    assert result.percentile == 90.0
    assert harness.tail([1.0, 2.0]).value == 2.0


def test_host_probe_ends_its_helper_and_gives_back_the_cpus():
    cpus = os.sched_getaffinity(0)
    with harness.HostProbe(harness.program_cpu(), share=True) as probe:
        assert os.sched_getaffinity(0) == {harness.program_cpu()}
        probe.measure()
        probe.measure()
    assert probe.proc.returncode == 0
    assert os.sched_getaffinity(0) == cpus
    assert len(probe.times) == 2 and probe.scale() > 0


def test_block_tail_ignores_a_stall_confined_to_one_block():
    steady = [float(v % 100) for v in range(500)]
    stalled = steady[:100] + [v * 3.0 for v in steady[100:200]] + steady[200:]
    result = harness.block_tail(stalled, 100)
    assert result.value == 89.0 and result.blocks == 5
    assert result.percentile == 90.0 and result.samples == 500
    assert harness.tail(stalled).value > 89.0 * 3.0 - 30.0


def test_queue_wait_matches_submit_to_next_batch_start():
    from layers import queue_waits

    spans = [
        Span(1, "batcher.submit", 1.0, 1.001, attrs={"obs": 7}),
        Span(2, "batcher.submit", 1.002, 1.003, attrs={"obs": 8}),
        Span(3, "providers.chain", 1.006, 1.02, attrs={"obs": [7, 8]}),
        Span(4, "batcher.submit", 2.0, 2.001, attrs={"obs": 7}),
        Span(5, "providers.chain", 2.005, 2.02, attrs={"obs": [7]}),
    ]
    waits = queue_waits(SpanIndex(spans))
    assert waits == pytest.approx([0.006, 0.004, 0.005])


def test_round_offset_keeps_the_experiments_campaign_at_2018():
    assert harness.round_offset(2018) == 0
    offsets = {harness.round_offset(s) for s in range(1, 50)}
    assert len(offsets) == 49
    assert all(o % harness.ROUNDS_PER_SEED == 0 for o in offsets)
