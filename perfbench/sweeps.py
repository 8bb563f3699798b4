"""The two sweep workloads: ``sweep_warm`` and ``ablation_cold``.

Both drive :func:`repro.sim.runner.evaluate` serially.  Per-fix latency
is the interval between consecutive fix starts inside one ``evaluate``
call (a time-stamping ``transform`` marks each start).  Set-up time runs
from localizer construction to the end of its first fix.  Between
stretches of work a :class:`harness.HostProbe` reads the host's speed,
and the timings are reported at the sizing host's speed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from harness import (
    DEPLOYMENT_SEED,
    WORK_DIR,
    Campaign,
    HostProbe,
    Outcome,
    block_rate,
    derive_seed,
    end_to_end,
    generate,
    p50,
    peak_rss_mb,
    program_cpu,
    room_check,
    round_offset,
    say,
    testbed_named,
)
from layers import TARGETS, fix_time_shares, per_layer_metrics
from spans import Recorder, SpanIndex, Tracer

#: Grid of both sweeps (the paper-figure resolution of repro.experiments).
GRID_M = 0.06
GRID_MARGIN_M = 0.25
#: Fresh localizers built per sweep_warm pass; setup_s is their median.
SETUPS = 15
#: Measured sweep_warm fixes per second of --seconds (seed code: ~100/s).
FIXES_PER_SECOND = 60
#: Fixes per ablation configuration and round.
FIXES_PER_CONFIG = 3
#: Seed-code seconds of one ablation round; sizes the round count.
ROUND_SECONDS = 1.1
#: EXPERIMENTS.md: BLoc median at seed 2018, 60 fixes, 0.06 m grid.
PAPER_CHECK = {"seed": 2018, "fixes": 60, "median_cm": 62.0}
#: Fixes per sweep_warm ``evaluate`` call.  A host probe follows each
#: call, and fix_tail_s is the median of the calls' tails (see
#: harness.block_tail).
BLOCK = 100
#: What throughput and latency mean on the sweeps.
SWEEP_NAMES = ("fixes_per_s", "fix_p50_s", "fix_tail_s")


@dataclass
class Tally:
    """Per-fix outcomes of a workload, with output checks applied."""

    latencies: List[float] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    bad: List[str] = field(default_factory=list)

    def add_run(self, run, testbed, label: str) -> None:
        for index, record in enumerate(run.records):
            self.attempted += 1
            if not np.isfinite(record.error_m):
                self.failed += 1
                if not record.failure_reason:
                    self.bad.append(f"{label}[{index}]: untyped failure")
                continue
            self.errors.append(float(record.error_m))
            if record.estimate is not None and not room_check(
                testbed, record.estimate, GRID_MARGIN_M
            ):
                self.bad.append(
                    f"{label}[{index}]: position {record.estimate} "
                    f"outside the room"
                )

    def report(self) -> None:
        for line in self.bad[:5]:
            say(f"check failed: {line}")
        say(f"fixes attempted {self.attempted}, failed (typed) {self.failed}")


def bloc_config(selection: str = "score"):
    from repro.core import BlocConfig

    return BlocConfig(
        grid_resolution_m=GRID_M,
        grid_margin_m=GRID_MARGIN_M,
        selection=selection,
        refine_peaks=True,
    )


def stamped_evaluate(localizer, testbed, fixes, label: str):
    """One ``evaluate`` call; returns (run, per-fix seconds, start, end)."""
    from repro.sim import runner
    from repro.sim.dataset import EvaluationDataset

    stamps: List[float] = []

    def stamp(observations):
        stamps.append(time.perf_counter())
        return observations

    dataset = EvaluationDataset(testbed=testbed, observations=list(fixes))
    started = time.perf_counter()
    run = runner.evaluate(localizer, dataset, label=label, transform=stamp)
    ended = time.perf_counter()
    return run, list(np.diff(stamps + [ended])), started, ended


def _layer_report(recorder: Recorder, tracer: Tracer, workload: str,
                  seed: int, overhead: float) -> Dict[str, float]:
    index = SpanIndex(recorder.spans)
    absent = sorted(k for k, v in tracer.status.items() if v == "absent")
    say(f"wrapped targets absent: {', '.join(absent) or 'none'}")
    shares = fix_time_shares(index)
    say("share of localizer time: " + ", ".join(
        f"{layer} {share:.3f}" for layer, share in shares.items()
    ))
    path = WORK_DIR / f"spans-{workload}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([s.to_dict() for s in recorder.spans]))
    say(f"{len(recorder.spans)} spans written to {path.name}")
    return per_layer_metrics(index, overhead_frac=overhead)


def _paper_check(testbed, tally: Tally) -> None:
    """The generator reproduces EXPERIMENTS.md's BLoc median."""
    from repro.core import BlocLocalizer

    campaign = Campaign("vicon", PAPER_CHECK["fixes"], PAPER_CHECK["seed"], 0)
    (measured,), _ = generate([campaign])
    run, _, _, _ = stamped_evaluate(
        BlocLocalizer(config=bloc_config()),
        testbed,
        measured.observations(testbed),
        "paper-check",
    )
    median_cm = 100.0 * float(np.median(run.errors()))
    ok = round(median_cm, 1) == PAPER_CHECK["median_cm"]
    say(
        f"check: seed {PAPER_CHECK['seed']}, {PAPER_CHECK['fixes']} fixes, "
        f"{GRID_M} m grid: BLoc median {median_cm:.2f} cm "
        f"(EXPERIMENTS.md {PAPER_CHECK['median_cm']} cm) "
        f"{'ok' if ok else 'MISMATCH'}"
    )
    if not ok:
        tally.bad.append(f"paper median {median_cm:.2f} cm")


def sweep_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core import BlocLocalizer

    testbed = testbed_named("vicon")
    measured_count = max(20, int(round(FIXES_PER_SECOND * seconds)))
    passes = 2 if trace else 1
    campaign = Campaign(
        "vicon",
        passes * SETUPS + measured_count,
        DEPLOYMENT_SEED,
        round_offset(seed),
    )
    (measured,), gen_s = generate([campaign])
    fixes = measured.observations(testbed)
    say(f"inputs: {campaign.count} distinct fixes, generated in {gen_s:.1f} s "
        f"(not gated)")

    tally = Tally()
    recorder = Recorder()
    tracer = Tracer(recorder)
    per_fix_wall: List[float] = []
    setups: List[float] = []
    cursor = 0
    probe = HostProbe(program_cpu(), share=True)
    try:
        probe.measure()
        # A traced run is two passes over disjoint halves, untraced then
        # traced, so the tracing overhead is measured on the same work.
        for traced in ([False, True] if trace else [False]):
            if traced:
                tracer.install(TARGETS)
            try:
                for _ in range(SETUPS):
                    localizer = None  # free the previous steering entry first
                    started = time.perf_counter()
                    localizer = BlocLocalizer(config=bloc_config())
                    run, _, _, ended = stamped_evaluate(
                        localizer, testbed, fixes[cursor:cursor + 1], "setup"
                    )
                    cursor += 1
                    setups.append(ended - started)
                    tally.add_run(run, testbed, "setup")
                probe.measure()
                chunk = fixes[cursor:cursor + measured_count // passes]
                cursor += len(chunk)
                swept = 0.0
                for start in range(0, len(chunk), BLOCK):
                    run, latencies, began, ended = stamped_evaluate(
                        localizer, testbed, chunk[start:start + BLOCK],
                        "sweep_warm",
                    )
                    probe.measure()
                    swept += ended - began
                    tally.add_run(run, testbed, "sweep")
                    tally.latencies.extend(latencies)
            finally:
                tracer.uninstall()
            per_fix_wall.append(swept / len(chunk))
    finally:
        probe.close()
    throughput = block_rate(tally.latencies)
    rss_mb = peak_rss_mb()
    _paper_check(testbed, tally)
    tally.report()
    if trace:
        overhead = per_fix_wall[1] / per_fix_wall[0] - 1.0
        metrics = _layer_report(recorder, tracer, "sweep_warm", seed, overhead)
    else:
        metrics = end_to_end(SWEEP_NAMES, setups, throughput, tally.latencies,
                             tally.errors, rss_mb, tail_block=BLOCK,
                             probe=probe)
    return Outcome(not tally.bad, tally.attempted, tally.failed, metrics)


def ablation_configs() -> List[Tuple[str, Callable, Optional[Callable], int]]:
    """Section 8 configurations as repro.experiments builds them.

    Each entry: (name, localizer factory, observation transform or None,
    anchor-subset size or 0).
    """
    from repro.baselines import AoaLocalizer
    from repro.constants import BLE_TOTAL_SPAN_HZ
    from repro.core import BlocLocalizer

    def bloc(selection: str = "score"):
        return lambda: BlocLocalizer(config=bloc_config(selection))

    def aoa():
        return AoaLocalizer(
            grid_resolution_m=GRID_M,
            grid_margin_m=GRID_MARGIN_M,
            mode="triangulation",
        )

    return [
        ("bw2MHz", bloc(), lambda o: o.select_bandwidth(2e6), 0),
        ("bw20MHz", bloc(), lambda o: o.select_bandwidth(20e6), 0),
        ("bw40MHz", bloc(), lambda o: o.select_bandwidth(40e6), 0),
        ("bw80MHz", bloc(), lambda o: o.select_bandwidth(BLE_TOTAL_SPAN_HZ), 0),
        ("every2nd", bloc(), lambda o: o.subsample_bands(2), 0),
        ("every4th", bloc(), lambda o: o.subsample_bands(4), 0),
        ("ant3", bloc(), lambda o: o.select_antennas(3), 0),
        ("ant2", bloc(), lambda o: o.select_antennas(2), 0),
        ("anchors3of4", bloc(), None, 3),
        ("shortest", bloc("shortest"), None, 0),
        ("max_likelihood", bloc("max_likelihood"), None, 0),
        ("aoa", aoa, None, 0),
    ]


def _run_config(make, subset: int, fixes, testbed, label: str):
    """Build one fresh localizer and run its fixes.

    Returns (runs, per-fix seconds, set-up seconds, wall seconds).
    """
    from repro.sim import runner
    from repro.sim.dataset import EvaluationDataset

    started = time.perf_counter()
    localizer = make()
    if not subset:
        run, latencies, _, ended = stamped_evaluate(
            localizer, testbed, fixes, label
        )
        first_done = ended - sum(latencies[1:])
        return [run], latencies, first_done - started, ended - started
    # evaluate_anchor_subsets takes no transform: time it per entry.
    runs, latencies, first_done = [], [], None
    for fix in fixes:
        began = time.perf_counter()
        runs.append(
            runner.evaluate_anchor_subsets(
                localizer,
                EvaluationDataset(testbed=testbed, observations=[fix]),
                subset_size=subset,
                label=label,
            )
        )
        done = time.perf_counter()
        latencies.append(done - began)
        first_done = done if first_done is None else first_done
    return runs, latencies, first_done - started, done - started


def ablation_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    testbed = testbed_named("vicon")
    configs = ablation_configs()
    rounds = max(2, int(round(seconds / ROUND_SECONDS)))
    per_round = len(configs) * FIXES_PER_CONFIG
    campaign = Campaign(
        "vicon",
        rounds * per_round,
        derive_seed(DEPLOYMENT_SEED, "ablation"),
        round_offset(seed),
    )
    (measured,), gen_s = generate([campaign])
    fixes = measured.observations(testbed)
    say(f"inputs: {campaign.count} distinct fixes ({rounds} rounds x "
        f"{len(configs)} configurations x {FIXES_PER_CONFIG}), generated in "
        f"{gen_s:.1f} s (not gated)")
    plan = []  # per round: (name, factory, subset size, transformed fixes)
    for r in range(rounds):
        jobs = []
        for c, (name, make, transform, subset) in enumerate(configs):
            start = (r * len(configs) + c) * FIXES_PER_CONFIG
            chunk = fixes[start:start + FIXES_PER_CONFIG]
            if transform is not None:
                chunk = [transform(o) for o in chunk]
            jobs.append((name, make, subset, chunk))
        plan.append(jobs)

    tally = Tally()
    recorder = Recorder()
    tracer = Tracer(recorder)
    setups: List[float] = []
    round_walls: Dict[bool, List[float]] = {False: [], True: []}
    probe = HostProbe(program_cpu(), share=True)
    try:
        probe.measure()
        for r, jobs in enumerate(plan):
            # Traced runs trace the second half of the rounds only.
            traced = trace and r >= rounds // 2
            if traced and not tracer.status:
                tracer.install(TARGETS)
            wall = 0.0
            for name, make, subset, chunk in jobs:
                runs, latencies, setup, config_wall = _run_config(
                    make, subset, chunk, testbed, name
                )
                for run in runs:
                    tally.add_run(run, testbed, name)
                tally.latencies.extend(latencies)
                setups.append(setup)
                wall += config_wall
            round_walls[traced].append(wall)
            probe.measure()
    finally:
        tracer.uninstall()
        probe.close()
    rss_mb = peak_rss_mb()
    tally.report()
    if trace:
        overhead = p50(round_walls[True]) / p50(round_walls[False]) - 1.0
        metrics = _layer_report(recorder, tracer, "ablation_cold", seed,
                                overhead)
    else:
        # A round is the unit of work: every configuration, cold.
        throughput = p50([per_round / wall for wall in round_walls[False]])
        metrics = end_to_end(SWEEP_NAMES, setups, throughput, tally.latencies,
                             tally.errors, rss_mb, probe=probe)
    return Outcome(not tally.bad, tally.attempted, tally.failed, metrics)
