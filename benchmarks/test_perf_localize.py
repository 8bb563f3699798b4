"""Bench: steering-engine cold/warm cost and serial/parallel sweep rates.

Not a paper figure -- this tracks the localization hot path itself, on
the default 4-anchor / 4-antenna / 37-band scenario:

* the direct Eq. 17 oracle (rebuild geometry every fix, from
  ``tests/eq17_oracle.py``) vs a cold steering cache (first fix pays
  the build) vs a warm cache (matvecs only);
* serial ``evaluate()`` vs the thread and process sweeps;
* the sampling profiler's overhead on a warm fix.

Each test folds its measurements into ``BENCH_localize.json`` (path
overridable via ``REPRO_BENCH_JSON``), so successive runs keep the perf
trajectory comparable.  Scale with ``REPRO_EVAL_POINTS`` /
``REPRO_GRID_RES`` like the figure benchmarks.

The tests measure and check correctness only (equal records, cache
hit/miss counts, equal positions).  Every speed
and overhead bound is an ``[slo.*]`` rule in ``slo.toml``, gated by
``python -m repro obs slo --bench BENCH_localize.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from eq17_oracle import DirectBlocLocalizer

from repro.core import BlocConfig, BlocLocalizer
from repro.experiments.common import (
    default_dataset,
    eval_points,
    grid_resolution,
)
from repro.obs import SamplingProfiler, get_observer, observed
from repro.obs.ledger import RunLedger, build_run_record
from repro.sim import evaluate

#: Output file accumulating the perf numbers of both tests.
BENCH_JSON_PATH = os.environ.get("REPRO_BENCH_JSON", "BENCH_localize.json")

#: Thread-pool size of the parallel sweep measurement.
PARALLEL_WORKERS = 4

#: Cap on sweep size: enough fixes to time a sweep, cheap enough for CI.
MAX_BENCH_FIXES = 12


@pytest.fixture(scope="module")
def dataset():
    return default_dataset(min(eval_points(), MAX_BENCH_FIXES))


@pytest.fixture(scope="module", autouse=True)
def bench_ledger_record():
    """Append one RunRecord per bench session to the run ledger.

    Runs after the module's tests so the record carries the sections they
    just folded into ``BENCH_localize.json``.  The ledger path honours
    ``REPRO_RUNS_LEDGER`` (default ``runs.ndjson``, git-ignored).
    """
    yield
    path = Path(BENCH_JSON_PATH)
    if not path.exists():
        return
    payload = json.loads(path.read_text(encoding="utf-8"))
    results = {}
    sections = ("steering_cache", "evaluate", "process", "profiler")
    for section in sections:
        for key, value in payload.get(section, {}).items():
            if value is None:
                # Explicit null (e.g. a speedup on a 1-cpu host) is
                # data: the report renders it as "n/a (1 cpu)".
                results[f"{section}.{key}"] = None
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            results[f"{section}.{key}"] = value
    ledger = RunLedger(None)
    record = build_run_record(
        "bench",
        get_observer(),
        label="localize",
        config=payload.get("scenario", {}),
        results=results,
        artifacts=[str(path)],
    )
    ledger.append(record)


def _bloc_config() -> BlocConfig:
    return BlocConfig(grid_resolution_m=grid_resolution())


def _best_locate_s(localizer, observations, rounds: int) -> float:
    """Best-of-``rounds`` wall-clock of one ``locate`` call."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        localizer.locate(observations, keep_map=False)
        best = min(best, time.perf_counter() - start)
    return best


def _update_bench_json(scenario: dict, section: str, data: dict) -> dict:
    """Read-merge-write one section of the benchmark JSON."""
    path = Path(BENCH_JSON_PATH)
    payload = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"benchmark": "localize"}
    )
    payload["benchmark"] = "localize"
    payload["scenario"] = scenario
    payload[section] = data
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def _scenario(dataset, localizer) -> dict:
    observations = dataset.observations[0]
    return {
        "anchors": observations.num_anchors,
        "antennas": observations.num_antennas,
        "bands": observations.num_bands,
        "grid_points": localizer.grid_for(observations).size,
        "grid_resolution_m": grid_resolution(),
        "fixes": len(dataset),
    }


def test_perf_steering_cache(dataset, report_sink):
    """Direct vs cold vs warm steering-cache locate, same position.

    The warm/direct floor is ``slo.warm_speedup_vs_direct``.
    """
    observations = dataset.observations[0]
    direct = DirectBlocLocalizer(config=_bloc_config())
    cached = BlocLocalizer(config=_bloc_config())

    direct_s = _best_locate_s(direct, observations, rounds=3)
    start = time.perf_counter()
    cold_result = cached.locate(observations, keep_map=False)
    cold_s = time.perf_counter() - start
    warm_s = _best_locate_s(cached, observations, rounds=5)

    direct_result = direct.locate(observations, keep_map=False)
    assert np.allclose(
        tuple(direct_result.position),
        tuple(cold_result.position),
        atol=1e-6,
    )
    assert cached.engine.misses == 1 and cached.engine.hits >= 5

    speedup = direct_s / warm_s
    entry = cached.engine.info()
    data = {
        "direct_s_per_fix": direct_s,
        "cold_first_fix_s": cold_s,
        "warm_s_per_fix": warm_s,
        "speedup_warm_vs_direct": speedup,
        "cache_bytes": entry["bytes"],
        "cache_entries": entry["entries"],
    }
    _update_bench_json(_scenario(dataset, cached), "steering_cache", data)
    report_sink.append(
        "[perf] steering cache\n"
        f"  direct path       {direct_s * 1000:8.1f} ms/fix\n"
        f"  cold cache        {cold_s * 1000:8.1f} ms (first fix, incl. "
        "build)\n"
        f"  warm cache        {warm_s * 1000:8.1f} ms/fix "
        f"({speedup:.1f}x vs direct)\n"
        f"  cache size        {entry['bytes'] / 1e6:8.1f} MB"
    )


def test_perf_parallel_evaluate(dataset, report_sink):
    """Thread sweep: identical records, measured throughput.

    The speedup floor is ``slo.thread_speedup_vs_serial``.
    """
    serial_localizer = BlocLocalizer(config=_bloc_config())
    parallel_localizer = BlocLocalizer(config=_bloc_config())

    start = time.perf_counter()
    serial_run = evaluate(serial_localizer, dataset, label="serial")
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel_run = evaluate(
        parallel_localizer,
        dataset,
        label="parallel",
        workers=PARALLEL_WORKERS,
    )
    parallel_s = time.perf_counter() - start

    assert [r.error_m for r in serial_run.records] == [
        r.error_m for r in parallel_run.records
    ], "parallel evaluation must be record-for-record identical to serial"

    fixes = len(dataset)
    cpus = os.cpu_count() or 1
    effective_workers = min(PARALLEL_WORKERS, fixes)
    unreliable = cpus < effective_workers
    serial_rate = fixes / serial_s
    parallel_rate = fixes / parallel_s
    data = {
        "fixes": fixes,
        "cpus": cpus,
        "serial_s": serial_s,
        "serial_fixes_per_s": serial_rate,
        "workers": PARALLEL_WORKERS,
        "effective_workers": effective_workers,
        "unreliable_single_core": unreliable,
        "parallel_s": parallel_s,
        "parallel_fixes_per_s": parallel_rate,
        # On a host with fewer cores than workers the ratio measures
        # scheduler noise, not parallelism: record null, not a lie.
        "speedup_parallel_vs_serial": (
            None if unreliable else serial_s / parallel_s
        ),
    }
    _update_bench_json(
        _scenario(dataset, serial_localizer), "evaluate", data
    )
    report_sink.append(
        "[perf] evaluation sweep\n"
        f"  serial            {serial_rate:8.1f} fixes/s\n"
        f"  workers={PARALLEL_WORKERS}         {parallel_rate:8.1f} "
        f"fixes/s ({serial_s / parallel_s:.1f}x)"
        + ("\n  [speedup not meaningful: "
           f"{cpus} cpu(s) < {effective_workers} workers]"
           if unreliable else "")
    )
    assert Path(BENCH_JSON_PATH).exists()


def test_perf_process_backend(dataset, report_sink):
    """Process backend: identical errors, GIL-free sweep throughput.

    The speedup floor is ``slo.process_speedup_vs_serial``.
    """
    serial_localizer = BlocLocalizer(config=_bloc_config())
    process_localizer = BlocLocalizer(config=_bloc_config())

    start = time.perf_counter()
    serial_run = evaluate(serial_localizer, dataset, label="serial")
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    process_run = evaluate(
        process_localizer,
        dataset,
        label="process",
        workers=PARALLEL_WORKERS,
        backend="process",
    )
    process_s = time.perf_counter() - start

    assert [r.error_m for r in serial_run.records] == [
        r.error_m for r in process_run.records
    ], "process backend must be record-for-record identical to serial"

    fixes = len(dataset)
    cpus = os.cpu_count() or 1
    effective = process_run.effective_workers
    unreliable = cpus < effective
    rate = fixes / process_s
    speedup = serial_s / process_s
    data = {
        "fixes": fixes,
        "cpus": cpus,
        "workers": PARALLEL_WORKERS,
        "effective_workers": effective,
        "unreliable_single_core": unreliable,
        "serial_fixes_per_s": fixes / serial_s,
        "process_s": process_s,
        "fixes_per_s": rate,
        "speedup_process_vs_serial": None if unreliable else speedup,
    }
    _update_bench_json(
        _scenario(dataset, serial_localizer), "process", data
    )
    report_sink.append(
        "[perf] process backend\n"
        f"  serial            {fixes / serial_s:8.1f} fixes/s\n"
        f"  process x{effective}        {rate:8.1f} fixes/s"
        + (f" ({speedup:.1f}x)" if not unreliable else "")
        + ("\n  [speedup not meaningful: "
           f"{cpus} cpu(s) < {effective} workers]"
           if unreliable else "")
    )


def _best_batch_s(localizer, observations, fixes: int, rounds: int) -> float:
    """Best-of-``rounds`` seconds per fix over a ``fixes``-call batch.

    Batching amortises timer granularity and scheduler noise that would
    dwarf the profiler's few-microsecond sampling cost on a single
    warm fix.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(fixes):
            localizer.locate(observations, keep_map=False)
        best = min(best, time.perf_counter() - start)
    return best / fixes


#: Interleaved baseline/profiled measurement pairs for the overhead
#: bench; the reported fraction is the *median* over these repeats, so
#: one scheduler hiccup (the historical source of gate flakes -- a
#: recorded 10.3% against the 5% ceiling on a loaded 1-cpu host) cannot
#: swing the verdict.
PROFILER_OVERHEAD_REPEATS = 3


def test_perf_profiler_overhead(dataset, report_sink):
    """Warm-fix wall time with and without the sampling profiler.

    The overhead fraction is measured ``PROFILER_OVERHEAD_REPEATS``
    times (baseline and profiled runs interleaved, so slow drift hits
    both sides) and the median is reported.  On a single-core host the
    profiler thread and the workload fight for the one CPU, so the
    measurement is scheduler noise: the JSON then records
    ``overhead_frac = null`` with ``unreliable_single_core = true`` --
    the same treatment the sweep benches give their speedups -- which
    makes the ``slo.profiler_overhead_frac`` ceiling skip instead of
    flaking CI.
    """
    localizer = BlocLocalizer(config=_bloc_config())
    observations = dataset.observations[0]
    localizer.locate(observations, keep_map=False)  # warm the cache

    repeats = []
    baselines = []
    profileds = []
    with observed() as obs:
        for _ in range(PROFILER_OVERHEAD_REPEATS):
            baseline_s = _best_batch_s(
                localizer, observations, fixes=25, rounds=2
            )
            profiler = SamplingProfiler(obs.tracer, interval_s=0.005)
            with profiler:
                profiled_s = _best_batch_s(
                    localizer, observations, fixes=25, rounds=2
                )
            baselines.append(baseline_s)
            profileds.append(profiled_s)
            repeats.append(max(0.0, profiled_s / baseline_s - 1.0))
        report = profiler.report

    cpus = os.cpu_count() or 1
    unreliable = cpus < 2
    overhead_frac = float(np.median(repeats))
    baseline_s = float(np.median(baselines))
    profiled_s = float(np.median(profileds))
    data = {
        "interval_s": report.interval_s,
        "baseline_warm_s": baseline_s,
        "profiled_warm_s": profiled_s,
        "cpus": cpus,
        "unreliable_single_core": unreliable,
        "repeats": len(repeats),
        "overhead_frac_repeats": repeats,
        # On one core the profiler thread steals cycles from the very
        # workload it times: record null, not a flaky lie.
        "overhead_frac": None if unreliable else overhead_frac,
        "samples": report.samples_total,
    }
    _update_bench_json(_scenario(dataset, localizer), "profiler", data)
    report_sink.append(
        "[perf] sampling profiler\n"
        f"  warm fix          {baseline_s * 1000:8.1f} ms (no profiler)\n"
        f"  warm fix          {profiled_s * 1000:8.1f} ms (profiled, "
        f"{report.samples_total} samples @ {report.interval_s * 1000:.0f} "
        "ms)\n"
        f"  overhead          {overhead_frac * 100:8.1f} % "
        f"(median of {len(repeats)})"
        + (f"\n  [overhead not meaningful: {cpus} cpu(s)]"
           if unreliable else "")
    )
