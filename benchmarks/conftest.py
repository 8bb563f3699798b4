"""Shared fixtures for the figure-reproduction benchmarks.

The expensive artefact -- the measured evaluation dataset -- is cached by
``repro.experiments.common`` at module level, so every benchmark in one
pytest session reuses the same dataset and the same per-scheme evaluation
runs, exactly like the paper evaluates every scheme on one recorded
dataset.

Scale knobs: ``REPRO_EVAL_POINTS`` (default 60, paper scale 1700) and
``REPRO_GRID_RES`` (default 0.06 m).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# The direct Eq. 17 oracle (tests/eq17_oracle.py) times the steering
# cache's direct baseline; import it from its one home under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


def pytest_configure(config):
    """Opt-in stage-level tracing for benchmark runs.

    Setting ``REPRO_BENCH_TRACE`` (to a path, or to ``1`` for summary
    only) installs a live observer for the whole pytest session; at
    session end the per-stage span timing breakdown is printed and, when
    the value looks like a path, the full NDJSON export is written there.
    Unset (the default) nothing is installed and the benchmarks run with
    the zero-overhead no-op observer.
    """
    target = os.environ.get("REPRO_BENCH_TRACE")
    profile = os.environ.get("REPRO_BENCH_PROFILE")
    if not target and not profile:
        return
    from repro.obs import Observability, install

    observer = Observability(enabled=True).preregister()
    config._repro_observer = observer
    config._repro_trace_path = (
        target if target and target != "1" else None
    )
    install(observer)
    if profile:
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler(observer.tracer)
        profiler.start()
        config._repro_profiler = profiler
        config._repro_profile_prefix = profile


def pytest_unconfigure(config):
    observer = getattr(config, "_repro_observer", None)
    if observer is None:
        return
    import sys

    from repro.obs import export_ndjson, install, summary

    profiler = getattr(config, "_repro_profiler", None)
    if profiler is not None:
        from repro.obs import export_folded

        profiler.stop()
        prefix = config._repro_profile_prefix
        export_folded(f"{prefix}.folded", profiler.report)
        sys.__stdout__.write(
            f"\n[obs] profiler: {profiler.report.samples_total} samples "
            f"-> {prefix}.folded\n"
        )
    install(None)
    path = config._repro_trace_path
    if path:
        export_ndjson(path, observer)
        sys.__stdout__.write(f"\n[obs] NDJSON trace written to {path}\n")
    sys.__stdout__.write(
        "\n[obs] benchmark stage breakdown\n" + summary(observer) + "\n"
    )
    sys.__stdout__.flush()


def pytest_report_header(config):
    from repro.experiments.common import eval_points, grid_resolution

    return (
        f"BLoc reproduction benches: {eval_points()} placements, "
        f"{grid_resolution() * 100:.0f} cm grid "
        "(REPRO_EVAL_POINTS / REPRO_GRID_RES to change)"
    )


@pytest.fixture(scope="session")
def report_sink():
    """Collects experiment reports; emits them at session end.

    The emission bypasses pytest's output capture (teardown prints are
    otherwise swallowed on success) and is also written to
    ``bench_report.txt`` next to the invocation directory.
    """
    import sys
    from pathlib import Path

    reports = []
    yield reports
    if not reports:
        return
    lines = [
        "",
        "=" * 72,
        "PAPER vs MEASURED (see EXPERIMENTS.md for the full record)",
        "=" * 72,
    ]
    for report in reports:
        lines.append(report)
        lines.append("-" * 72)
    text = "\n".join(lines)
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()
    Path("bench_report.txt").write_text(text + "\n", encoding="utf-8")
