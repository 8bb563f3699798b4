"""BLoc benchmark: one command per workload run.

Usage::

    python3 perfbench/run.py --workload sweep_warm --seed 1 --seconds 20 --trace 0

Workloads: ``sweep_warm`` and ``service_mixed`` (see ``BENCHMARK.json``
and ``perfbench/README.md``), and ``ablation_cold``, which runs by hand
only; ``--workload all`` runs the three in turn.  Human-readable lines
start with ``#``; the last line of standard output is the JSON result.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate,
traced run.  The program's outputs are checked in both modes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

import harness
from harness import metric, say

WORKLOADS = ("sweep_warm", "ablation_cold", "service_mixed")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "service_mixed":
        from service_load import service_mixed

        return service_mixed(seed, seconds, trace)
    import sweeps

    return getattr(sweeps, name)(seed, seconds, trace)


def result_line(outcome, trace: bool) -> Dict[str, object]:
    if trace:
        from layers import PER_LAYER

        metrics = {
            name: metric(outcome.metrics[name], unit)
            for name, unit in PER_LAYER
        }
    else:
        metrics = outcome.metrics
    return {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    env_state = harness.pin_environment()
    try:
        harness.import_program()
    except (harness.ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    host = harness.host_info()
    say(
        f"host: {host['cpus']} cpus, L3 {host['l3']}, python "
        f"{host['python']}, numpy {host['numpy']}; "
        + ", ".join(f"{k} {v}" for k, v in env_state.items())
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        say(f"workload {name}, seed {args.seed}, {args.seconds:g} s, "
            f"trace {args.trace}")
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        lines.append(result_line(outcome, bool(args.trace)))
        if len(names) > 1:
            say(f"{name}: {json.dumps(lines[-1])}")
    if len(lines) == 1:
        print(json.dumps(lines[0]), flush=True)
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
