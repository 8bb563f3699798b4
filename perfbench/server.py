"""Server process of the ``service_mixed`` workload.

Builds ``LocalizerPool``, ``ServiceConfig``, ``LocalizationService`` and
``make_server`` the way ``repro serve`` does, with its defaults passed
explicitly, prewarms every scenario, then serves on an ephemeral
localhost port.  Protocol with the parent over stdin/stdout:

* prints ``{"port": N}`` once listening;
* stops on a line on stdin (or EOF), then prints
  ``{"vmhwm_kb": ..., "absent": [...]}`` and exits 0.

With ``--trace PATH`` the layer wrappers are installed before the
service is built, and the spans are written to PATH at shutdown.

Usage: ``python3 perfbench/server.py [--trace PATH]``
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

import harness
from spans import Recorder, Tracer

#: `repro serve` defaults, pinned here so a changed default cannot
#: silently change the workload.
RESOLUTION_M = 0.1
SERVICE = {
    "rate_per_s": 50.0,
    "burst": 20,
    "api_keys": None,
    "max_batch": 8,
    "max_wait_s": 0.005,
    "access_log_path": None,
}
GATES = {
    "min_band_coverage": 0.6,
    "min_anchor_coverage": 0.5,
    "min_anchors": 3,
    "min_antennas": 2,
}


def vmhwm_kb() -> int:
    """Peak resident set size of this process (kB)."""
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return int(harness.peak_rss_mb() * 1024)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", metavar="PATH", default=None)
    args = parser.parse_args(argv)
    harness.pin_environment()
    harness.import_program()
    recorder = Recorder()
    tracer = Tracer(recorder)
    if args.trace:
        from layers import TARGETS

        tracer.install(TARGETS)
    from repro.service import (
        LocalizationService,
        LocalizerPool,
        QualityGates,
        ServiceConfig,
        default_scenarios,
        make_server,
    )

    pool = LocalizerPool(
        scenarios=default_scenarios(),
        grid_resolution_m=RESOLUTION_M,
        gates=QualityGates(**GATES),
    )
    service = LocalizationService(pool=pool, config=ServiceConfig(**SERVICE))
    pool.prewarm()
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=server.serve_forever, name="serve", daemon=True
    )
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        sys.stdin.readline()
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10.0)
    tracer.uninstall()
    if args.trace:
        Path(args.trace).write_text(
            json.dumps([span.to_dict() for span in recorder.spans])
        )
    absent = sorted(k for k, v in tracer.status.items() if v == "absent")
    print(json.dumps({"vmhwm_kb": vmhwm_kb(), "absent": absent}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
