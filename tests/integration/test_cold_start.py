"""Cold start: what a server imports, and how ``repro serve`` pins BLAS.

Each check runs a fresh interpreter, because the test session itself
has long since imported everything.  Package re-exports resolve on
first use, so ``import repro`` loads no numpy, and a prewarmed server
(or ``repro serve --help``) loads none of the modules serving never
runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import pytest

import repro
from repro.__main__ import BLAS_THREAD_ENV

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules a server has no use for: the lint engine, the run ledger,
#: the SLO gate, the profiler, the evaluation runner, the channel and
#: IQ simulators, the SDR stack, GFSK, the load generator, the
#: experiments and scipy's image filters.
NOT_FOR_SERVING = (
    "scipy.ndimage",
    "repro.analysis.linting",
    "repro.analysis.rules",
    "repro.obs.ledger",
    "repro.obs.slo",
    "repro.obs.prof",
    "repro.sim.runner",
    "repro.sim.measurement",
    "repro.sdr",
    "repro.ble.gfsk",
    "repro.service.loadtest",
    "repro.experiments",
)


def _run(
    args: List[str], overrides: Optional[Dict[str, str]] = None
) -> subprocess.CompletedProcess:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in BLAS_THREAD_ENV
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env.update(overrides or {})
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )


def _loaded_after(code: str) -> List[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    script = f"{code}\nimport sys\nprint('\\n'.join(sorted(sys.modules)))"
    return _run(["-c", script]).stdout.split()


def _unwanted(modules: List[str]) -> List[str]:
    return [
        name
        for name in modules
        if any(
            name == banned or name.startswith(banned + ".")
            for banned in NOT_FOR_SERVING
        )
    ]


def test_import_repro_loads_no_numpy():
    modules = _loaded_after("import repro")
    assert "numpy" not in modules
    assert [m for m in modules if m.startswith("repro")] == [
        "repro",
        "repro._lazy",
    ]


def test_package_reexports_resolve_on_first_use():
    modules = _loaded_after(
        "import repro\nassert repro.Point.__name__ == 'Point'"
    )
    assert "repro.utils.geometry2d" in modules
    assert "repro.sim.runner" not in modules


def test_unknown_reexport_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope


def test_prewarmed_server_imports_only_what_serving_runs():
    modules = _loaded_after(
        "from repro.service import LocalizationService, LocalizerPool, "
        "make_server\n"
        "pool = LocalizerPool(grid_resolution_m=0.35)\n"
        "pool.prewarm()\n"
        "service = LocalizationService(pool=pool)\n"
        "make_server(service, port=0).server_close()\n"
        "service.close()"
    )
    assert "repro.service.pool" in modules
    assert _unwanted(modules) == []


def test_serve_help_imports_only_what_serving_runs():
    result = _run(["-X", "importtime", "-m", "repro", "serve", "--help"])
    assert "--no-prewarm" in result.stdout
    modules = [
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "repro.constants" in modules
    assert "numpy" not in modules
    assert _unwanted(modules) == []


#: Stands in for the server: reports the BLAS variables and whether
#: numpy was already loaded when ``cmd_serve`` handed over.
_REPORT_SERVE_ENV = """
import json, os, sys
import repro.__main__ as cli
cli._run_serve = lambda args: print(json.dumps({
    "numpy_loaded": "numpy" in sys.modules,
    "env": {name: os.environ.get(name) for name in cli.BLAS_THREAD_ENV},
})) or 0
sys.exit(cli.main(["serve"]))
"""


def _serve_env(overrides: Optional[Dict[str, str]] = None) -> dict:
    return json.loads(_run(["-c", _REPORT_SERVE_ENV], overrides).stdout)


def test_serve_pins_blas_to_one_thread_before_numpy_loads():
    report = _serve_env()
    assert report["numpy_loaded"] is False
    assert report["env"] == {name: "1" for name in BLAS_THREAD_ENV}


def test_serve_keeps_an_explicit_blas_thread_count():
    report = _serve_env({"OPENBLAS_NUM_THREADS": "3"})
    assert report["env"] == {
        "OPENBLAS_NUM_THREADS": "3",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
